package linalg

import (
	"sync/atomic"

	"qframan/internal/par"
)

// ExecuteBatched runs a set of independent GemmCalls — the batched grid
// GEMMs of the paper's §V-C — as one "gemm_batch" kernel that fans across
// the calls. Each call runs at its true shape with the inline blocked
// kernel, so every output element accumulates the same ascending-k chain as
// a direct Gemm; calls write disjoint C matrices, so how the pool splits the
// batch cannot change a bit. Every call adds to GEMMCalls and FLOPs. Blocks
// until every call's C is final.
//
// Shape-class grouping and padding live only in internal/accel's cost
// model, where a device launch has a cost to amortize; a host core has none.
func ExecuteBatched(calls []GemmCall, ops *Ops) {
	if len(calls) == 0 {
		return
	}
	if ops == nil {
		ops = &DefaultOps
	}
	var flops int64
	for i := range calls {
		flops += calls[i].FLOPs()
	}
	ops.GEMMCalls.Add(int64(len(calls)))
	ops.FLOPs.Add(flops)
	batchFlushes.Add(1)
	par.For("gemm_batch", len(calls), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := &calls[i]
			m, k, n := c.Shape()
			gemmBlocked(c.TransA, c.TransB, c.Alpha, c.A, c.B, c.Beta, c.C, m, k, n, "", true)
		}
	})
}

// batchFlushes counts non-empty ExecuteBatched fan-outs, process-wide.
var batchFlushes atomic.Int64

// BatchStats counts batch fan-outs.
type BatchStats struct {
	Flushes int64 // non-empty ExecuteBatched calls
	Merged  int64 // always 0: batches from concurrent callers never merge
}

// GemmBatchStats returns the process-wide batch counters. It stays because
// the perfbench harness reports linalg.batch_flushes and
// linalg.batch_merge_frac from it.
func GemmBatchStats() BatchStats { return BatchStats{Flushes: batchFlushes.Load()} }
