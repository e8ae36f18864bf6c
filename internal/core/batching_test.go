package core

import (
	"crypto/sha256"
	"testing"

	"qframan/internal/dfpt"
	"qframan/internal/hessian"
	"qframan/internal/linalg"
	"qframan/internal/par"
	"qframan/internal/store"
)

// perCallExecutor submits each grid GEMM as its own single-call batch, so
// no two calls ever share a fan-out.
type perCallExecutor struct{ ops *linalg.Ops }

func (e perCallExecutor) Execute(calls []linalg.GemmCall) {
	for i := range calls {
		linalg.ExecuteBatched(calls[i:i+1], e.ops)
	}
}

// TestFragmentDataBitIdenticalAcrossWidthsAndBatching runs the grid-Coulomb
// fragment pipeline over the cross product of kernel widths {1, 3, NumCPU}
// and batching {on, off} — the default host executor's one fan-out per
// batch against one fan-out per call — requiring every combination to
// produce the same store-codec bytes.
func TestFragmentDataBitIdenticalAcrossWidthsAndBatching(t *testing.T) {
	defer par.SetBudget(0)
	var ref *hessian.FragmentData
	var refSum [sha256.Size]byte
	var refDesc string
	for _, batching := range []bool{true, false} {
		for _, w := range kernelWidths() {
			opt := hessian.DefaultJobOptions()
			opt.DFPT.Coulomb = dfpt.GridCoulomb
			opt.DFPT.GridSpacing = 0.8
			opt.DFPT.GridMargin = 4.0
			if !batching {
				opt.DFPT.Executor = perCallExecutor{ops: &linalg.Ops{}}
			}
			par.SetBudget(w)
			data, err := hessian.ComputeFragment(waterFragment(), opt)
			if err != nil {
				t.Fatalf("width %d batching %v: %v", w, batching, err)
			}
			blob, err := store.Encode(data)
			if err != nil {
				t.Fatalf("width %d batching %v: encode: %v", w, batching, err)
			}
			sum := sha256.Sum256(blob)
			if ref == nil {
				ref, refSum = data, sum
				refDesc = "width 1 / batching on"
				continue
			}
			if !data.BitEqual(ref) {
				t.Fatalf("width %d batching %v: FragmentData differs bitwise from %s", w, batching, refDesc)
			}
			if sum != refSum {
				t.Fatalf("width %d batching %v: codec hash differs from %s", w, batching, refDesc)
			}
		}
	}
}
