package accel

import (
	"math/rand"
	"testing"

	"qframan/internal/linalg"
)

// smallCalls fabricates n independent small GEMMs of similar shapes. With
// rows ~20·dim and columns ~dim they match the profile of the DFPT grid
// batches (a few hundred points × a few dozen basis functions).
func smallCalls(rng *rand.Rand, n, dim int) []linalg.GemmCall {
	calls := make([]linalg.GemmCall, n)
	for i := range calls {
		rows := 20*dim + rng.Intn(32)
		k := dim + rng.Intn(5)
		a := linalg.NewMatrix(rows, k)
		b := linalg.NewMatrix(k, k)
		for j := range a.Data {
			a.Data[j] = rng.NormFloat64()
		}
		for j := range b.Data {
			b.Data[j] = rng.NormFloat64()
		}
		calls[i] = linalg.GemmCall{Alpha: 1, A: a, B: b, C: linalg.NewMatrix(rows, k)}
	}
	return calls
}

func cloneCalls(calls []linalg.GemmCall) []linalg.GemmCall {
	out := make([]linalg.GemmCall, len(calls))
	for i, c := range calls {
		out[i] = c
		out[i].C = linalg.NewMatrix(c.C.Rows, c.C.Cols)
	}
	return out
}

func TestNumericsIdenticalToHost(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	calls := smallCalls(rng, 20, 12)
	ref := cloneCalls(calls)
	(&linalg.HostExecutor{}).Execute(ref)

	e := NewBatchingExecutor(ORISEDevice(), DefaultOptions())
	e.Execute(calls)
	for i := range calls {
		if d := calls[i].C.MaxAbsDiff(ref[i].C); d != 0 {
			t.Fatalf("call %d: offloaded result differs from host by %g", i, d)
		}
	}
}

func TestBatchingReducesModeledTime(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	calls := smallCalls(rng, 256, 16)

	// Baseline: no offload at all (pure host cost).
	hostOnly := NewBatchingExecutor(ORISEDevice(), Options{Stride: 32, MinBatch: 64, Offload: false})
	hostOnly.Execute(cloneCalls(calls))

	// Strawman: offload each tiny GEMM individually.
	naive := NewBatchingExecutor(ORISEDevice(), Options{Stride: 32, MinBatch: 64, Offload: true, BatchingDisabled: true})
	naive.Execute(cloneCalls(calls))

	// Shape-class batching.
	batched := NewBatchingExecutor(ORISEDevice(), DefaultOptions())
	batched.Execute(cloneCalls(calls))

	if batched.Stats.Batches == 0 {
		t.Fatal("elastic executor never batched")
	}
	if batched.Stats.ModeledTime() >= naive.Stats.ModeledTime() {
		t.Fatalf("batched %v not faster than per-call offload %v",
			batched.Stats.ModeledTime(), naive.Stats.ModeledTime())
	}
	if batched.Stats.ModeledTime() >= hostOnly.Stats.ModeledTime() {
		t.Fatalf("batched %v not faster than host-only %v",
			batched.Stats.ModeledTime(), hostOnly.Stats.ModeledTime())
	}
}

func TestSmallGroupsStayOnHost(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Fewer calls than MinBatch: everything must stay on the host.
	calls := smallCalls(rng, 10, 8)
	e := NewBatchingExecutor(ORISEDevice(), DefaultOptions())
	e.Execute(calls)
	if e.Stats.OffloadedGEMMs != 0 {
		t.Fatalf("offloaded %d GEMMs from an unprofitable group", e.Stats.OffloadedGEMMs)
	}
	if e.Stats.HostGEMMs != 10 {
		t.Fatalf("host GEMMs = %d, want 10", e.Stats.HostGEMMs)
	}
}

func TestPadding(t *testing.T) {
	e := NewBatchingExecutor(SunwayDevice(), DefaultOptions())
	if e.pad(1) != 32 || e.pad(32) != 32 || e.pad(33) != 64 {
		t.Fatalf("pad: %d %d %d", e.pad(1), e.pad(32), e.pad(33))
	}
	e.Opt.Stride = 1
	if e.pad(17) != 17 {
		t.Fatal("stride 1 must not pad")
	}
}

func TestGroupingBySimilarStrength(t *testing.T) {
	// Calls within the same padded shape bucket form one batch; a much
	// larger call lands in its own group.
	rng := rand.New(rand.NewSource(4))
	small := smallCalls(rng, 128, 10) // k pads to 32
	big := smallCalls(rng, 70, 100)   // k pads to 128
	opt := DefaultOptions()
	opt.MinBatch = 16
	e := NewBatchingExecutor(SunwayDevice(), opt)
	e.Execute(append(small, big...))
	if e.Stats.Batches < 2 {
		t.Fatalf("expected at least 2 batches, got %d", e.Stats.Batches)
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	calls := smallCalls(rng, 100, 12)
	e := NewBatchingExecutor(ORISEDevice(), DefaultOptions())
	e.Execute(calls)
	if e.Stats.GEMMs != 100 {
		t.Fatalf("GEMMs = %d", e.Stats.GEMMs)
	}
	if e.Stats.OffloadedGEMMs+e.Stats.HostGEMMs != 100 {
		t.Fatalf("offloaded %d + host %d != 100", e.Stats.OffloadedGEMMs, e.Stats.HostGEMMs)
	}
	if e.Stats.ModeledTime() <= 0 {
		t.Fatal("no modeled time accumulated")
	}
}
