package linalg

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"qframan/internal/par"
)

// TestGemmWidthInvariance is the kernel-drift gate run by CI at widths 1
// and 4: every trans case of Gemm (and both Gemv forms) must produce
// bit-identical output at any kernel width — far stricter than the 5% drift
// budget, and exactly what the row-sharded design guarantees.
func TestGemmWidthInvariance(t *testing.T) {
	shapes := [][3]int{{216, 40, 40}, {128, 128, 128}, {1000, 32, 32}, {7, 5, 3}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, trans := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			transA, transB := trans[0], trans[1]
			rng := rand.New(rand.NewSource(7))
			ar, ac := m, k
			if transA {
				ar, ac = k, m
			}
			br, bc := k, n
			if transB {
				br, bc = n, k
			}
			a := randomMatrix(rng, ar, ac)
			b := randomMatrix(rng, br, bc)
			c0 := randomMatrix(rng, m, n)

			var ref *Matrix
			for _, w := range []int{1, 4} {
				par.SetBudget(w)
				c := NewMatrix(m, n)
				copy(c.Data, c0.Data)
				Gemm(transA, transB, 1.25, a, b, 0.5, c, nil)
				if ref == nil {
					ref = c
					continue
				}
				for i, v := range c.Data {
					if math.Float64bits(v) != math.Float64bits(ref.Data[i]) {
						t.Fatalf("gemm %dx%dx%d transA=%v transB=%v width %d: element %d drifts (%g vs %g)",
							m, k, n, transA, transB, w, i, v, ref.Data[i])
					}
				}
			}
			par.SetBudget(0)
		}
	}
}

func TestGemvWidthInvariance(t *testing.T) {
	defer par.SetBudget(0)
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(rng, 300, 200)
	for _, trans := range []bool{false, true} {
		nx, ny := a.Cols, a.Rows
		if trans {
			nx, ny = a.Rows, a.Cols
		}
		x := make([]float64, nx)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var ref []float64
		for _, w := range []int{1, 4} {
			par.SetBudget(w)
			y := make([]float64, ny)
			Gemv(trans, 1.5, a, x, 0, y, nil)
			if ref == nil {
				ref = y
				continue
			}
			for i, v := range y {
				if math.Float64bits(v) != math.Float64bits(ref[i]) {
					t.Fatalf("gemv trans=%v width %d: element %d drifts", trans, w, i)
				}
			}
		}
	}
}

// TestExecuteWidthInvariance checks the batch fan-out path: a mixed-shape
// batch run through HostExecutor at kernel widths {1, 3, NumCPU} must give
// bit-identical outputs — how the pool splits the batch is invisible.
func TestExecuteWidthInvariance(t *testing.T) {
	defer par.SetBudget(0)
	shapes := [][3]int{{30, 20, 25}, {33, 40, 31}, {7, 5, 3}, {64, 32, 32}, {1, 9, 1}}
	mk := func() ([]GemmCall, []*Matrix) {
		rng := rand.New(rand.NewSource(13))
		var calls []GemmCall
		var outs []*Matrix
		for i := 0; i < 24; i++ {
			sh := shapes[i%len(shapes)]
			m, k, n := sh[0], sh[1], sh[2]
			c := NewMatrix(m, n)
			calls = append(calls, GemmCall{Alpha: 1, A: randomMatrix(rng, m, k), B: randomMatrix(rng, k, n), C: c})
			outs = append(outs, c)
		}
		return calls, outs
	}

	var ref []*Matrix
	for _, w := range []int{1, 3, runtime.NumCPU()} {
		par.SetBudget(w)
		calls, outs := mk()
		(&HostExecutor{}).Execute(calls)
		if ref == nil {
			ref = outs
			continue
		}
		for i := range outs {
			for j, v := range outs[i].Data {
				if math.Float64bits(v) != math.Float64bits(ref[i].Data[j]) {
					t.Fatalf("width %d: call %d element %d differs from width 1", w, i, j)
				}
			}
		}
	}
}

// TestExecuteBatchedWidthAndBatchingInvariance runs a mixed-shape batch —
// several shapes plus the transpose of the first call, C = Bᵀ·Aᵀ — through
// ExecuteBatched over the cross product of kernel widths {1, 3, NumCPU} and
// batching {on, off}, where "on" submits the whole batch as one fan-out and
// "off" submits each call as its own. Every combination must produce
// bit-identical outputs: batch composition and pool width are invisible.
func TestExecuteBatchedWidthAndBatchingInvariance(t *testing.T) {
	defer par.SetBudget(0)
	shapes := [][3]int{{30, 20, 25}, {33, 40, 31}, {7, 5, 3}, {64, 32, 32}, {1, 9, 1}}

	mk := func() ([]GemmCall, []*Matrix) {
		rng := rand.New(rand.NewSource(17))
		var calls []GemmCall
		var outs []*Matrix
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			c := NewMatrix(m, n)
			calls = append(calls, GemmCall{Alpha: 1, A: randomMatrix(rng, m, k), B: randomMatrix(rng, k, n), C: c})
			outs = append(outs, c)
		}
		first := calls[0]
		ct := NewMatrix(first.C.Cols, first.C.Rows)
		calls = append(calls, GemmCall{TransA: true, TransB: true, Alpha: 1, A: first.B, B: first.A, C: ct})
		outs = append(outs, ct)
		return calls, outs
	}

	var ref []*Matrix
	var refDesc string
	for _, batching := range []bool{true, false} {
		for _, w := range []int{1, 3, runtime.NumCPU()} {
			par.SetBudget(w)
			calls, outs := mk()
			if batching {
				ExecuteBatched(calls, nil)
			} else {
				for i := range calls {
					ExecuteBatched(calls[i:i+1], nil)
				}
			}
			if ref == nil {
				ref, refDesc = outs, "width 1 / batching on"
				continue
			}
			for i := range outs {
				for j, v := range outs[i].Data {
					if math.Float64bits(v) != math.Float64bits(ref[i].Data[j]) {
						t.Fatalf("width %d batching %v: call %d element %d differs from %s",
							w, batching, i, j, refDesc)
					}
				}
			}
		}
	}
	// The transposed call is the exact transpose of the first.
	for i := 0; i < ref[0].Rows; i++ {
		for j := 0; j < ref[0].Cols; j++ {
			if math.Float64bits(ref[len(ref)-1].At(j, i)) != math.Float64bits(ref[0].At(i, j)) {
				t.Fatalf("transposed call [%d,%d] is not the transpose of call 0 bitwise", j, i)
			}
		}
	}
}
