package linalg_test

import (
	"math"
	"math/rand"
	"testing"

	"qframan/internal/linalg"
)

// FuzzGemmBatch drives the batch executor with arbitrary batch compositions
// — mixed shapes (including ones straddling micro-tile and panel
// boundaries), mixed trans flags, calls sharing operands — and checks two
// invariants against a per-call direct Gemm oracle:
//
//  1. Bit-exactness: every C matches the direct Gemm result exactly, so the
//     batch fan-out never changes numerics.
//  2. Padding never leaks: each C lives in the middle of a guarded backing
//     array whose sentinel lanes must survive untouched — a kernel that
//     wrote a padded micro-tile tail would trip them.
func FuzzGemmBatch(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(7), uint8(8))
	f.Add(int64(42), uint8(1))
	f.Add(int64(-99), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, nCalls uint8) {
		if nCalls == 0 || nCalls > 24 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		dim := func() int {
			// Bias toward micro-tile and panel boundaries.
			edges := []int{1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 40, 64, 65}
			if rng.Intn(2) == 0 {
				return edges[rng.Intn(len(edges))]
			}
			return 1 + rng.Intn(70)
		}

		const guard = 8
		const sentinel = -12345.6789
		type guarded struct {
			backing []float64
			mat     *linalg.Matrix
		}
		newGuarded := func(rows, cols int) guarded {
			backing := make([]float64, rows*cols+2*guard)
			for i := 0; i < guard; i++ {
				backing[i] = sentinel
				backing[len(backing)-1-i] = sentinel
			}
			return guarded{backing: backing,
				mat: linalg.NewMatrixFrom(rows, cols, backing[guard:guard+rows*cols])}
		}
		fill := func(m *linalg.Matrix) {
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
		}

		var calls []linalg.GemmCall
		var guards []guarded
		var oracle []*linalg.Matrix
		for ci := 0; ci < int(nCalls); ci++ {
			if len(calls) > 0 && rng.Intn(4) == 0 {
				// Reuse a random earlier call's operands, swapped and
				// transposed (C = its Cᵀ): calls reading the same inputs
				// must still compute independently.
				src := calls[rng.Intn(len(calls))]
				g := newGuarded(src.C.Cols, src.C.Rows)
				calls = append(calls, linalg.GemmCall{
					TransA: !src.TransB, TransB: !src.TransA,
					Alpha: src.Alpha, A: src.B, B: src.A, C: g.mat,
				})
				guards = append(guards, g)
				continue
			}
			m, k, n := dim(), dim(), dim()
			transA := rng.Intn(2) == 0
			transB := rng.Intn(2) == 0
			ar, ac := m, k
			if transA {
				ar, ac = k, m
			}
			br, bc := k, n
			if transB {
				br, bc = n, k
			}
			a := linalg.NewMatrix(ar, ac)
			b := linalg.NewMatrix(br, bc)
			fill(a)
			fill(b)
			g := newGuarded(m, n)
			calls = append(calls, linalg.GemmCall{
				TransA: transA, TransB: transB, Alpha: 1, A: a, B: b, C: g.mat,
			})
			guards = append(guards, g)
		}

		// Oracle: every call via a direct Gemm on a fresh C.
		for i := range calls {
			c := &calls[i]
			w := linalg.NewMatrix(c.C.Rows, c.C.Cols)
			linalg.Gemm(c.TransA, c.TransB, c.Alpha, c.A, c.B, 0, w, nil)
			oracle = append(oracle, w)
		}

		linalg.ExecuteBatched(calls, nil)

		for i := range calls {
			got, want := calls[i].C.Data, oracle[i].Data
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("call %d: C[%d] = %g, direct Gemm %g", i, j, got[j], want[j])
				}
			}
		}
		for gi, g := range guards {
			for i := 0; i < guard; i++ {
				if g.backing[i] != sentinel || g.backing[len(g.backing)-1-i] != sentinel {
					t.Fatalf("call %d: guard lane clobbered — padded tail leaked out of C", gi)
				}
			}
		}
	})
}
