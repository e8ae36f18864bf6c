package linalg_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qframan/internal/linalg"
	"qframan/internal/linalg/gemmref"
)

// The differential harness: the packed blocked kernel (and the batch path
// built on it) must reproduce the naive triple-loop reference bit for bit —
// not approximately — for every trans case, over ragged shapes from 1×1 up
// through sizes straddling the micro-tile and 32-padding boundaries.

// fillMat populates a matrix with a mix of magnitudes, signs, and exact
// values (0, powers of two) so bit-level discrepancies have terms to bite on.
func fillMat(m *linalg.Matrix, rng *rand.Rand) {
	for i := range m.Data {
		switch rng.Intn(10) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Ldexp(1, rng.Intn(40)-20) // exact power of two
		case 2:
			m.Data[i] = -rng.Float64() * 1e8
		case 3:
			m.Data[i] = rng.Float64() * 1e-8
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
}

// bitEqual reports exact bitwise equality (NaN-safe via Float64bits).
func bitEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// refGemm runs the reference on linalg matrices.
func refGemm(transA, transB bool, alpha float64, a, b *linalg.Matrix, beta float64, c *linalg.Matrix) {
	gemmref.Gemm(transA, transB, alpha,
		a.Data, a.Rows, a.Cols,
		b.Data, b.Rows, b.Cols,
		beta,
		c.Data, c.Rows, c.Cols)
}

// diffShapes is the ragged-shape sweep: 1×1, degenerate edges, shapes around
// the 4×2 register tile, and odd sizes straddling the 32-padding boundary
// (31/32/33) plus a grid-batch-like tall-skinny case.
var diffShapes = [][3]int{
	{1, 1, 1}, {1, 5, 1}, {5, 1, 3}, {2, 3, 1},
	{3, 4, 2}, {4, 4, 4}, {5, 7, 3}, {7, 5, 9},
	{8, 8, 8}, {9, 2, 11}, {13, 17, 6},
	{31, 31, 31}, {32, 32, 32}, {33, 33, 33},
	{31, 33, 32}, {33, 32, 31}, {32, 31, 33},
	{65, 3, 34}, {216, 40, 40}, {37, 64, 1},
}

// TestGemmMatchesReferenceBitwise sweeps every trans case, alpha/beta
// combination, and ragged shape, demanding exact bit equality with the
// naive reference.
func TestGemmMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	alphaBetas := [][2]float64{{1, 0}, {-0.5, 0}, {1, 1}, {2.25, -1.5}, {0, 0.5}}
	for _, sh := range diffShapes {
		m, k, n := sh[0], sh[1], sh[2]
		for ti, tc := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			transA, transB := tc[0], tc[1]
			for _, ab := range alphaBetas {
				alpha, beta := ab[0], ab[1]
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
				fillMat(a, rng)
				fillMat(b, rng)
				c := linalg.NewMatrix(m, n)
				fillMat(c, rng) // nonzero initial C exercises the beta path
				want := c.Clone()

				linalg.Gemm(transA, transB, alpha, a, b, beta, c, nil)
				refGemm(transA, transB, alpha, a, b, beta, want)

				if i, ok := bitEqual(c.Data, want.Data); !ok {
					t.Fatalf("shape %dx%dx%d trans case %d alpha=%g beta=%g: C[%d] = %x, reference %x",
						m, k, n, ti, alpha, beta, i, math.Float64bits(c.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
		}
	}
}

// TestGemmSyrkPathMatchesReference pins the symmetry-aware half-compute
// path (A == B, opposite trans, beta == 0) to the reference bitwise,
// including the mirrored upper triangle.
func TestGemmSyrkPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range [][2]int{{1, 1}, {3, 5}, {7, 2}, {31, 9}, {33, 40}, {64, 17}} {
		m, k := sh[0], sh[1]
		for _, tc := range [][2]bool{{false, true}, {true, false}} {
			transA, transB := tc[0], tc[1]
			ar, ac := m, k
			if transA {
				ar, ac = k, m
			}
			a := linalg.NewMatrix(ar, ac)
			fillMat(a, rng)
			c := linalg.NewMatrix(m, m)
			want := linalg.NewMatrix(m, m)
			linalg.Gemm(transA, transB, 1, a, a, 0, c, nil)
			refGemm(transA, transB, 1, a, a, 0, want)
			if i, ok := bitEqual(c.Data, want.Data); !ok {
				t.Fatalf("syrk %dx%d transA=%v: C[%d] differs from reference", m, k, transA, i)
			}
		}
	}
}

// TestExecuteBatchedMatchesReference runs a mixed-shape, mixed-trans batch
// through the batch path against the reference, both as one fan-out over
// the whole batch (batching=true) and as one single-call fan-out per call
// (batching=false).
func TestExecuteBatchedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var calls []linalg.GemmCall
	var want []*linalg.Matrix
	for _, sh := range diffShapes {
		m, k, n := sh[0], sh[1], sh[2]
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
		fillMat(a, rng)
		fillMat(b, rng)
		calls = append(calls, linalg.GemmCall{
			TransA: transA, TransB: transB, Alpha: 1.5, A: a, B: b,
			C: linalg.NewMatrix(m, n),
		})
		w := linalg.NewMatrix(m, n)
		refGemm(transA, transB, 1.5, a, b, 0, w)
		want = append(want, w)
	}
	for _, batching := range []bool{true, false} {
		t.Run(fmt.Sprintf("batching=%v", batching), func(t *testing.T) {
			for i := range calls {
				calls[i].C.Zero()
			}
			if batching {
				linalg.ExecuteBatched(calls, nil)
			} else {
				for i := range calls {
					linalg.ExecuteBatched(calls[i:i+1], nil)
				}
			}
			for i := range calls {
				if j, ok := bitEqual(calls[i].C.Data, want[i].Data); !ok {
					t.Fatalf("call %d: C[%d] differs from reference", i, j)
				}
			}
		})
	}
}
