package linalg

import (
	"sync"

	"qframan/internal/par"
)

// This file implements the SIMD-friendly blocked GEMM kernel behind both the
// direct Gemm entry point and the batch executor (paper §V-C): op(A)
// and op(B) are packed into register-tile panels (zero-padded to the 4×4
// micro-tile), the micro-kernel accumulates a 4×4 block of C in sixteen
// independent scalar chains (the ILP a superscalar core — or a compiler's
// vectorizer — needs), and the write-back masks the padded tails so they can
// never leak into C.
//
// # Bit-determinism of the blocked kernel
//
// Every output element C[i,j] is produced by exactly one accumulator whose k
// terms are added in ascending order, then combined as alpha·s + beta·C[i,j]
// (beta == 0 omits the C term entirely, per BLAS convention). Because each
// element's chain is independent, *any* loop blocking over i and j — tiles,
// panels, row chunks, batch fan-out — yields bit-identical results; and
// because zero-padded tail rows/columns are discarded by the masked
// write-back while k is never padded, padding cannot perturb bits either.
// This is what makes blocked == unblocked == batched == the naive
// triple-loop reference (gemmref), exactly, and keeps the width-invariance
// contract intact.

const (
	// mr×nr is the register micro-tile: 8 independent accumulator chains.
	// 4×2 is the sweet spot for the gc amd64 backend — 8 accumulators plus
	// 6 operand temporaries fit the 16 XMM registers without spilling
	// (a 4×4 tile's 16 accumulators + 8 temporaries spill and run slower).
	mr = 4
	nr = 2
)

// packPool recycles pack buffers; contents are fully overwritten (including
// pad lanes) on every use, so reuse cannot affect results.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

func getPack(n int) *[]float64 {
	p := packPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func putPack(p *[]float64) { packPool.Put(p) }

// packOpB packs op(B) (k×n) into nr-column panels: buf[jp*k*nr + kk*nr + c]
// holds op(B)[kk, jp*nr+c], zero when the column is past n.
func packOpB(trans bool, b *Matrix, k, n int, buf []float64) {
	np := (n + nr - 1) / nr
	if !trans {
		for jp := 0; jp < np; jp++ {
			j0 := jp * nr
			dst := buf[jp*k*nr:]
			cols := n - j0
			if cols > nr {
				cols = nr
			}
			for kk := 0; kk < k; kk++ {
				row := b.Data[kk*b.Cols+j0:]
				d := dst[kk*nr : kk*nr+nr]
				for c := 0; c < cols; c++ {
					d[c] = row[c]
				}
				for c := cols; c < nr; c++ {
					d[c] = 0
				}
			}
		}
	} else {
		// op(B)[kk, j] = B[j, kk]
		for jp := 0; jp < np; jp++ {
			j0 := jp * nr
			dst := buf[jp*k*nr:]
			cols := n - j0
			if cols > nr {
				cols = nr
			}
			for kk := 0; kk < k; kk++ {
				d := dst[kk*nr : kk*nr+nr]
				for c := 0; c < cols; c++ {
					d[c] = b.Data[(j0+c)*b.Cols+kk]
				}
				for c := cols; c < nr; c++ {
					d[c] = 0
				}
			}
		}
	}
}

// packOpAPanel packs rows [i0, i0+mr) of op(A) (m×k) into one mr-row panel:
// buf[kk*mr + r] holds op(A)[i0+r, kk], zero when the row is past m.
func packOpAPanel(trans bool, a *Matrix, i0, m, k int, buf []float64) {
	rows := m - i0
	if rows > mr {
		rows = mr
	}
	if !trans {
		if rows == mr {
			// Full panel: four row streams interleave into contiguous writes.
			r0 := a.Data[i0*a.Cols:]
			r1 := a.Data[(i0+1)*a.Cols:]
			r2 := a.Data[(i0+2)*a.Cols:]
			r3 := a.Data[(i0+3)*a.Cols:]
			for kk := 0; kk < k; kk++ {
				d := buf[kk*mr : kk*mr+mr : kk*mr+mr]
				d[0], d[1], d[2], d[3] = r0[kk], r1[kk], r2[kk], r3[kk]
			}
			return
		}
		for r := 0; r < rows; r++ {
			row := a.Data[(i0+r)*a.Cols:]
			for kk := 0; kk < k; kk++ {
				buf[kk*mr+r] = row[kk]
			}
		}
	} else {
		// op(A)[i, kk] = A[kk, i]
		for r := 0; r < rows; r++ {
			for kk := 0; kk < k; kk++ {
				buf[kk*mr+r] = a.Data[kk*a.Cols+i0+r]
			}
		}
	}
	for r := rows; r < mr; r++ {
		for kk := 0; kk < k; kk++ {
			buf[kk*mr+r] = 0
		}
	}
}

// microTile accumulates the mr×nr tile at (i0, j0) — acc[r][c] = Σ_k
// ap[k*mr+r]·bp[k*nr+c], k ascending, one independent chain per element —
// and applies the masked write-back C[i,j] = alpha·acc + beta·C[i,j] over
// the real (unpadded) extent in the same call, so accumulators never round-
// trip through memory. The reslice idiom keeps the k loop bounds-check-free.
func microTile(ap, bp []float64, k int, c *Matrix, i0, j0, m, n int, alpha, beta float64) {
	var c00, c01, c10, c11, c20, c21, c30, c31 float64
	kk := 0
	for ; kk+3 < k; kk += 4 {
		_ = ap[15]
		_ = bp[7]
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1 := bp[0], bp[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[4], ap[5], ap[6], ap[7]
		b0, b1 = bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[8], ap[9], ap[10], ap[11]
		b0, b1 = bp[4], bp[5]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[12], ap[13], ap[14], ap[15]
		b0, b1 = bp[6], bp[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		ap = ap[4*mr:]
		bp = bp[4*nr:]
	}
	for ; kk+1 < k; kk += 2 {
		_ = ap[7]
		_ = bp[3]
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1 := bp[0], bp[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[4], ap[5], ap[6], ap[7]
		b0, b1 = bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		ap = ap[2*mr:]
		bp = bp[2*nr:]
	}
	if kk < k {
		_ = ap[3]
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		_ = bp[1]
		b0, b1 := bp[0], bp[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
	}

	cd, ld := c.Data, c.Cols
	if i0+mr <= m && j0+nr <= n {
		// Full tile: unmasked write-back.
		o0 := i0*ld + j0
		o1, o2, o3 := o0+ld, o0+2*ld, o0+3*ld
		if beta == 0 {
			cd[o0], cd[o0+1] = alpha*c00, alpha*c01
			cd[o1], cd[o1+1] = alpha*c10, alpha*c11
			cd[o2], cd[o2+1] = alpha*c20, alpha*c21
			cd[o3], cd[o3+1] = alpha*c30, alpha*c31
		} else {
			cd[o0], cd[o0+1] = alpha*c00+beta*cd[o0], alpha*c01+beta*cd[o0+1]
			cd[o1], cd[o1+1] = alpha*c10+beta*cd[o1], alpha*c11+beta*cd[o1+1]
			cd[o2], cd[o2+1] = alpha*c20+beta*cd[o2], alpha*c21+beta*cd[o2+1]
			cd[o3], cd[o3+1] = alpha*c30+beta*cd[o3], alpha*c31+beta*cd[o3+1]
		}
		return
	}
	var acc [mr * nr]float64
	acc[0], acc[1] = c00, c01
	acc[2], acc[3] = c10, c11
	acc[4], acc[5] = c20, c21
	acc[6], acc[7] = c30, c31
	rows := m - i0
	if rows > mr {
		rows = mr
	}
	cols := n - j0
	if cols > nr {
		cols = nr
	}
	for r := 0; r < rows; r++ {
		crow := cd[(i0+r)*ld+j0:]
		for cc := 0; cc < cols; cc++ {
			if beta == 0 {
				crow[cc] = alpha * acc[r*nr+cc]
			} else {
				crow[cc] = alpha*acc[r*nr+cc] + beta*crow[cc]
			}
		}
	}
}

// gemmPanels runs the blocked kernel over row panels [p0, p1) against the
// packed op(B) buffer bp. onlyLower, when true, computes only the tiles on or
// below the diagonal and mirrors them — the symmetry-aware strength reduction
// for C = op(A)·op(A)ᵀ products (see gemmBlocked).
func gemmPanels(transA bool, alpha float64, a *Matrix, bp []float64, beta float64, c *Matrix, m, k, n, p0, p1 int, onlyLower bool) {
	apBuf := getPack(k * mr)
	defer putPack(apBuf)
	ap := *apBuf
	np := (n + nr - 1) / nr
	for pi := p0; pi < p1; pi++ {
		i0 := pi * mr
		packOpAPanel(transA, a, i0, m, k, ap)
		for jp := 0; jp < np; jp++ {
			j0 := jp * nr
			if onlyLower && j0 > i0+mr-1 {
				break // tiles strictly above the diagonal: produced by mirroring
			}
			microTile(ap, bp[jp*k*nr:], k, c, i0, j0, m, n, alpha, beta)
		}
	}
}

// mirrorLower fills the strict upper triangle of rows [r0, r1) of a square
// symmetric C from the lower triangle. For C = op(A)·op(A)ᵀ the mirrored
// element equals the directly computed one bit for bit: C[i,j] and C[j,i]
// accumulate the same products in the same k order.
func mirrorLower(c *Matrix, r0, r1 int) {
	n := c.Cols
	for i := r0; i < r1; i++ {
		for j := i + 1; j < n; j++ {
			c.Data[i*n+j] = c.Data[j*n+i]
		}
	}
}

// syrkCandidate reports whether the call computes op(A)·op(A)ᵀ into a square
// C — the pattern whose output is exactly symmetric, enabling half-compute.
func syrkCandidate(transA, transB bool, a, b *Matrix) bool {
	return a == b && transA != transB
}

// gemmBlocked is the shared blocked implementation: C = alpha·op(A)·op(B) +
// beta·C. parName labels the par region; inline — used by the batch executor,
// which parallelizes across batch members instead — runs everything on the
// caller. Shapes must have been validated by the caller.
func gemmBlocked(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix, m, k, n int, parName string, inline bool) {
	if m == 0 || n == 0 {
		return
	}
	bpBuf := getPack(k * nr * ((n + nr - 1) / nr))
	defer putPack(bpBuf)
	bp := *bpBuf
	packOpB(transB, b, k, n, bp)

	// op(A)·op(A)ᵀ with beta == 0 has an exactly symmetric result: compute
	// the lower triangle and mirror. (With beta ≠ 0 the old C may be
	// asymmetric, so the full product is computed.)
	syrk := syrkCandidate(transA, transB, a, b) && beta == 0 && m == n

	panels := (m + mr - 1) / mr
	if inline {
		gemmPanels(transA, alpha, a, bp, beta, c, m, k, n, 0, panels, syrk)
		if syrk {
			mirrorLower(c, 0, m)
		}
		return
	}
	// A chunk owns whole panels, so tile boundaries — and with them every
	// accumulator chain — are identical at any width.
	minPanels := 1 + gemmMinRows(k, n)/mr
	par.For(parName, panels, minPanels, func(lo, hi int) {
		gemmPanels(transA, alpha, a, bp, beta, c, m, k, n, lo, hi, syrk)
	})
	if syrk {
		par.For(parName, panels, minPanels, func(lo, hi int) {
			r1 := hi * mr
			if r1 > m {
				r1 = m
			}
			mirrorLower(c, lo*mr, r1)
		})
	}
}
