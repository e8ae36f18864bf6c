package dfpt

import (
	"fmt"
	"time"

	"qframan/internal/grid"
	"qframan/internal/linalg"
	"qframan/internal/par"
	"qframan/internal/poisson"
	"qframan/internal/scf"
)

// gridEnv holds the precomputed real-space machinery for one fragment
// geometry: the integration grid, its batches, and per-batch tabulated basis
// values and gradients. Building it once per geometry and reusing it across
// DFPT cycles and field directions mirrors the paper's setup/loop split.
type gridEnv struct {
	g       *grid.Grid
	batches []batchData
}

// batchData is one grid batch: the local basis tabulation X (points×nloc)
// and its Cartesian gradients, plus the index maps back to the global grid
// and basis.
type batchData struct {
	indices []int // global grid point indices
	funcs   []int // global basis function indices
	x       *linalg.Matrix
	gx      [3]*linalg.Matrix
}

func newGridEnv(m *scf.Model, opt Options) (*gridEnv, error) {
	if opt.GridSpacing <= 0 || opt.GridMargin <= 0 || opt.BatchSide <= 0 {
		return nil, fmt.Errorf("dfpt: invalid grid options %+v", opt)
	}
	g := grid.Cover(m.Pos, opt.GridMargin, opt.GridSpacing)
	raw := g.Batches(opt.BatchSide, m.Basis)
	env := &gridEnv{g: g, batches: make([]batchData, len(raw))}
	// Tabulation is the expensive part of every displaced geometry's setup;
	// batches are independent (each writes only env.batches[bi]), so it
	// shards across the kernel pool.
	par.For("grid_tabulate", len(raw), 1, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			b := raw[bi]
			npts, nloc := len(b.Indices), len(b.Funcs)
			x := linalg.NewMatrix(npts, nloc)
			var gx [3]*linalg.Matrix
			for d := range gx {
				gx[d] = linalg.NewMatrix(npts, nloc)
			}
			for p, idx := range b.Indices {
				pt := g.Point(idx)
				for c, fi := range b.Funcs {
					f := &m.Basis.Funcs[fi]
					x.Set(p, c, f.ValueAt(pt))
					gr := f.GradAt(pt)
					gx[0].Set(p, c, gr.X)
					gx[1].Set(p, c, gr.Y)
					gx[2].Set(p, c, gr.Z)
				}
			}
			env.batches[bi] = batchData{indices: b.Indices, funcs: b.Funcs, x: x, gx: gx}
		}
	})
	return env, nil
}

// gather extracts the local block p1[funcs×funcs].
func (b *batchData) gather(p1 *linalg.Matrix) *linalg.Matrix {
	nloc := len(b.funcs)
	out := linalg.NewMatrix(nloc, nloc)
	for i, fi := range b.funcs {
		row := out.Row(i)
		src := p1.Row(fi)
		for j, fj := range b.funcs {
			row[j] = src[fj]
		}
	}
	return out
}

// addGridResponse runs phases 2–4 of the DFPT cycle: response density on the
// grid, Poisson solve, and the grid response Hamiltonian added into h1.
func (e *gridEnv) addGridResponse(m *scf.Model, p1, h1 *linalg.Matrix, dir int, opt Options, met *PhaseMetrics) error {
	exec := opt.Executor
	if exec == nil {
		exec = &linalg.HostExecutor{Ops: m.Ops}
	}
	// Phase-aware executors (the elastic-offloading accel.BatchingExecutor)
	// get told which pipeline phase the upcoming GEMMs belong to.
	phased, _ := exec.(interface{ BeginPhase(string) })

	// ---- Phase 2: n⁽¹⁾(r) (and ∇n⁽¹⁾) by batched GEMMs. ----
	// Transfer model (paper §V-F, aggregated data transfer): P⁽¹⁾ is
	// uploaded once per cycle and scattered on the device, so each call
	// carries only its share of that upload plus its own small output.
	nb := m.Basis.Size()
	p1Share := 8 * int64(nb) * int64(nb) / int64(len(e.batches))
	t0 := time.Now()
	n1 := make([]float64, e.g.NumPoints())
	gradN1 := make([]float64, e.g.NumPoints()) // ∇n⁽¹⁾ along dir (diagnostic)
	g1s := make([]*linalg.Matrix, len(e.batches))
	calls := make([]linalg.GemmCall, len(e.batches))
	// Per-batch gathers write disjoint slots of calls/g1s — point-sharded
	// over batches.
	par.For("grid_gather", len(e.batches), 1, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			b := &e.batches[bi]
			p1loc := b.gather(p1)
			g1 := linalg.NewMatrix(b.x.Rows, b.x.Cols)
			g1s[bi] = g1
			calls[bi] = linalg.GemmCall{
				Alpha: 1, A: b.x, B: p1loc, C: g1,
				// Offloaded as a fused density kernel: X is resident on the
				// device, the aggregated P⁽¹⁾ share moves in, the reduced
				// n⁽¹⁾ values move out.
				TransferBytes: p1Share + 8*int64(b.x.Rows),
			}
		}
	})
	var extra []linalg.GemmCall
	var naiveG []*linalg.Matrix
	if !opt.StrengthReduction {
		// Naive ∇n⁽¹⁾ ignores the symmetry of P⁽¹⁾ and computes the second
		// contraction ∇X·P⁽¹⁾ with its own GEMM per batch (Fig. 6(b)).
		naiveG = make([]*linalg.Matrix, len(e.batches))
		extra = make([]linalg.GemmCall, len(e.batches))
		par.For("grid_gather", len(e.batches), 1, func(lo, hi int) {
			for bi := lo; bi < hi; bi++ {
				b := &e.batches[bi]
				p1loc := b.gather(p1)
				ng := linalg.NewMatrix(b.x.Rows, b.x.Cols)
				naiveG[bi] = ng
				extra[bi] = linalg.GemmCall{
					Alpha: 1, A: b.gx[dir], B: p1loc, C: ng,
					TransferBytes: p1Share + 8*int64(b.x.Rows),
				}
			}
		})
	}
	all := append(calls, extra...)
	met.GEMMsN1 += int64(len(all))
	for i := range all {
		met.FLOPsN1 += all[i].FLOPs()
	}
	if phased != nil {
		phased.BeginPhase("n1")
	}
	exec.Execute(all)
	// Batches partition the grid, so their point scatters into n1/gradN1
	// touch disjoint indices — safe to shard over batches.
	par.For("grid_scatter", len(e.batches), 1, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			b := &e.batches[bi]
			g1 := g1s[bi]
			for p, idx := range b.indices {
				n1[idx] += linalg.Dot(g1.Row(p), b.x.Row(p))
				if opt.StrengthReduction {
					// Symmetric P⁽¹⁾: ∇n⁽¹⁾ = 2·(X·P⁽¹⁾)∘∇X, no extra GEMM.
					gradN1[idx] += 2 * linalg.Dot(g1.Row(p), b.gx[dir].Row(p))
				} else {
					gradN1[idx] += linalg.Dot(g1.Row(p), b.gx[dir].Row(p)) +
						linalg.Dot(naiveG[bi].Row(p), b.x.Row(p))
				}
			}
		}
	})
	// ∫∇n⁽¹⁾ d³r vanishes for a density that decays inside the box; the
	// accumulated value is exposed as a pipeline health diagnostic.
	for _, v := range gradN1 {
		met.GradN1Integral += v * e.g.Weight()
	}
	met.TimeN1 += time.Since(t0)

	// ---- Phase 3: Poisson solve for the response potential. ----
	t0 = time.Now()
	v1, iters, err := poisson.Solve(e.g, n1, poisson.Options{Tol: 1e-7, MaxIter: 20000})
	if err != nil {
		return fmt.Errorf("dfpt: response Poisson solve: %w", err)
	}
	met.PoissonIters += iters
	met.TimeV1 += time.Since(t0)

	// ---- Phase 4: response Hamiltonian H⁽¹⁾ by batched GEMMs. ----
	// Transfer model: each call uploads its batch's v⁽¹⁾ values; the H⁽¹⁾
	// blocks accumulate on the device and come back as one aggregated
	// matrix per cycle (its share is charged per call).
	h1Share := 8 * int64(nb) * int64(nb) / int64(len(e.batches))
	t0 = time.Now()
	w := e.g.Weight()
	type h1Batch struct {
		bi   int
		mats []*linalg.Matrix // result matrices to scatter
	}
	// Each batch contributes a fixed number of calls (1 strength-reduced,
	// 3 naive), so the call list is preallocated and every batch writes its
	// own slots — sharded over batches like the density phase.
	callsPerBatch := 1
	if !opt.StrengthReduction {
		callsPerBatch = 3
	}
	h1calls := make([]linalg.GemmCall, callsPerBatch*len(e.batches))
	h1batches := make([]h1Batch, len(e.batches))
	par.For("grid_h1_build", len(e.batches), 1, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			b := &e.batches[bi]
			npts, nloc := b.x.Rows, b.x.Cols
			// V = w·v⁽¹⁾ on the batch points.
			vv := make([]float64, npts)
			for p, idx := range b.indices {
				vv[p] = w * v1[idx]
			}
			if opt.StrengthReduction {
				// Fig. 6(a): B = Xᵀ·V·(X/2 + ∇X_dir); H⁽¹⁾ block = B + Bᵀ.
				y := linalg.NewMatrix(npts, nloc)
				for p := 0; p < npts; p++ {
					xr, gr, yr := b.x.Row(p), b.gx[dir].Row(p), y.Row(p)
					for c := 0; c < nloc; c++ {
						yr[c] = vv[p] * (0.5*xr[c] + gr[c])
					}
				}
				bm := linalg.NewMatrix(nloc, nloc)
				h1calls[bi] = linalg.GemmCall{
					TransA: true, Alpha: 1, A: b.x, B: y, C: bm,
					// Fused Hamiltonian kernel: v⁽¹⁾ values in, aggregated
					// H⁽¹⁾ share out.
					TransferBytes: 8*int64(npts) + h1Share,
				}
				h1batches[bi] = h1Batch{bi: bi, mats: []*linalg.Matrix{bm}}
			} else {
				// Naive: Xᵀ(VX) + Xᵀ(V∇X) + (V∇X)ᵀX — three GEMMs. The third
				// term is ∇Xᵀ·V·X written with V absorbed into ∇X, which
				// makes it the literal operand-swapped transpose of the
				// second call: the redundant GEMM §V-D's reduction removes.
				vx := linalg.NewMatrix(npts, nloc)
				vgx := linalg.NewMatrix(npts, nloc)
				for p := 0; p < npts; p++ {
					xr, gr := b.x.Row(p), b.gx[dir].Row(p)
					vxr, vgr := vx.Row(p), vgx.Row(p)
					for c := 0; c < nloc; c++ {
						vxr[c] = vv[p] * xr[c]
						vgr[c] = vv[p] * gr[c]
					}
				}
				m1 := linalg.NewMatrix(nloc, nloc)
				m2 := linalg.NewMatrix(nloc, nloc)
				m3 := linalg.NewMatrix(nloc, nloc)
				tb := 8*int64(npts) + h1Share
				h1calls[3*bi] = linalg.GemmCall{TransA: true, Alpha: 1, A: b.x, B: vx, C: m1, TransferBytes: tb}
				h1calls[3*bi+1] = linalg.GemmCall{TransA: true, Alpha: 1, A: b.x, B: vgx, C: m2, TransferBytes: tb}
				h1calls[3*bi+2] = linalg.GemmCall{TransA: true, Alpha: 1, A: vgx, B: b.x, C: m3, TransferBytes: tb}
				h1batches[bi] = h1Batch{bi: bi, mats: []*linalg.Matrix{m1, m2, m3}}
			}
		}
	})
	met.GEMMsH1 += int64(len(h1calls))
	for i := range h1calls {
		met.FLOPsH1 += h1calls[i].FLOPs()
	}
	if phased != nil {
		phased.BeginPhase("h1")
	}
	exec.Execute(h1calls)
	for _, hb := range h1batches {
		b := &e.batches[hb.bi]
		nloc := len(b.funcs)
		for i := 0; i < nloc; i++ {
			gi := b.funcs[i]
			for j := 0; j < nloc; j++ {
				gj := b.funcs[j]
				var v float64
				if opt.StrengthReduction {
					v = hb.mats[0].At(i, j) + hb.mats[0].At(j, i)
				} else {
					// m1 symmetric + m2 + m3, where m3 = m2ᵀ bit for bit.
					v = hb.mats[0].At(i, j) + hb.mats[1].At(i, j) + hb.mats[2].At(i, j)
				}
				h1.Add(gi, gj, v)
			}
		}
	}
	met.TimeH1 += time.Since(t0)
	return nil
}
