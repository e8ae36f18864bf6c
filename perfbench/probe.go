package main

import (
	"fmt"

	"qframan/internal/core"
	"qframan/internal/dfpt"
	"qframan/internal/fragment"
	"qframan/internal/hessian"
	"qframan/internal/par"
)

// parKernels are the named kernels of the par pool whose share of kernel
// time and chunk count the probe reports. Any other kernel lands in
// "other".
var parKernels = []string{
	"gemm_batch", "gemm_nn", "gemm_nt", "gemm_tn", "gemv_n", "gemv_t",
	"poisson_stencil", "poisson_axpy", "poisson_boundary",
	"grid_gather", "grid_scatter", "grid_h1_build", "grid_tabulate",
	"scf_forces", "dot", "spmv", "lanczos_vec", "lanczos_density", "other",
}

// probe splits one fragment's work by kernel. Under par.StartProfile it
// runs the largest computed fragment's reference solve and one displaced
// SCF+DFPT job (the steps of hessian.RunDisplacement, called one by one so
// the dfpt.Response metrics are reachable), then the spectrum solve of the
// pass's assembly. The profile runs kernels serially, so the probe is never
// part of a timed pass.
func probe(f *fragment.Fragment, g *hessian.Global, cfg core.Config, L metricSet) error {
	prof := par.StartProfile()
	defer par.StopProfile()
	m, err := hessian.ModelForFragment(f)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	ref, _, _, err := hessian.SolveReference(m, cfg.Sched.Job)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	md := m.Displaced(0, 0, ref.Step)
	ground, err := md.SolveSCF(ref.SCF)
	if err != nil {
		return fmt.Errorf("probe: displaced SCF: %w", err)
	}
	resp, err := dfpt.Polarizability(md, ground, ref.DFPT)
	if err != nil {
		return fmt.Errorf("probe: displaced DFPT: %w", err)
	}
	if _, _, err := core.SpectrumFromGlobal(g, cfg); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	par.StopProfile()

	met := resp.Metrics
	L.set("dfpt.gemms_n1", float64(met.GEMMsN1), "count")
	L.set("dfpt.gemms_h1", float64(met.GEMMsH1), "count")
	L.set("dfpt.flops_n1", float64(met.FLOPsN1), "flop")
	L.set("dfpt.flops_h1", float64(met.FLOPsH1), "flop")
	L.set("poisson.cg_iters", float64(met.PoissonIters), "count")
	perSolve := 0.0
	if met.PoissonIters > 0 {
		// GridCoulomb solves one Poisson problem per DFPT cycle.
		perSolve = ratio(float64(met.PoissonIters), float64(resp.Cycles))
	}
	L.set("poisson.cg_iters_per_solve", perSolve, "count")

	serial := prof.SerialSeconds()
	secs, chunks := prof.ByKernel(), prof.ChunksByKernel()
	known := map[string]bool{}
	for _, k := range parKernels {
		known[k] = true
	}
	for k := range secs {
		if !known[k] {
			secs["other"] += secs[k]
			chunks["other"] += chunks[k]
		}
	}
	for _, k := range parKernels {
		L.set("par."+k+"_frac", ratio(secs[k], serial), "frac")
		L.set("par."+k+"_chunks", float64(chunks[k]), "count")
	}
	L.set("par.kernel_serial_s", serial, "s")
	L.set("par.replay2_s", prof.Replay(2), "s")
	return nil
}
