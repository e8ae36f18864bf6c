// Command qframan runs the full QF-RAMAN pipeline: quantum fragmentation,
// parallel per-fragment DFT+DFPT displacement loops, Eq. 1 assembly, and the
// Lanczos+GAGQ Raman-spectrum solver.
//
// Examples:
//
//	qframan -seq GAVKAG -o spectrum.tsv
//	qframan -in solvated.txt -sigma 20 -fmin 200 -fmax 4000
//	qframan -dimers 4 -dense
//	qframan -in top.txt -traj traj.xyz -traj-out frames -cache-dir cache
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"time"

	"qframan/internal/cluster"
	"qframan/internal/core"
	"qframan/internal/faults"
	"qframan/internal/fragment"
	"qframan/internal/obs"
	"qframan/internal/par"
	"qframan/internal/sched"
	"qframan/internal/store"
	"qframan/internal/structure"
)

func main() {
	in := flag.String("in", "", "structure file (genstruct text format)")
	seq := flag.String("seq", "", "build a protein from this one-letter sequence")
	fold := flag.Int("fold", 0, "serpentine fold period for -seq")
	dimers := flag.Int("dimers", 0, "build a water-dimer system of this many dimers")
	waterBox := flag.Int("water", 0, "build an N×N×N water box")
	solvate := flag.Bool("solvate", false, "solvate the -seq protein in water")

	var ff fragFlags
	flag.StringVar(&ff.partitioner, "partitioner", "", "fragmentation engine: qf (peptide/water chemistry rules) or graph (general bond-graph min-cut); empty picks graph for systems with generic molecules and qf otherwise")
	flag.IntVar(&ff.fragSize, "frag-size", 0, "graph partitioner: soft fragment-size target in atoms (0 = default 24; requires -partitioner graph)")
	flag.IntVar(&ff.fragMax, "frag-max", 0, "graph partitioner: hard fragment-size cap for the cleanup pass (0 = 2×frag-size; requires -partitioner graph)")

	fmin := flag.Float64("fmin", 100, "spectrum start (cm⁻¹)")
	fmax := flag.Float64("fmax", 4000, "spectrum end (cm⁻¹)")
	fstep := flag.Float64("fstep", 2, "spectrum step (cm⁻¹)")
	sigma := flag.Float64("sigma", 5, "Gaussian smearing (cm⁻¹); the paper uses 5 gas-phase, 20 solvated")
	k := flag.Int("k", 150, "Lanczos steps")
	dense := flag.Bool("dense", false, "use exact dense diagonalization instead of Lanczos")
	irOut := flag.String("ir", "", "also compute the IR spectrum and write it to this TSV file")
	leaders := flag.Int("leaders", max(1, runtime.NumCPU()/2), "parallel leaders")
	workers := flag.Int("workers", 2, "workers per leader")
	kernelThreads := flag.Int("kernel-threads", 0, "intra-fragment kernel thread budget shared with the leader/worker fan-out (0 = GOMAXPROCS; results are bit-identical at any value)")
	clusterAddr := flag.String("cluster", "", "dispatch fragments to a qfcoord coordinator at this address instead of computing in-process (results stay bit-identical)")
	out := flag.String("o", "", "spectrum output TSV (default stdout)")

	trajPath := flag.String("traj", "", "extended-XYZ trajectory: diff frames incrementally and emit one spectrum per frame (topology from -in/-seq/-water, or inferred from frame 0)")
	trajWarm := flag.Bool("traj-warm", true, "warm-start moved fragments' SCF from their previous frame (=0 restores bit-identity with independent per-frame runs)")
	trajOut := flag.String("traj-out", "", "write per-frame spectra as frame_NNN.tsv into this directory (default: stream to stdout)")

	var ft faultFlags
	flag.IntVar(&ft.retries, "retries", faults.DefaultRetryPolicy().MaxAttempts, "processing attempts per fragment before a transient failure is final")
	flag.IntVar(&ft.maxFailed, "max-failed", 0, "fail-soft budget: complete degraded with up to K failed fragments dropped")
	flag.Float64Var(&ft.rate, "fault-rate", 0, "chaos: inject transient worker failures at this per-attempt probability")
	flag.Int64Var(&ft.seed, "fault-seed", 1, "chaos: injection seed")
	flag.IntVar(&ft.failFrag, "fail-frag", -1, "chaos: force this fragment index into deterministic failure")
	flag.DurationVar(&ft.straggler, "straggler-timeout", 0, "requeue fragments processing longer than this (0 disables the watchdog)")

	var cf cacheFlags
	flag.StringVar(&cf.dir, "cache-dir", "", "content-addressed fragment-result store directory (enables checkpointing and within-run dedup)")
	flag.BoolVar(&cf.resume, "resume", false, "serve fragment results checkpointed by previous runs of -cache-dir")
	flag.BoolVar(&cf.checkpoint, "checkpoint", true, "write fragment results to -cache-dir as they complete")

	var of obsFlags
	flag.StringVar(&of.traceOut, "trace-out", "", "write a Chrome trace_event JSON of the run to this file (load in chrome://tracing or Perfetto; summarize with qfstats -trace)")
	flag.StringVar(&of.metricsOut, "metrics-out", "", "write the final metrics snapshot (flat text) to this file; '-' for stderr")
	flag.StringVar(&of.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *kernelThreads > 0 {
		par.SetBudget(*kernelThreads)
	}
	if err := run(*in, *seq, *fold, *dimers, *waterBox, *solvate,
		*fmin, *fmax, *fstep, *sigma, *k, *dense, *leaders, *workers, *clusterAddr, *out, *irOut, ff, ft, cf, of,
		*trajPath, *trajWarm, *trajOut); err != nil {
		fmt.Fprintln(os.Stderr, "qframan:", err)
		os.Exit(1)
	}
}

// fragFlags bundles the fragmentation-engine knobs.
type fragFlags struct {
	partitioner string
	fragSize    int
	fragMax     int
}

// apply resolves the partitioner and wires it into the pipeline config. The
// graph size knobs are refused unless -partitioner graph selects the engine
// they tune, rather than silently ignored.
func (ff fragFlags) apply(cfg *core.Config) error {
	if ff.partitioner != "graph" {
		if ff.fragSize != 0 {
			return fmt.Errorf("-frag-size tunes the graph partitioner; it requires -partitioner graph")
		}
		if ff.fragMax != 0 {
			return fmt.Errorf("-frag-max tunes the graph partitioner; it requires -partitioner graph")
		}
	}
	gOpt := fragment.DefaultGraphOptions()
	if ff.fragSize > 0 {
		gOpt.TargetAtoms = ff.fragSize
	}
	if ff.fragMax > 0 {
		gOpt.MaxAtoms = ff.fragMax
	}
	p, err := fragment.NewPartitioner(ff.partitioner, cfg.Fragment, gOpt)
	if err != nil {
		return err
	}
	cfg.Partitioner = p
	return nil
}

// obsFlags bundles the observability knobs.
type obsFlags struct {
	traceOut   string
	metricsOut string
	pprofAddr  string
}

// obsSinks holds the live sinks behind the flags until the run finishes.
type obsSinks struct {
	tracer *obs.Tracer
	reg    *obs.Registry
	flags  obsFlags
}

// apply starts the pprof server (if requested), builds the tracer/registry,
// and wires the scope into the scheduler config. A SIGUSR1 dumps the current
// metrics snapshot to stderr at any point of a long run (unix only).
func (of obsFlags) apply(cfg *core.Config) (*obsSinks, error) {
	if of.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(of.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "qframan: pprof:", err)
			}
		}()
	}
	if of.traceOut == "" && of.metricsOut == "" {
		return nil, nil
	}
	s := &obsSinks{reg: obs.NewRegistry(), flags: of}
	if of.traceOut != "" {
		s.tracer = obs.NewTracer()
	}
	cfg.Sched.Obs = obs.NewScope(s.tracer, s.reg)
	par.SetObs(s.reg) // pool occupancy + per-kernel shard timings
	notifyMetricsDump(func() {
		fmt.Fprintln(os.Stderr, "qframan: SIGUSR1 metrics snapshot:")
		s.reg.Snapshot().WriteText(os.Stderr)
	})
	return s, nil
}

// finish writes the trace and metrics files.
func (s *obsSinks) finish() error {
	if s == nil {
		return nil
	}
	if s.flags.traceOut != "" {
		f, err := os.Create(s.flags.traceOut)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		if err := s.tracer.ExportChromeTrace(bw); err != nil {
			f.Close()
			return err
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if d := s.tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "trace: %d spans dropped by the capacity backstop\n", d)
		}
	}
	if s.flags.metricsOut != "" {
		w := os.Stderr
		if s.flags.metricsOut != "-" {
			f, err := os.Create(s.flags.metricsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		bw := bufio.NewWriter(w)
		if err := s.reg.Snapshot().WriteText(bw); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// cacheFlags bundles the checkpoint-store knobs.
type cacheFlags struct {
	dir        string
	resume     bool
	checkpoint bool
}

// apply opens the store (when configured) and wires it into the scheduler
// options. The caller owns the returned store and must Close it.
func (cf cacheFlags) apply(cfg *core.Config) (*store.Store, error) {
	if cf.dir == "" {
		if cf.resume {
			return nil, fmt.Errorf("-resume requires -cache-dir")
		}
		return nil, nil
	}
	st, err := store.Open(cf.dir)
	if err != nil {
		return nil, err
	}
	cfg.Sched.Cache = sched.CacheOptions{Store: st, Resume: cf.resume, ReadOnly: !cf.checkpoint}
	return st, nil
}

// faultFlags bundles the fault-tolerance knobs.
type faultFlags struct {
	retries   int
	maxFailed int
	rate      float64
	seed      int64
	failFrag  int
	straggler time.Duration
}

// apply wires the flags into the scheduler options.
func (ft faultFlags) apply(cfg *core.Config) {
	cfg.Sched.Retry.MaxAttempts = ft.retries
	cfg.Sched.MaxFailedFragments = ft.maxFailed
	cfg.Sched.StragglerTimeout = ft.straggler
	if ft.rate > 0 || ft.failFrag >= 0 {
		fc := faults.Config{Seed: ft.seed, TransientRate: ft.rate}
		if ft.failFrag >= 0 {
			fc.HardFailFrags = []int{ft.failFrag}
		}
		cfg.Sched.Injector = faults.NewInjector(fc)
	}
}

func buildSystem(in, seq string, fold, dimers, waterBox int, solvate bool) (*structure.System, error) {
	switch {
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return structure.ReadSystem(f)
	case seq != "":
		p, err := structure.BuildProteinFolded(seq, fold)
		if err != nil {
			return nil, err
		}
		if solvate {
			return structure.SolvateInWater(p, 5.0, 2.4), nil
		}
		return p, nil
	case dimers > 0:
		return structure.BuildWaterDimerSystem(dimers), nil
	case waterBox > 0:
		return structure.BuildWaterBox(waterBox, waterBox, waterBox, struct{ X, Y, Z float64 }{}), nil
	}
	return nil, fmt.Errorf("provide one of -in, -seq, -dimers, -water")
}

func run(in, seq string, fold, dimers, waterBox int, solvate bool,
	fmin, fmax, fstep, sigma float64, k int, dense bool, leaders, workers int, clusterAddr, out, irOut string, ff fragFlags, ft faultFlags, cf cacheFlags, of obsFlags,
	trajPath string, trajWarm bool, trajOut string) error {

	var sys *structure.System
	var err error
	if trajPath != "" && in == "" && seq == "" && dimers == 0 && waterBox == 0 {
		// No topology source: runTraj infers one from the first frame.
	} else {
		sys, err = buildSystem(in, seq, fold, dimers, waterBox, solvate)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "system: %d atoms, %d residues, %d waters, %d molecules\n",
			sys.NumAtoms(), len(sys.Residues), len(sys.Waters), len(sys.Molecules))
	}

	cfg := core.DefaultConfig()
	cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = fmin, fmax, fstep
	cfg.Raman.Sigma = sigma
	cfg.Raman.LanczosK = k
	cfg.UseDense = dense
	cfg.Sched.NumLeaders = leaders
	cfg.Sched.WorkersPerLeader = workers
	cfg.IR = irOut != ""
	if err := ff.apply(&cfg); err != nil {
		return err
	}
	ft.apply(&cfg)
	cstore, err := cf.apply(&cfg)
	if err != nil {
		return err
	}
	if cstore != nil {
		defer cstore.Close()
	}
	sinks, err := of.apply(&cfg)
	if err != nil {
		return err
	}
	if clusterAddr != "" {
		cfg.Sched.Backend = cluster.NewClient(clusterAddr)
	}
	if trajPath != "" {
		// The warm-start hooks and in-memory frame diff are in-process
		// machinery; neither crosses the cluster wire, and per-frame IR
		// output is not plumbed. Refuse rather than silently degrade.
		if clusterAddr != "" {
			return fmt.Errorf("-traj cannot run over -cluster (frame diffing is in-process)")
		}
		if irOut != "" {
			return fmt.Errorf("-ir is not supported with -traj")
		}
		return runTraj(trajPath, trajWarm, trajOut, sys, cfg, sinks, out)
	}

	t0 := time.Now()
	res, err := core.ComputeRaman(sys, cfg)
	if err != nil {
		return err
	}
	st := res.Decomposition.Stats
	if st.Partitioner == "graph" {
		fmt.Fprintf(os.Stderr, "fragments[graph]: %d total (%d parts, %d cut bonds, %d bonded pairs, %d spatial pairs); sizes %d–%d atoms\n",
			st.TotalFragments, st.NumParts, st.NumCutBonds, st.NumBondedPairs, st.NumSpatialPairs,
			st.MinAtoms, st.MaxAtoms)
	} else {
		fmt.Fprintf(os.Stderr, "fragments: %d total (%d residue, %d concap, %d water, %d rr pairs, %d rw pairs, %d ww pairs); sizes %d–%d atoms\n",
			st.TotalFragments, st.NumResidueFragments, st.NumConcaps, st.NumWaterFragments,
			st.NumRRPairs, st.NumRWPairs, st.NumWWPairs, st.MinAtoms, st.MaxAtoms)
	}
	fmt.Fprintf(os.Stderr, "tasks: %d over %d leaders; elapsed %v\n",
		res.SchedReport.NumTasks, len(res.SchedReport.Leaders), time.Since(t0))
	if cstore != nil {
		rep := res.SchedReport
		fmt.Fprintf(os.Stderr, "cache: %d hits (%d resumed, %d deduped), %d misses",
			rep.CacheHits, rep.Resumed, rep.Deduped, rep.CacheMisses)
		if rep.StoreErrors > 0 {
			fmt.Fprintf(os.Stderr, ", %d store errors", rep.StoreErrors)
		}
		ss := cstore.Stats()
		fmt.Fprintf(os.Stderr, "; store: %d objects, %d bytes, %.2fx dedup\n",
			ss.Objects, ss.Bytes, ss.DedupRatio)
	}
	if clusterAddr != "" {
		rep := res.SchedReport
		fmt.Fprintf(os.Stderr, "cluster: %d unique fragments dispatched to %s; %d computed, %d tier hits, %d deduped in-run, %d reassigns\n",
			rep.NumTasks, clusterAddr, rep.CacheMisses, rep.Resumed, rep.Deduped, rep.Requeues)
	}
	if rep := res.SchedReport; rep.Retries > 0 || rep.Requeues > 0 || rep.Panics > 0 || rep.Degraded {
		fmt.Fprintf(os.Stderr, "faults: %d retries, %d straggler requeues, %d recovered panics\n",
			rep.Retries, rep.Requeues, rep.Panics)
		if rep.Degraded {
			fmt.Fprintf(os.Stderr, "DEGRADED RUN: fragments %v failed; their Eq. 1 terms are missing from the spectrum\n",
				rep.Failed)
		}
	}
	if sg := res.SchedReport.Stragglers; sg != nil {
		if err := sg.WriteText(os.Stderr); err != nil {
			return err
		}
	}
	if err := sinks.finish(); err != nil {
		return err
	}

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := writeSpectrumTSV(w, "# wavenumber_cm-1\traman_intensity", res.Spectrum); err != nil {
		return err
	}
	if irOut != "" {
		f, err := os.Create(irOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := writeSpectrumTSV(f, "# wavenumber_cm-1\tir_intensity", res.IRSpectrum); err != nil {
			return err
		}
	}
	return nil
}
