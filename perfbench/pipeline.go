package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qframan/internal/core"
	"qframan/internal/fragment"
	"qframan/internal/hessian"
	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/raman"
	"qframan/internal/sched"
	"qframan/internal/store"
	"qframan/internal/structure"
	"qframan/internal/traj"
)

// runner holds one workload's generated inputs and configuration.
type runner struct {
	w      workload
	frames []*structure.System
	cfg    core.Config
	tmp    string // parent directory of the per-pass stores
}

// prepare is the benchmark's set-up: generate the seeded inputs, build the
// configuration, and (for a trajectory) open a fresh store and make the
// engine ready. Each trajectory pass needs its own empty store, so the one
// made here only times that step and is discarded. prepare returns the
// time spent opening the store.
func prepare(w workload, seed int64, tmp string) (*runner, time.Duration, error) {
	frames, err := w.inputs(seed)
	if err != nil {
		return nil, 0, fmt.Errorf("generate inputs: %w", err)
	}
	r := &runner{w: w, frames: frames, cfg: w.config(), tmp: tmp}
	if !r.isTraj() {
		return r, 0, nil
	}
	t0 := time.Now()
	cfg, done, err := r.withStore()
	open := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	defer done()
	traj.New(traj.Options{Core: cfg, WarmStart: true})
	return r, open, nil
}

func (r *runner) isTraj() bool { return len(r.frames) > 1 }

func (r *runner) atoms() int { return r.frames[0].NumAtoms() }

// withStore returns the configuration with a fresh, empty store attached,
// and the function that closes and deletes it.
func (r *runner) withStore() (core.Config, func(), error) {
	dir, err := os.MkdirTemp(r.tmp, "store-")
	if err != nil {
		return core.Config{}, nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return core.Config{}, nil, fmt.Errorf("open store: %w", err)
	}
	cfg := r.cfg
	cfg.Sched.Cache = sched.CacheOptions{Store: st}
	return cfg, func() { st.Close(); os.RemoveAll(dir) }, nil
}

// pass is one complete run of the workload: every frame's spectrum and
// wall time.
type pass struct {
	spectra  []*raman.Spectrum
	frameS   []float64
	totalS   float64
	degraded int // frames whose scheduler dropped fragments
}

// timedPass runs the workload the way a user would: one core.ComputeRaman
// call, or every frame through one traj.Engine over a fresh store. Nothing
// is instrumented.
func (r *runner) timedPass() (*pass, error) {
	p := &pass{}
	if !r.isTraj() {
		t0 := time.Now()
		res, err := core.ComputeRaman(r.frames[0], r.cfg)
		d := time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		p.add(res.Spectrum, d, res.SchedReport.Degraded)
		p.totalS = d
		return p, nil
	}
	cfg, done, err := r.withStore()
	if err != nil {
		return nil, err
	}
	defer done()
	eng := traj.New(traj.Options{Core: cfg, WarmStart: true})
	t0 := time.Now()
	for _, sys := range r.frames {
		t := time.Now()
		res, err := eng.Step(sys)
		if err != nil {
			return nil, err
		}
		p.add(res.Spectrum, time.Since(t).Seconds(), res.Report.Degraded)
	}
	p.totalS = time.Since(t0).Seconds()
	return p, nil
}

func (p *pass) add(s *raman.Spectrum, d float64, degraded bool) {
	p.spectra = append(p.spectra, s)
	p.frameS = append(p.frameS, d)
	if degraded {
		p.degraded++
	}
}

// traced is one traced pass: the pass itself, the per-layer metrics it
// measured, the deterministic counters that must repeat exactly, and what
// the layer probe needs.
type traced struct {
	*pass
	layers   metricSet
	counters map[string]int64
	largest  *fragment.Fragment // largest fragment that went through the engine
	global   *hessian.Global    // last frame's assembly
}

// fragLog collects the fragment engine calls of one pass through the
// sched.Options.Process hook.
type fragLog struct {
	rec    *recorder
	parent atomic.Uint64

	mu      sync.Mutex
	calls   int
	disp    int // Σ 6n+1 over the calls
	largest *fragment.Fragment
}

func (l *fragLog) process(f *fragment.Fragment, opt sched.Options) (*hessian.FragmentData, error) {
	id := l.rec.id()
	t0 := time.Now()
	fd, err := sched.DefaultProcess(f, opt)
	l.rec.add(id, l.parent.Load(), "sched.process", t0, time.Now(), f.NumAtoms())
	l.mu.Lock()
	l.calls++
	l.disp += 6*f.NumAtoms() + 1
	if l.largest == nil || f.NumAtoms() > l.largest.NumAtoms() {
		c := *f
		l.largest = &c
	}
	l.mu.Unlock()
	return fd, err
}

// runStats samples the Go runtime around the fragment loop.
type runStats struct {
	alloc     uint64
	gcCPU     float64
	totalCPU  float64
	batchFl   int64
	batchMerg int64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRunStats() runStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	bs := linalg.GemmBatchStats()
	return runStats{
		alloc:     ms.TotalAlloc,
		gcCPU:     cpuSamples[0].Value.Float64(),
		totalCPU:  cpuSamples[1].Value.Float64(),
		batchFl:   bs.Flushes,
		batchMerg: bs.Merged,
	}
}

// stages is what one traced pass measured at the layer boundaries.
type stages struct {
	partitionS, schedS, assembleS, spectrumS float64
	reports                                  []*sched.Report
	frames                                   []traj.FrameReport
	before, after                            runStats // around the fragment loop
	store                                    store.Stats
}

// tracedPass rebuilds the pipeline from the layers' public entry points
// and records a span around each call: Partitioner.Partition → sched.Run →
// hessian.AssembleDegraded → core.SpectrumFromGlobal for a one-shot
// workload, traj.Engine.Step per frame for a trajectory. Every fragment
// engine call gets a span through sched.Options.Process. An obs.Registry
// and obs.Tracer ride along in sched.Options.Obs.
func (r *runner) tracedPass(rec *recorder, runID string) (*traced, error) {
	rec.beginRun(runID)
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	log := &fragLog{rec: rec}
	cfg := r.cfg
	cfg.Sched.Obs = obs.NewScope(tr, reg)
	cfg.Sched.Process = log.process
	out := &traced{pass: &pass{}}
	var st stages
	var err error
	if r.isTraj() {
		err = r.tracedTraj(rec, log, cfg, tr, out, &st)
	} else {
		err = r.tracedOneShot(rec, log, cfg, out, &st)
	}
	if err != nil {
		return nil, err
	}
	out.largest = log.largest
	out.layers = layerMetrics(&st, reg.Snapshot(), rec.durations(runID, "sched.process"), log, out.pass, cfg.Sched.NumLeaders)
	out.layers.set("hessian.nnz", float64(out.global.H.NNZ()), "count")
	out.counters = map[string]int64{}
	for _, name := range []string{
		"sched.frag_calls", "sched.cache_hits", "scf.solves", "scf.iters", "dfpt.cycles",
		"traj.rotated", "traj.reused", "traj.warm_started", "traj.ref_scf_iters", "hessian.nnz",
	} {
		out.counters[name] = int64(out.layers[name].Value)
	}
	for _, fr := range st.frames {
		out.counters["traj.recomputed"] += int64(fr.Recomputed)
	}
	return out, nil
}

func (r *runner) tracedOneShot(rec *recorder, log *fragLog, cfg core.Config, out *traced, st *stages) error {
	sys := r.frames[0]
	var err error
	root := rec.call(0, "workload", func(root uint64) {
		var dec *fragment.Decomposition
		st.partitionS = rec.call(root, "fragment.partition", func(uint64) {
			dec, err = fragment.QFPartitioner{Opt: cfg.Fragment}.Partition(sys)
		}).dur()
		if err != nil {
			return
		}
		var datas []*hessian.FragmentData
		var rep *sched.Report
		st.before = readRunStats()
		st.schedS = rec.call(root, "sched.run", func(id uint64) {
			log.parent.Store(id)
			datas, rep, err = sched.Run(dec, cfg.Sched)
		}).dur()
		st.after = readRunStats()
		if err != nil {
			return
		}
		st.reports = append(st.reports, rep)
		st.assembleS = rec.call(root, "hessian.assemble", func(uint64) {
			out.global, err = hessian.AssembleDegraded(dec, sys.Masses(), datas, true, rep.Failed)
		}).dur()
		if err != nil {
			return
		}
		var spec *raman.Spectrum
		st.spectrumS = rec.call(root, "core.spectrum", func(uint64) {
			spec, _, err = core.SpectrumFromGlobal(out.global, cfg)
		}).dur()
		if err == nil {
			out.add(spec, 0, rep.Degraded)
		}
	})
	if err != nil {
		return err
	}
	out.frameS[0] = root.dur()
	out.totalS = root.dur()
	return nil
}

func (r *runner) tracedTraj(rec *recorder, log *fragLog, cfg core.Config, tr *obs.Tracer, out *traced, st *stages) error {
	scfg, done, err := r.withStore()
	if err != nil {
		return err
	}
	defer done()
	cfg.Sched.Cache = scfg.Sched.Cache
	eng := traj.New(traj.Options{Core: cfg, WarmStart: true})
	st.before = readRunStats()
	root := rec.call(0, "workload", func(root uint64) {
		for _, sys := range r.frames {
			var res *traj.FrameResult
			s := rec.call(root, "traj.step", func(id uint64) {
				log.parent.Store(id)
				res, err = eng.Step(sys)
			})
			if err != nil {
				return
			}
			out.add(res.Spectrum, s.dur(), res.Report.Degraded)
			out.global = res.Global
			st.frames = append(st.frames, res.Report)
			if res.Sched != nil {
				st.reports = append(st.reports, res.Sched)
				st.schedS += res.Sched.Elapsed.Seconds()
			}
		}
	})
	st.after = readRunStats()
	if err != nil {
		return err
	}
	out.totalS = root.dur()
	// The engine's own spans time the stages inside Step.
	for _, s := range tr.Snapshot() {
		switch s.Name {
		case "traj.decompose":
			st.partitionS += s.Dur.Seconds()
		case "traj.assemble":
			st.assembleS += s.Dur.Seconds()
		case "traj.spectrum":
			st.spectrumS += s.Dur.Seconds()
		}
	}
	st.store = cfg.Sched.Cache.Store.Stats()
	return nil
}

// layerMetrics turns one traced pass's measurements into the per-layer
// metrics (all but the probe's and the run-level ones).
func layerMetrics(st *stages, snap obs.Snapshot, fragS []float64, log *fragLog, p *pass, leaders int) metricSet {
	L := metricSet{}
	L.set("fragment.partition_s", st.partitionS, "s")

	sort.Float64s(fragS)
	var sumFrag float64
	for _, d := range fragS {
		sumFrag += d
	}
	var hits, deduped, retries int
	for _, rep := range st.reports {
		hits += rep.CacheHits
		deduped += rep.Deduped
		retries += rep.Retries
	}
	L.set("sched.run_s", st.schedS, "s")
	L.set("sched.frag_s.p50", quantile(fragS, 0.5), "s")
	L.set("sched.frag_s.p90", quantile(fragS, 0.9), "s")
	L.set("sched.frag_calls", float64(log.calls), "count")
	L.set("sched.outside_s", st.schedS-sumFrag/float64(leaders), "s")
	L.set("sched.cache_hits", float64(hits), "count")
	L.set("sched.deduped", float64(deduped), "count")
	L.set("sched.retries", float64(retries), "count")

	L.set("scf.solves", float64(snap.Counters[obs.MetricSCFSolves]), "count")
	L.set("scf.iters", snap.Hists[obs.MetricSCFIterations].Sum, "count")
	L.set("dfpt.cycles", float64(snap.Counters[obs.MetricDFPTCycles]), "count")
	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		L.set("dfpt."+obs.PhaseNames[ph]+"_s", snap.Hists[obs.PhaseMetricName(ph)].Sum, "s")
	}
	L.set("hessian.alloc_bytes_per_disp", ratio(float64(st.after.alloc-st.before.alloc), float64(log.disp)), "B")
	L.set("hessian.gc_cpu_frac", ratio(st.after.gcCPU-st.before.gcCPU, st.after.totalCPU-st.before.totalCPU), "frac")
	flushes := st.after.batchFl - st.before.batchFl
	L.set("linalg.batch_flushes", float64(flushes), "count")
	L.set("linalg.batch_merge_frac", ratio(float64(st.after.batchMerg-st.before.batchMerg), float64(flushes)), "frac")

	gets, puts := snap.Hists[obs.MetricStoreGetSeconds], snap.Hists[obs.MetricStorePutSeconds]
	L.set("store.objects", float64(st.store.Objects), "count")
	L.set("store.bytes", float64(st.store.Bytes), "B")
	L.set("store.gets", float64(gets.Count), "count")
	L.set("store.puts", float64(puts.Count), "count")
	L.set("store.get_frac", ratio(gets.Sum, st.schedS), "frac")
	L.set("store.put_frac", ratio(puts.Sum, st.schedS), "frac")

	L.set("hessian.assemble_s", st.assembleS, "s")
	L.set("raman.spectrum_s", st.spectrumS, "s")

	var rotated, reused, warm, refIters, recomputed, warmFrags int
	for i, fr := range st.frames {
		rotated += fr.Rotated
		reused += fr.Reused
		warm += fr.WarmStarted
		refIters += fr.RefIters
		if i > 0 {
			recomputed += fr.Recomputed
			warmFrags += fr.Fragments
		}
	}
	L.set("traj.rotated", float64(rotated), "count")
	L.set("traj.reused", float64(reused), "count")
	L.set("traj.warm_started", float64(warm), "count")
	L.set("traj.ref_scf_iters", float64(refIters), "count")
	L.set("traj.recompute_frac", ratio(float64(recomputed), float64(warmFrags)), "frac")
	L.set("traj.warm_frame_frac", ratio(meanWarm(p.frameS), p.frameS[0]), "frac")
	return L
}

// meanWarm is the mean wall time of frames 1…F−1 (0 for a single frame).
func meanWarm(frameS []float64) float64 {
	if len(frameS) < 2 {
		return 0
	}
	var s float64
	for _, d := range frameS[1:] {
		s += d
	}
	return s / float64(len(frameS)-1)
}

// diffFrac times traj.Engine.Diff on its own, on a separate engine over the
// same frames, relative to the mean warm Step time of a traced pass.
func (r *runner) diffFrac(warmStepS float64) (float64, error) {
	if !r.isTraj() {
		return 0, nil
	}
	eng := traj.New(traj.Options{Core: r.cfg})
	var total float64
	for i, sys := range r.frames {
		t0 := time.Now()
		if _, err := eng.Diff(sys); err != nil {
			return 0, err
		}
		if i > 0 {
			total += time.Since(t0).Seconds()
		}
	}
	return ratio(total/float64(len(r.frames)-1), warmStepS), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
