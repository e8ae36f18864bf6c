// Command perfbench is the repository's benchmark. It generates one of a
// fixed set of workloads from a seed, runs it through the public pipeline
// API for a fixed wall-time budget, checks every spectrum against the
// workload's stored reference, and prints its metrics as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload peptide-ggg --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics of untraced passes.
// With --trace 1 it holds the per-layer metrics of traced passes, which
// record benchmark-owned spans around each layer call (written to
// .bench_build/perfbench at exit), plus the tracing overhead against
// untraced passes run alongside them. See perfbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"qframan/internal/fragment"
	"qframan/internal/par"
	"qframan/internal/raman"
)

// The set-up is timed in bursts of at least setupReps repetitions lasting
// at least setupBurst: one burst before the first pass and one before each
// timed pass, so the samples span the whole run. setup_s is their median,
// which stays steady even where one set-up takes microseconds.
const (
	setupReps  = 9
	setupBurst = 10 * time.Millisecond
)

// setupLog times repeated set-ups of one workload and seed.
type setupLog struct {
	w      workload
	seed   int64
	tmp    string
	setups []float64 // seconds per set-up; the first counts from process start
	opens  []float64 // seconds of each set-up spent opening the store
}

// burst runs one burst of set-ups and returns the last one's runner.
func (l *setupLog) burst(start time.Time) (*runner, error) {
	var r *runner
	for i := 0; i < setupReps || time.Since(start) < setupBurst; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = start
		}
		var open time.Duration
		var err error
		if r, open, err = prepare(l.w, l.seed, l.tmp); err != nil {
			return nil, err
		}
		l.setups = append(l.setups, time.Since(t0).Seconds())
		l.opens = append(l.opens, open.Seconds())
	}
	return r, nil
}

// outDir receives span and counter dumps and the per-pass stores.
var outDir = filepath.Join(".bench_build", "perfbench")

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced passes and per-layer metrics")
	updateRef := flag.Bool("update-ref", false, "regenerate the workload's reference spectrum at -seed and exit")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(start, *name, *seed, *seconds, *trace == 1, *updateRef); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(start time.Time, name string, seed int64, seconds float64, tracing, updateRef bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	leaders, workers := concurrency()
	if leaders*workers > runtime.NumCPU() {
		return fmt.Errorf("%d leaders × %d workers exceeds nproc %d", leaders, workers, runtime.NumCPU())
	}
	par.SetBudget(workers)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// The first set-up counts from process start.
	setup := &setupLog{w: w, seed: seed, tmp: tmp}
	r, err := setup.burst(start)
	if err != nil {
		return err
	}
	st := hostStamp(leaders, workers)

	if updateRef {
		p, err := r.timedPass()
		if err != nil {
			return err
		}
		return writeRef(w.name, seed, p.spectra)
	}
	ref, err := loadRef(w.name)
	if err != nil {
		return err
	}
	rss := startRSS()
	if rss == nil {
		return errors.New("cannot read /proc/self/statm")
	}
	defer rss.close()

	b := &bench{r: r, ref: ref, budget: seconds, rss: rss, setup: setup}
	res := result{Metrics: metricSet{}}
	if tracing {
		err = b.tracedRun(seed, res.Metrics)
		res.Metrics.set("store.open_frac", ratio(median(setup.opens), median(setup.setups)), "frac")
	} else {
		err = b.timedRun(res.Metrics)
		res.Metrics.set("setup_s", median(setup.setups), "s")
	}
	if err != nil {
		return err
	}
	if err := checkDeclared(res.Metrics, tracing); err != nil {
		return err
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0 && len(b.problems) == 0 && b.attempted > 0
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}

	info := map[string]any{
		"workload": w.name, "seed": seed, "atoms": r.atoms(), "frames": len(r.frames),
		"passes": b.passes, "setups": len(setup.setups), "host": st,
		"ref_sha256_match": b.shaMatch, "vmhwm_mb": peakRSSMB(),
	}
	if err := printJSON(info); err != nil {
		return err
	}
	return printJSON(res)
}

// bench runs passes within the time budget and keeps the correctness
// ledger.
type bench struct {
	r      *runner
	ref    *reference
	budget float64

	passes    int
	attempted int
	failed    int
	problems  []string
	first     []*raman.Spectrum // the first pass's spectra; every pass must match them
	shaMatch  bool
	minCosine float64

	rss     *rssSampler
	peakRSS []float64 // per untraced pass, MiB
	setup   *setupLog
}

// check gates one pass's spectra: each frame below the cosine floor, or
// degraded, counts as failed; a pass whose bits differ from the run's first
// pass is a determinism problem.
func (b *bench) check(p *pass, label string) {
	b.passes++
	b.attempted += len(b.r.frames)
	b.failed += p.degraded
	fmt.Fprintf(os.Stderr, "perfbench: %s %d: %.3fs\n", label, b.passes, p.totalS)
	if b.first == nil {
		b.first = p.spectra
		b.shaMatch = spectraSHA(p.spectra) == b.ref.SHA256
		b.minCosine = math.Inf(1)
	} else if !sameBits(b.first, p.spectra) {
		b.problems = append(b.problems, label+" spectrum bits differ from the first pass")
	}
	for i, c := range b.ref.cosines(p.spectra) {
		b.minCosine = math.Min(b.minCosine, c)
		if !(c >= cosineFloor) {
			b.failed++
			b.problems = append(b.problems, fmt.Sprintf("%s frame %d: cosine %.6f below floor %.2f", label, i, c, cosineFloor))
		}
	}
}

func (b *bench) fail(label string, err error) {
	b.passes++
	b.attempted += len(b.r.frames)
	b.failed += len(b.r.frames)
	b.problems = append(b.problems, fmt.Sprintf("%s: %v", label, err))
}

// more reports whether another pass of about the mean length so far still
// fits the budget (allowing a 10% overrun), so a run ends near it.
func (b *bench) more(t0 time.Time) bool {
	el := time.Since(t0).Seconds()
	return el+el/float64(b.passes) <= 1.1*b.budget
}

// untracedPass runs one timed pass from a returned heap, as a fresh
// process would start, and records its peak resident set.
func (b *bench) untracedPass(label string) *pass {
	debug.FreeOSMemory()
	b.rss.reset()
	p, err := b.r.timedPass()
	if err != nil {
		b.fail(label, err)
		return nil
	}
	b.peakRSS = append(b.peakRSS, b.rss.peakMB())
	b.check(p, label)
	return p
}

// timedRun repeats untraced passes for the budget and reports the
// end-to-end metrics as medians over passes.
func (b *bench) timedRun(M metricSet) error {
	var spec, rate []float64
	t0 := time.Now()
	for b.passes == 0 || b.more(t0) {
		if b.passes > 0 {
			debug.FreeOSMemory()
			if _, err := b.setup.burst(time.Now()); err != nil {
				return err
			}
		}
		p := b.untracedPass("timed pass")
		if p == nil {
			continue
		}
		spec = append(spec, p.frameS[0])
		rate = append(rate, float64(len(p.frameS)*b.r.atoms())/p.totalS)
	}
	if len(spec) == 0 {
		return errors.New("no pass completed")
	}
	M.set("spectrum_s", median(spec), "s")
	M.set("atoms_per_s", median(rate), "1/s")
	M.set("spectrum_cosine", b.minCosine, "cosine")
	return nil
}

// tracedRun alternates untraced and traced passes — at least two of each;
// the traced passes' deterministic counters must agree — then runs the
// layer probe twice. Per-layer metrics are medians over traced passes.
func (b *bench) tracedRun(seed int64, M metricSet) error {
	rec := newRecorder()
	var untraced, tracedS, warmS []float64
	var runs []*traced
	t0 := time.Now()
	// Passes run in ABBA order (untraced, traced, traced, untraced, ...), so
	// a drift in host speed cancels out of the overhead estimate.
	for i := 0; i < 4 || b.more(t0); i++ {
		if i%4 == 0 || i%4 == 3 {
			if p := b.untracedPass("untraced pass"); p != nil {
				untraced = append(untraced, p.totalS)
			}
			continue
		}
		debug.FreeOSMemory()
		t, err := b.r.tracedPass(rec, fmt.Sprintf("%s/seed%d/pass%d", b.r.w.name, seed, i))
		if err != nil {
			b.fail("traced pass", err)
			continue
		}
		b.check(t.pass, "traced pass")
		if len(runs) > 0 && !maps.Equal(runs[0].counters, t.counters) {
			b.problems = append(b.problems, fmt.Sprintf("traced counters differ: %v vs %v", runs[0].counters, t.counters))
		}
		runs = append(runs, t)
		tracedS = append(tracedS, t.totalS)
		warmS = append(warmS, meanWarm(t.frameS))
	}
	if len(runs) == 0 || len(untraced) == 0 {
		return errors.New("no traced or untraced pass completed")
	}
	for name := range runs[0].layers {
		vals := make([]float64, len(runs))
		for i, t := range runs {
			vals[i] = t.layers[name].Value
		}
		M.set(name, median(vals), runs[0].layers[name].Unit)
	}
	M.set("obs.trace_overhead_frac", median(tracedS)/median(untraced)-1, "frac")
	M.set("process.peak_rss_mb", median(b.peakRSS), "MiB")
	diff, err := b.r.diffFrac(median(warmS))
	if err != nil {
		return err
	}
	M.set("traj.diff_frac", diff, "frac")

	dec, err := fragment.QFPartitioner{Opt: b.r.cfg.Fragment}.Partition(b.r.frames[0])
	if err != nil {
		return err
	}
	maxAtoms, jobs := 0, 0
	for i := range dec.Fragments {
		n := dec.Fragments[i].NumAtoms()
		maxAtoms = max(maxAtoms, n)
		jobs += 6*n + 1
	}
	M.set("fragment.count", float64(len(dec.Fragments)), "count")
	M.set("fragment.max_atoms", float64(maxAtoms), "count")
	M.set("fragment.disp_jobs", float64(jobs), "count")

	// The probe runs twice; its counters must repeat exactly too.
	last := runs[len(runs)-1]
	var probes [2]metricSet
	for i := range probes {
		probes[i] = metricSet{}
		if err := probe(last.largest, last.global, b.r.cfg, probes[i]); err != nil {
			return err
		}
	}
	for name, m := range probes[0] {
		if m.Unit != "s" && m.Unit != "frac" && probes[1][name] != m {
			b.problems = append(b.problems, fmt.Sprintf("probe counter %s differs: %v vs %v", name, m.Value, probes[1][name].Value))
		}
		M.set(name, median([]float64{m.Value, probes[1][name].Value}), m.Unit)
	}

	counters := maps.Clone(last.counters)
	for name, m := range probes[0] {
		if m.Unit == "count" || m.Unit == "flop" {
			counters[name] = int64(m.Value)
		}
	}
	base := fmt.Sprintf("%s-seed%d", b.r.w.name, seed)
	if err := writeJSON(filepath.Join(outDir, "counters-"+base+".json"), counters); err != nil {
		return err
	}
	return rec.write(filepath.Join(outDir, "spans-"+base+".json"))
}

// checkDeclared verifies that a run reports exactly the metrics
// BENCHMARK.json declares for its mode, with the declared units.
func checkDeclared(M metricSet, tracing bool) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	decl := spec.EndToEnd
	if tracing {
		decl = spec.PerLayer
	}
	for _, d := range decl {
		m, ok := M[d.Name]
		if !ok || m.Unit != d.Unit {
			return fmt.Errorf("metric %s (%s) declared in BENCHMARK.json but reported as %+v", d.Name, d.Unit, m)
		}
	}
	if len(M) != len(decl) {
		return fmt.Errorf("%d metrics reported, %d declared in BENCHMARK.json", len(M), len(decl))
	}
	return nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates the q-quantile of sorted values (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
