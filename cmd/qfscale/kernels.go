package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"qframan/internal/core"
	"qframan/internal/dfpt"
	"qframan/internal/geom"
	"qframan/internal/par"
	"qframan/internal/structure"
)

// pr4Baseline is the committed PR 4/7 result this experiment is paired
// against (BENCH_kernels.json before the blocked-kernel/batching rework):
// the acceptance criterion is a ≥1.5× reduction of the modeled 8-wide
// end-to-end time on the identical workload and methodology.
var pr4Baseline = struct {
	wallSerial  float64
	width8Total float64
	width8Spdup float64
}{wallSerial: 2194.17, width8Total: 848.77, width8Spdup: 2.59}

// kernels runs the intra-fragment kernel-scaling experiment: the waterbox
// workload end-to-end in the paper's real-space grid pipeline, fragment-level
// concurrency pinned to one leader × one worker so the only parallelism in
// play is the internal/par kernel pool. Per-chunk kernel timings are captured
// with par.StartProfile (kernels run serially, each chunk timed) and replayed
// through a work-conserving w-worker model at widths 1/2/4/8 — the same
// measure-small/model-large methodology as the simhpc scale experiments,
// needed because the results must be reproducible on hosts with fewer cores
// than the modeled width. Results land in BENCH_kernels.json.
func kernels() error {
	fmt.Println("Intra-fragment kernel scaling (internal/par) on the waterbox workload.")
	fmt.Println("Grid-mode DFPT (the paper's §V-A real-space pipeline), 1 leader × 1 worker.")

	sys := structure.BuildWaterBox(2, 2, 2, geom.Vec3{})
	cfg := core.DefaultConfig()
	cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = 50, 4000, 5
	cfg.Raman.Sigma = 20
	cfg.Raman.LanczosK = 120
	cfg.Sched.NumLeaders = 1
	cfg.Sched.WorkersPerLeader = 1
	cfg.Sched.Job.DFPT.Coulomb = dfpt.GridCoulomb
	cfg.Sched.Job.DFPT.GridSpacing = 0.5 // production-resolution real-space grid
	cfg.Sched.Job.DFPT.GridMargin = 5.0

	fmt.Printf("system: %d water molecules, %d atoms\n", len(sys.Waters), sys.NumAtoms())

	// Captured run: every par region executes serially with per-chunk
	// timing, so wall IS the serial (width-1) end-to-end time.
	prof := par.StartProfile()
	t0 := time.Now()
	res, err := core.ComputeRaman(sys, cfg)
	wall := time.Since(t0).Seconds()
	par.StopProfile()
	if err != nil {
		return err
	}
	st := res.Decomposition.Stats
	fmt.Printf("fragments: %d one-body + %d pairs; serial wall %.1fs\n",
		st.NumWaterFragments, st.NumWWPairs, wall)
	specHash := spectrumHash(res.Spectrum.Intensity)
	fmt.Printf("spectrum sha256: %s\n", specHash)

	kernelSerial := prof.SerialSeconds()
	frac := kernelSerial / wall
	fmt.Printf("kernel regions: %d jobs, %d chunks, %.1fs serial (%.0f%% of wall)\n",
		prof.Jobs(), prof.Chunks(), kernelSerial, 100*frac)

	byKernel := prof.ByKernel()
	byChunks := prof.ChunksByKernel()
	names := make([]string, 0, len(byKernel))
	for k := range byKernel {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return byKernel[names[i]] > byKernel[names[j]] })
	fmt.Println("per-kernel serial seconds:")
	for _, k := range names {
		fmt.Printf("  %-16s %10.4fs  (%4.1f%% of kernel time, %d chunks)\n",
			k, byKernel[k], 100*byKernel[k]/kernelSerial, byChunks[k])
	}

	type widthRow struct {
		Width         int     `json:"width"`
		KernelSeconds float64 `json:"kernel_seconds"`
		TotalSeconds  float64 `json:"total_seconds"`
		Speedup       float64 `json:"speedup_end_to_end"`
		SpeedupKernel float64 `json:"speedup_kernel_only"`
	}
	widths := []int{1, 2, 4, 8}
	rows := make([]widthRow, 0, len(widths))
	fmt.Println("modeled end-to-end (LPT replay of measured chunks, serial phases unchanged):")
	for _, w := range widths {
		kw := prof.Replay(w)
		total := wall - kernelSerial + kw
		rows = append(rows, widthRow{
			Width:         w,
			KernelSeconds: round2(kw),
			TotalSeconds:  round2(total),
			Speedup:       round2(wall / total),
			SpeedupKernel: round2(kernelSerial / kw),
		})
		fmt.Printf("  width %d: kernels %7.2fs  total %7.2fs  speedup %.2fx (kernel-only %.2fx)\n",
			w, kw, total, wall/total, kernelSerial/kw)
	}
	w8total := rows[len(rows)-1].TotalSeconds
	improvement := pr4Baseline.width8Total / w8total
	fmt.Printf("paired vs PR 4 baseline: width-8 total %.2fs vs %.2fs -> %.2fx improvement (criterion >= 1.5x)\n",
		w8total, pr4Baseline.width8Total, improvement)

	// Width parity: a small grid-mode system computed across kernel widths
	// must hash identically — the live counterpart of the modeled numbers
	// above, proving the speedups never bought a bit of divergence.
	parityHashes, parityOK, err := widthParity()
	if err != nil {
		return err
	}
	fmt.Printf("width parity (dimer, widths 1/3/8): ok=%v hash=%s\n",
		parityOK, parityHashes[0])

	kernelJSON := make(map[string]float64, len(byKernel))
	for k, v := range byKernel {
		kernelJSON[k] = round4(v)
	}
	doc := map[string]any{
		"description": "Intra-fragment kernel scaling (internal/par): 2x2x2 water box end-to-end in grid-mode DFPT (GridCoulomb, production-resolution 0.5 bohr grid), fragment concurrency pinned to 1 leader x 1 worker so serial-vs-parallel deltas isolate the kernel pool. Serial wall is measured with per-chunk profile capture; widths 2/4/8 are modeled by LPT replay of the measured chunks (work-conserving pool), the same measure-small/model-large methodology as the simhpc experiments. Paired against the committed PR 4 baseline on the identical workload.",
		"date":        time.Now().Format("2006-01-02"),
		"host": map[string]any{
			"goos": runtime.GOOS, "goarch": runtime.GOARCH,
			"num_cpu": runtime.NumCPU(), "go": runtime.Version(),
		},
		"commands": []string{
			"go run ./cmd/qfscale -exp kernels",
			"QF_KERNEL_THREADS=1 go run ./examples/waterbox   # live paired serial run",
			"QF_KERNEL_THREADS=8 go run ./examples/waterbox   # live paired run on an 8-core host",
		},
		"baseline_pr4": map[string]any{
			"wall_serial_seconds":  pr4Baseline.wallSerial,
			"width8_total_seconds": pr4Baseline.width8Total,
			"width8_speedup":       pr4Baseline.width8Spdup,
		},
		"results": map[string]any{
			"wall_serial_seconds":       round2(wall),
			"kernel_serial_seconds":     round2(kernelSerial),
			"kernel_fraction":           round2(frac),
			"kernel_jobs":               prof.Jobs(),
			"kernel_chunks":             prof.Chunks(),
			"by_kernel_seconds":         kernelJSON,
			"by_kernel_chunks":          byChunks,
			"widths":                    rows,
			"spectrum_sha256":           specHash,
			"improvement_vs_pr4_width8": round2(improvement),
			"parity": map[string]any{
				"ok":     parityOK,
				"hashes": parityHashes,
			},
		},
		"acceptance": fmt.Sprintf(
			"8 kernel threads vs serial at equal fragment concurrency: %.2fx end-to-end; %.2fx faster than the PR 4 width-8 baseline (criterion >= 1.5x); parity ok=%v",
			wall/w8total, improvement, parityOK),
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_kernels.json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("written: BENCH_kernels.json")
	return nil
}

// spectrumHash hashes a spectrum's intensity bits.
func spectrumHash(intensity []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range intensity {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// widthParity runs a small grid-mode spectrum at kernel widths 1/3/8,
// returning every run's spectrum hash and whether they all agree.
func widthParity() ([]string, bool, error) {
	defer par.SetBudget(0)
	sys := structure.BuildWaterDimerSystem(1)
	var hashes []string
	for _, w := range []int{1, 3, 8} {
		par.SetBudget(w)
		cfg := core.DefaultConfig()
		cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = 200, 4000, 10
		cfg.Sched.NumLeaders = 1
		cfg.Sched.WorkersPerLeader = 1
		cfg.Sched.Job.DFPT.Coulomb = dfpt.GridCoulomb
		cfg.Sched.Job.DFPT.GridSpacing = 0.8
		cfg.Sched.Job.DFPT.GridMargin = 4.0
		res, err := core.ComputeRaman(sys, cfg)
		if err != nil {
			return nil, false, fmt.Errorf("parity width %d: %w", w, err)
		}
		hashes = append(hashes, spectrumHash(res.Spectrum.Intensity))
	}
	ok := true
	for _, h := range hashes[1:] {
		if h != hashes[0] {
			ok = false
		}
	}
	return hashes, ok, nil
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }

func round4(x float64) float64 { return float64(int64(x*10000+0.5)) / 10000 }
