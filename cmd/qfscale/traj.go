package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"qframan/internal/core"
	"qframan/internal/geom"
	"qframan/internal/sched"
	"qframan/internal/store"
	"qframan/internal/structure"
	"qframan/internal/traj"
)

// trajExp measures the incremental trajectory engine against the only
// honest baseline: independent cold per-frame runs, each against a fresh
// store (what a user without the engine would script). The workload is a
// perturbed 3×3×3 waterbox trajectory — frame to frame, a small minority of
// molecules jitter while the rest keep their coordinates bit-exactly, the
// paper's solvent-dynamics shape. The seed is chosen so every warm frame
// moves at least one molecule (the warm-start path runs every frame) while
// the moved set stays a minority. Results land in BENCH_traj.json.
func trajExp() error {
	fmt.Println("Incremental trajectory engine vs independent cold per-frame runs.")

	const nframes = 4
	base := structure.BuildWaterBox(3, 3, 3, geom.Vec3{})
	popt := structure.PerturbOptions{
		Frames: nframes, MoveFrac: 0.05, Jitter: 0.02, Seed: 4,
	}
	framesXYZ := structure.PerturbedTrajectory(base, popt)
	systems := make([]*structure.System, nframes)
	for i, fr := range framesXYZ {
		sys, err := structure.ApplyFrame(base, fr)
		if err != nil {
			return err
		}
		systems[i] = sys
	}
	cfg := core.DefaultConfig()
	cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = 50, 4000, 10
	cfg.Raman.Sigma = 20
	cfg.Raman.LanczosK = 80
	fmt.Printf("system: %d waters, %d atoms; %d frames, movefrac %.2f, jitter %.3f Å\n",
		len(base.Waters), base.NumAtoms(), nframes, popt.MoveFrac, popt.Jitter)

	// Independent seen-key simulation: the number of distinct new content
	// keys per frame is what the engine must recompute, exactly.
	seen := make(map[store.Key]bool)
	expectedNew := make([]int, nframes)
	for i, sys := range systems {
		dec, err := core.Partition(sys, cfg)
		if err != nil {
			return err
		}
		for j := range dec.Fragments {
			k, _ := store.Fingerprint(&dec.Fragments[j], cfg.Sched.Job)
			if !seen[k] {
				expectedNew[i]++
				seen[k] = true
			}
		}
	}

	// Baseline: every frame cold, in its own store.
	coldWall := make([]float64, nframes)
	coldHash := make([]string, nframes)
	fmt.Println("cold per-frame runs (fresh store each):")
	for i, sys := range systems {
		dir, err := os.MkdirTemp("", "qfscale-traj-cold-")
		if err != nil {
			return err
		}
		st, err := store.Open(dir)
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		c := cfg
		c.Sched.Cache = sched.CacheOptions{Store: st}
		t0 := time.Now()
		res, err := core.ComputeRaman(sys, c)
		coldWall[i] = time.Since(t0).Seconds()
		st.Close()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		coldHash[i] = spectrumHash(res.Spectrum.Intensity)
		fmt.Printf("  frame %d: %6.2fs (%d fragments, %d computed)\n",
			i, coldWall[i], len(res.Decomposition.Fragments), res.SchedReport.CacheMisses)
	}

	// Incremental warm run: one engine, one store, across all frames.
	dir, err := os.MkdirTemp("", "qfscale-traj-warm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	wcfg := cfg
	wcfg.Sched.Cache = sched.CacheOptions{Store: st}
	eng := traj.New(traj.Options{Core: wcfg, WarmStart: true})

	type frameRow struct {
		Frame        int     `json:"frame"`
		Fragments    int     `json:"fragments"`
		Moved        int     `json:"moved"`
		Rotated      int     `json:"rotated"`
		Reused       int     `json:"reused"`
		Recomputed   int     `json:"recomputed"`
		ExpectedNew  int     `json:"expected_new_keys"`
		WarmStarted  int     `json:"warm_started"`
		RefIters     int     `json:"ref_scf_iters"`
		WarmSeconds  float64 `json:"warm_seconds"`
		ColdSeconds  float64 `json:"cold_seconds"`
		Speedup      float64 `json:"speedup_vs_cold"`
		SpectrumHash string  `json:"spectrum_sha256"`
	}
	rows := make([]frameRow, 0, nframes)
	recomputeExact := true
	fmt.Println("incremental warm run (one store across frames):")
	for i, sys := range systems {
		t0 := time.Now()
		res, err := eng.Step(sys)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		r := res.Report
		if r.Recomputed != expectedNew[i] {
			recomputeExact = false
		}
		rows = append(rows, frameRow{
			Frame: i, Fragments: r.Fragments, Moved: r.Moved, Rotated: r.Rotated,
			Reused: r.Reused, Recomputed: r.Recomputed, ExpectedNew: expectedNew[i],
			WarmStarted: r.WarmStarted, RefIters: r.RefIters,
			WarmSeconds: round4(wall), ColdSeconds: round2(coldWall[i]),
			Speedup:      round2(coldWall[i] / wall),
			SpectrumHash: spectrumHash(res.Spectrum.Intensity),
		})
		fmt.Printf("  frame %d: %6.3fs  moved=%d rotated=%d reused=%d recomputed=%d (expected %d) warm=%d  -> %.1fx vs cold\n",
			i, wall, r.Moved, r.Rotated, r.Reused, r.Recomputed, expectedNew[i], r.WarmStarted, coldWall[i]/wall)
	}

	frame0Bit := rows[0].SpectrumHash == coldHash[0]
	minSpeedup := rows[1].Speedup
	for _, r := range rows[2:] {
		if r.Speedup < minSpeedup {
			minSpeedup = r.Speedup
		}
	}
	fmt.Printf("frame 0 bit-identical to cold run: %v\n", frame0Bit)
	fmt.Printf("warm frames 1..%d: minimum speedup %.1fx vs cold per-frame (criterion >= 5x); recompute == new unique keys on every frame: %v\n",
		nframes-1, minSpeedup, recomputeExact)

	doc := map[string]any{
		"description": "Incremental trajectory engine on a perturbed 3x3x3 waterbox (4 frames, ~5% of molecules jittered per frame): one engine and one content-addressed store across all frames, warm-starting moved fragments' reference SCF from their own previous frame, vs the baseline of independent cold per-frame runs each against a fresh store. Frame 0 of the incremental run must hash identically to the cold run (same code path, same store semantics); later frames recompute exactly the distinct new content keys and reuse everything else.",
		"date":        time.Now().Format("2006-01-02"),
		"host": map[string]any{
			"goos": runtime.GOOS, "goarch": runtime.GOARCH,
			"num_cpu": runtime.NumCPU(), "go": runtime.Version(),
		},
		"commands": []string{
			"go run ./cmd/qfscale -exp traj",
			"go run ./cmd/genstruct -kind traj -box 3x3x3 -frames 4 -seed 4 -movefrac 0.05 -topo top.txt -o traj.xyz  # same workload as files",
			"go run ./cmd/qframan -in top.txt -traj traj.xyz -traj-out frames -cache-dir cache  # CLI counterpart",
		},
		"results": map[string]any{
			"frames":                           rows,
			"cold_frame_hashes":                coldHash,
			"frame0_bit_identical":             frame0Bit,
			"recompute_equals_new_unique_keys": recomputeExact,
			"min_warm_speedup":                 minSpeedup,
		},
		"acceptance": fmt.Sprintf(
			"warm frames >= 5x faster than independent cold per-frame runs (measured min %.1fx); frame-0 spectrum bit-identical to one-shot (%v); per-frame recompute count == distinct new fingerprints (%v)",
			minSpeedup, frame0Bit, recomputeExact),
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_traj.json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("written: BENCH_traj.json")
	if minSpeedup < 5 {
		return fmt.Errorf("minimum warm speedup %.1fx is below the 5x acceptance criterion", minSpeedup)
	}
	if !frame0Bit || !recomputeExact {
		return fmt.Errorf("determinism criteria failed: frame0_bit_identical=%v recompute_exact=%v", frame0Bit, recomputeExact)
	}
	return nil
}
