package core

import (
	"reflect"
	"testing"

	"qframan/internal/fragment"
	"qframan/internal/raman"
	"qframan/internal/structure"
)

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = 200, 4000, 10
	cfg.Raman.Sigma = 30
	cfg.Raman.LanczosK = 40
	return cfg
}

func TestComputeRamanWaterDimers(t *testing.T) {
	sys := structure.BuildWaterDimerSystem(2)
	res, err := ComputeRaman(sys, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Spectrum == nil || len(res.Spectrum.Intensity) == 0 {
		t.Fatal("no spectrum produced")
	}
	// The O–H stretch region must dominate a water spectrum.
	peakAt := func(s *raman.Spectrum) float64 {
		best, bestI := 0.0, 0.0
		for i, v := range s.Intensity {
			if v > bestI {
				bestI = v
				best = s.Freq[i]
			}
		}
		return best
	}
	p := peakAt(res.Spectrum)
	if p < 1500 || p > 3900 {
		t.Fatalf("spectrum peak at %v cm⁻¹ — expected a vibrational band", p)
	}
	if res.Global.H.Dim() != 3*sys.NumAtoms() {
		t.Fatalf("global Hessian dimension %d", res.Global.H.Dim())
	}
	if res.SchedReport == nil || res.SchedReport.NumTasks == 0 {
		t.Fatal("scheduler report missing")
	}
}

func TestQFMatchesDirectSmallPeptide(t *testing.T) {
	// End-to-end validation: the fragmented spectrum of a small peptide
	// must closely match the direct (unfragmented) spectrum — for both
	// partitioners. The graph engine's pipelines ride along here to reuse
	// the direct reference (measured: QF 0.999, graph 0.933 vs direct,
	// QF vs graph 0.931 — see EXPERIMENTS.md).
	if testing.Short() {
		t.Skip("direct comparison is expensive")
	}
	sys, err := structure.BuildProtein("GAG")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.UseDense = true

	// QF path: with 3 residues the decomposition is a single whole-chain
	// fragment, so force a finer fragmentation via 4 residues.
	sys4, err := structure.BuildProtein("GAGA")
	if err != nil {
		t.Fatal(err)
	}
	_ = sys
	resQF, err := ComputeRaman(sys4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resQF.Decomposition.Stats.NumConcaps == 0 {
		t.Fatal("expected a real fragmentation (with concaps)")
	}

	// Direct path: single fragment covering the whole chain.
	direct := directDecomposition(sys4)
	resDirect, err := ComputeRamanDecomposed(sys4, direct, cfg)
	if err != nil {
		t.Fatal(err)
	}

	sim := raman.CosineSimilarity(resQF.Spectrum, resDirect.Spectrum)
	if sim < 0.85 {
		t.Fatalf("QF vs direct spectrum cosine similarity %v", sim)
	}

	// Graph engine on the same straight chain: cutting mid-residue bonds
	// it chose itself, it must still track both the direct reference and
	// the QF spectrum.
	gOpt := fragment.DefaultGraphOptions()
	gOpt.TargetAtoms = 16
	cfg.Partitioner = fragment.GraphPartitioner{Opt: gOpt}
	resG, err := ComputeRaman(sys4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := resG.Decomposition.Stats; st.NumParts < 2 || st.NumCutBonds == 0 {
		t.Fatalf("graph path did not really fragment: %+v", st)
	}
	simGD := raman.CosineSimilarity(resG.Spectrum, resDirect.Spectrum)
	simGQ := raman.CosineSimilarity(resG.Spectrum, resQF.Spectrum)
	t.Logf("graph vs direct %v, graph vs QF %v", simGD, simGQ)
	if simGD < 0.85 {
		t.Fatalf("graph vs direct spectrum cosine similarity %v < 0.85 (EXPERIMENTS.md)", simGD)
	}
	if simGQ < 0.85 {
		t.Fatalf("graph vs QF spectrum cosine similarity %v < 0.85 (EXPERIMENTS.md)", simGQ)
	}
}

// directDecomposition wraps the whole system as one fragment.
func directDecomposition(sys *structure.System) *fragment.Decomposition {
	f := fragment.Fragment{NumReal: sys.NumAtoms(), Coeff: 1}
	f.Pos = sys.Positions()
	for _, a := range sys.Atoms {
		f.Els = append(f.Els, a.El)
	}
	for i := 0; i < sys.NumAtoms(); i++ {
		f.GlobalIdx = append(f.GlobalIdx, i)
	}
	d := &fragment.Decomposition{Fragments: []fragment.Fragment{f}}
	return d
}

func TestComputeRamanRejectsEmpty(t *testing.T) {
	sys := &structure.System{}
	if _, err := ComputeRaman(sys, DefaultConfig()); err == nil {
		t.Fatal("accepted empty system")
	}
}

func TestHessianOnlyRun(t *testing.T) {
	sys := structure.BuildWaterDimerSystem(1)
	cfg := fastConfig()
	cfg.Sched.Job.SkipAlpha = true
	res, err := ComputeRaman(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spectrum != nil {
		t.Fatal("Hessian-only run produced a spectrum")
	}
	if res.Global.H.NNZ() == 0 {
		t.Fatal("empty Hessian")
	}
}

// TestPartitionRule pins the one engine-selection rule every frontend
// shares: a set Partitioner wins; nil picks the graph engine at default
// options for generic-molecule systems and the QF engine otherwise.
func TestPartitionRule(t *testing.T) {
	cfg := DefaultConfig()
	dimer := structure.BuildWaterDimerSystem(1)
	melt := structure.BuildPolymerMelt(1, 4, 5)
	for _, tc := range []struct {
		name string
		sys  *structure.System
		part fragment.Partitioner
		want *fragment.Decomposition
	}{
		{"nil/water", dimer, nil, mustPartition(t, fragment.QFPartitioner{Opt: cfg.Fragment}, dimer)},
		{"nil/melt", melt, nil, mustPartition(t, fragment.GraphPartitioner{Opt: fragment.DefaultGraphOptions()}, melt)},
		{"graph/water", dimer, fragment.GraphPartitioner{Opt: fragment.DefaultGraphOptions()},
			mustPartition(t, fragment.GraphPartitioner{Opt: fragment.DefaultGraphOptions()}, dimer)},
	} {
		c := cfg
		c.Partitioner = tc.part
		got, err := Partition(tc.sys, c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: decomposition (%s, %d fragments) differs from the expected engine's (%s, %d fragments)",
				tc.name, got.Stats.Partitioner, len(got.Fragments), tc.want.Stats.Partitioner, len(tc.want.Fragments))
		}
	}
	cfg.Partitioner = fragment.QFPartitioner{Opt: cfg.Fragment}
	if _, err := Partition(melt, cfg); err == nil {
		t.Fatal("an explicit QF partitioner accepted a generic-molecule system")
	}
}

func mustPartition(t *testing.T, p fragment.Partitioner, sys *structure.System) *fragment.Decomposition {
	t.Helper()
	dec, err := p.Partition(sys)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}
