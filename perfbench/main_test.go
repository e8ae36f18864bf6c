package main

import (
	"math"
	"testing"

	"qframan/internal/geom"
	"qframan/internal/raman"
	"qframan/internal/structure"
)

// gateBench returns a one-frame bench whose reference is a synthetic
// two-peak spectrum, and that spectrum.
func gateBench() (*bench, *raman.Spectrum) {
	spec := &raman.Spectrum{Intensity: make([]float64, 2000)}
	for i := range spec.Intensity {
		x := float64(i)
		spec.Intensity[i] = math.Exp(-(x-800)*(x-800)/50) + 0.5*math.Exp(-(x-1500)*(x-1500)/50)
	}
	ref := &reference{Frames: [][]float64{spec.Intensity}, SHA256: spectraSHA([]*raman.Spectrum{spec})}
	b := &bench{r: &runner{frames: []*structure.System{{}}}, ref: ref}
	return b, spec
}

func TestGateAcceptsReferenceSpectrum(t *testing.T) {
	b, spec := gateBench()
	b.check(&pass{spectra: []*raman.Spectrum{spec}}, "pass")
	if b.failed != 0 || len(b.problems) != 0 || !b.shaMatch {
		t.Fatalf("reference spectrum rejected: failed=%d problems=%v sha=%v", b.failed, b.problems, b.shaMatch)
	}
}

func TestGateRejectsPerturbedSpectrum(t *testing.T) {
	b, spec := gateBench()
	// Shift every peak by 6 cm⁻¹ bins: the shape a broken Hessian or
	// polarizability derivative produces.
	shifted := &raman.Spectrum{Intensity: make([]float64, len(spec.Intensity))}
	copy(shifted.Intensity[6:], spec.Intensity)
	b.check(&pass{spectra: []*raman.Spectrum{shifted}}, "pass")
	if b.failed != 1 || len(b.problems) == 0 {
		t.Fatalf("perturbed spectrum passed the gate: failed=%d cosine=%v", b.failed, b.minCosine)
	}
	if b.shaMatch {
		t.Fatal("perturbed spectrum matched the reference hash")
	}
}

func TestGateRejectsBitDrift(t *testing.T) {
	b, spec := gateBench()
	b.check(&pass{spectra: []*raman.Spectrum{spec}}, "first")
	drift := &raman.Spectrum{Intensity: append([]float64(nil), spec.Intensity...)}
	drift.Intensity[800] = math.Nextafter(drift.Intensity[800], 2)
	b.check(&pass{spectra: []*raman.Spectrum{drift}}, "second")
	if b.failed != 0 {
		t.Fatalf("a one-ulp change failed the cosine gate")
	}
	if len(b.problems) != 1 {
		t.Fatalf("a pass differing in one bit from the first was not reported: %v", b.problems)
	}
}

func TestGateCountsDegradedFrames(t *testing.T) {
	b, spec := gateBench()
	b.check(&pass{spectra: []*raman.Spectrum{spec}, degraded: 1}, "pass")
	if b.failed != 1 {
		t.Fatalf("degraded frame not counted as failed: failed=%d", b.failed)
	}
}

func TestRigidMotionsAreProperRotations(t *testing.T) {
	seen := map[[3]geom.Vec3]bool{}
	for seed := int64(0); seed < 500; seed++ {
		m := newRigidMotion(seed)
		m.shift = [3]float64{}
		sys := &structure.System{Atoms: []structure.Atom{{Pos: geom.V(1, 0, 0)}, {Pos: geom.V(0, 1, 0)}, {Pos: geom.V(0, 0, 1)}}}
		m.apply(sys)
		x, y, z := sys.Atoms[0].Pos, sys.Atoms[1].Pos, sys.Atoms[2].Pos
		if det := x.Dot(y.Cross(z)); det != 1 {
			t.Fatalf("seed %d: rigid motion has determinant %v", seed, det)
		}
		seen[[3]geom.Vec3{x, y, z}] = true
	}
	if len(seen) != 24 {
		t.Fatalf("seeds reach %d of the 24 axis rotations", len(seen))
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if got := quantile(v, 0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if got := quantile(nil, 0.9); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestSeedsMoveInputsRigidly(t *testing.T) {
	for _, w := range workloads {
		a, err := w.inputs(defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := w.inputs(defaultSeed)
		other, _ := w.inputs(heldOutSeed)
		if len(a) != len(other) || a[0].NumAtoms() != other[0].NumAtoms() {
			t.Fatalf("%s: seeds change the input size", w.name)
		}
		p, q, r := a[0].Positions(), again[0].Positions(), other[0].Positions()
		if p[0] != q[0] {
			t.Fatalf("%s: the same seed gave different inputs", w.name)
		}
		if p[0] == r[0] {
			t.Fatalf("%s: different seeds gave the same input", w.name)
		}
		// Rigid motion keeps every interatomic distance, in every frame.
		for f := range a {
			p, r := a[f].Positions(), other[f].Positions()
			for i := 1; i < len(p); i++ {
				if d := math.Abs(p[0].Dist(p[i]) - r[0].Dist(r[i])); d > 1e-9 {
					t.Fatalf("%s frame %d: seed changed distance 0-%d by %g Å", w.name, f, i, d)
				}
			}
		}
	}
}
