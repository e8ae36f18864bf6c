package serve

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qframan/internal/core"
	"qframan/internal/raman"
	"qframan/internal/structure"
	"qframan/internal/traj"
)

// TestFrontendConformance feeds one structure text through every in-process
// frontend — core.ComputeRaman, a qfserve text job, and traj.Engine frame 0
// — dense and with no store, and requires byte-identical spectra. The
// engine is never named: core.Partition's input rule picks QF for the water
// dimer and the graph engine for the polymer melt, for every frontend.
func TestFrontendConformance(t *testing.T) {
	for _, tc := range []struct {
		name        string
		sys         *structure.System
		partitioner string
	}{
		{"water-dimer", structure.BuildWaterDimerSystem(1), "qf"},
		{"polymer-melt", structure.BuildPolymerMelt(1, 3, 5), "graph"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.partitioner == "graph" {
				t.Skip("dense 24-atom fragment")
			}
			var text strings.Builder
			if err := tc.sys.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			// Every frontend sees the geometry the text format carries.
			sys, err := structure.ReadSystem(strings.NewReader(text.String()))
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.UseDense = true

			want, err := core.ComputeRaman(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := want.Decomposition.Stats.Partitioner; got != tc.partitioner {
				t.Fatalf("input rule picked %q, want %q", got, tc.partitioner)
			}

			frame, err := traj.New(traj.Options{Core: cfg}).Step(sys)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, "traj frame 0", frame.Spectrum, want.Spectrum)

			s := New(Config{Runners: 1})
			ts := httptest.NewServer(s.Handler())
			defer func() { ts.Close(); s.Close() }()
			sr := submitOK(t, ts, SubmitRequest{
				Tenant:   "conformance",
				System:   SystemSpec{Kind: "text", Text: text.String()},
				Spectrum: SpectrumSpec{Dense: true},
			})
			if st := waitState(t, ts, sr.ID, 2*time.Minute); st.State != JobDone {
				t.Fatalf("qfserve job %q (%s)", st.State, st.Error)
			}
			st := getStatus(t, ts, sr.ID, true)
			if st.Report.Fragments != len(want.Decomposition.Fragments) {
				t.Fatalf("qfserve job ran %d fragments, core %d", st.Report.Fragments, len(want.Decomposition.Fragments))
			}
			requireSameBits(t, "qfserve job", &raman.Spectrum{Freq: st.Spectrum.Freq, Intensity: st.Spectrum.Intensity}, want.Spectrum)
		})
	}
}

// requireSameBits fails unless got matches want to the last bit.
func requireSameBits(t *testing.T, what string, got, want *raman.Spectrum) {
	t.Helper()
	if len(got.Freq) != len(want.Freq) || len(got.Intensity) != len(want.Intensity) {
		t.Fatalf("%s: %d/%d samples, want %d/%d", what, len(got.Freq), len(got.Intensity), len(want.Freq), len(want.Intensity))
	}
	for i := range want.Freq {
		if math.Float64bits(got.Freq[i]) != math.Float64bits(want.Freq[i]) ||
			math.Float64bits(got.Intensity[i]) != math.Float64bits(want.Intensity[i]) {
			t.Fatalf("%s: sample %d is (%v, %v), want (%v, %v)", what, i, got.Freq[i], got.Intensity[i], want.Freq[i], want.Intensity[i])
		}
	}
}
