package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"qframan/internal/fragment"
	"qframan/internal/hessian"
	"qframan/internal/linalg"
	"qframan/internal/sched"
	"qframan/internal/store"
)

// fakeData is a deterministic, correctly-sized synthetic payload: a
// symmetric 3N×3N Hessian plus ∂α and ∂μ vectors whose entries depend only
// on the index pattern, so identical-geometry fragments produce identical
// data (consistent with dedup), the store's canonical-frame roundtrip has
// real dimensions to rotate, and jobs run the full production path through
// assembly and spectrum. (A 1×1 stub would fail every checkpoint Put on
// non-degenerate geometries.)
func fakeData(f *fragment.Fragment) *hessian.FragmentData {
	n := 3 * f.NumAtoms()
	h := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := float64((i*31+j*17)%97) / 97
			h.Set(i, j, v)
			h.Set(j, i, v)
		}
	}
	fd := &hessian.FragmentData{Hess: h}
	for c := range fd.DAlpha {
		fd.DAlpha[c] = make([]float64, n)
		for i := range fd.DAlpha[c] {
			fd.DAlpha[c][i] = float64((i*13+c*7)%23) / 23
		}
	}
	for k := range fd.DDipole {
		fd.DDipole[k] = make([]float64, n)
		for i := range fd.DDipole[k] {
			fd.DDipole[k][i] = float64((i*11+k*5)%19) / 19
		}
	}
	return fd
}

// fakeEngine is an instant fake Process.
func fakeEngine(f *fragment.Fragment, _ sched.Options) (*hessian.FragmentData, error) {
	return fakeData(f), nil
}

// blockingEngine holds every fragment until release closes — or the job is
// cancelled, which the engine honors through opt.Cancel like a well-behaved
// backend — then returns the fake payload.
func blockingEngine(release <-chan struct{}) sched.ProcessFunc {
	return func(f *fragment.Fragment, opt sched.Options) (*hessian.FragmentData, error) {
		select {
		case <-release:
		case <-opt.Cancel:
			return nil, sched.ErrCancelled
		}
		return fakeData(f), nil
	}
}

// openStore opens a store in a test directory.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// newTestServer builds a server (fake engine unless cfg.Process is set)
// plus its httptest frontend.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Process == nil {
		cfg.Process = fakeEngine
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// waterText renders a single-water system in the text structure format with
// O–H bond length d (Å) and the oxygen at (x0, 0, 0). Distinct d values
// produce distinct content-addressed keys; distinct x0 values do NOT (the
// fingerprint is rigid-motion canonical), which several tests rely on.
func waterText(d, x0 float64) string {
	return fmt.Sprintf(
		"ATOM 0 OW O HOH 1 0 %.6f 0 0\nATOM 1 HW1 H HOH 1 0 %.6f 0 0\nATOM 2 HW2 H HOH 1 0 %.6f %.6f 0\n",
		x0, x0+d, x0-0.250380*d, 0.968148*d)
}

// submitBody marshals a SubmitRequest.
func submitBody(t *testing.T, req SubmitRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postJob submits over HTTP and returns the response.
func postJob(t *testing.T, ts *httptest.Server, req SubmitRequest) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(submitBody(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// submitOK submits and decodes the 202 body.
func submitOK(t *testing.T, ts *httptest.Server, req SubmitRequest) SubmitResponse {
	t.Helper()
	resp := postJob(t, ts, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, e.Error)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// getStatus fetches GET /jobs/{id}.
func getStatus(t *testing.T, ts *httptest.Server, id string, spectrum bool) Status {
	t.Helper()
	url := ts.URL + "/jobs/" + id
	if spectrum {
		url += "?spectrum=1"
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: status %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches a terminal state and returns it.
func waitState(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, ts, id, false)
		switch st.State {
		case JobDone, JobFailed, JobCancelled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q after %v", id, st.State, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
