package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestGracefulDrainFinishesQueuedWork: Drain stops admission (503 +
// Retry-After) but completes every job already accepted — queued and
// running — before returning nil.
func TestGracefulDrainFinishesQueuedWork(t *testing.T) {
	block := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Runners: 1,
		Process: blockingEngine(block),
	})
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitOK(t, ts, SubmitRequest{Tenant: "t", System: SystemSpec{Kind: "dimers", N: 1}}).ID)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(time.Minute) }()

	// Admission must close promptly even while jobs are still blocked.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(`{"tenant":"t","system":{"kind":"dimers","n":1}}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		code := resp.StatusCode
		retryAfter := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			if retryAfter == "" {
				t.Fatal("503 during drain lacks Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions still accepted (status %d) after drain started", code)
		}
		time.Sleep(time.Millisecond)
	}

	close(block) // let the accepted jobs finish
	if err := <-drained; err != nil {
		t.Fatalf("graceful drain returned %v", err)
	}
	for _, id := range ids {
		if st := getStatus(t, ts, id, false); st.State != JobDone {
			t.Fatalf("job %s ended %q after graceful drain, want done", id, st.State)
		}
	}
}

// TestDrainGraceExpiryCancelsStragglers: when the grace period lapses,
// Drain cancels queued and running jobs, reports the forced shutdown, and
// still returns with the pool stopped.
func TestDrainGraceExpiryCancelsStragglers(t *testing.T) {
	block := make(chan struct{}) // never closed: jobs hang until cancelled
	defer close(block)
	s, ts := newTestServer(t, Config{
		Runners: 1,
		Process: blockingEngine(block),
	})
	running := submitOK(t, ts, SubmitRequest{Tenant: "t", System: SystemSpec{Kind: "dimers", N: 1}})
	queued := submitOK(t, ts, SubmitRequest{Tenant: "t", System: SystemSpec{Kind: "dimers", N: 1}})

	err := s.Drain(50 * time.Millisecond)
	if err == nil {
		t.Fatal("forced drain reported a graceful shutdown")
	}
	for _, id := range []string{running.ID, queued.ID} {
		if st := getStatus(t, ts, id, false); st.State != JobCancelled {
			t.Fatalf("job %s ended %q after forced drain, want cancelled", id, st.State)
		}
	}
}
