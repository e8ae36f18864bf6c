package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qframan/internal/fragment"
	"qframan/internal/hessian"
	"qframan/internal/sched"
)

// TestBackpressureBurstGets429: a burst far beyond the queue bound is shed
// with 429 + Retry-After while admitted jobs survive; once the engine
// unblocks, the queue drains completely and capacity is reusable. This is
// the bounded-memory story: reject at the front door instead of queueing
// until the kernel OOM-kills the daemon.
func TestBackpressureBurstGets429(t *testing.T) {
	block := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Runners:            1,
		MaxQueuedJobs:      3,
		MaxQueuedPerTenant: 3,
		RetryAfter:         7 * time.Second,
		Process:            blockingEngine(block),
	})

	const burst = 20
	var mu sync.Mutex
	var accepted []string
	rejected := 0
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJob(t, ts, SubmitRequest{Tenant: "burst", System: SystemSpec{Kind: "dimers", N: 1}})
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				var sr SubmitResponse
				json.NewDecoder(resp.Body).Decode(&sr)
				mu.Lock()
				accepted = append(accepted, sr.ID)
				mu.Unlock()
			case http.StatusTooManyRequests:
				if ra := resp.Header.Get("Retry-After"); ra != "7" {
					t.Errorf("429 Retry-After = %q, want \"7\"", ra)
				}
				io.Copy(io.Discard, resp.Body)
				mu.Lock()
				rejected++
				mu.Unlock()
			default:
				t.Errorf("burst submit got status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	// At most 1 running + 3 queued can be in the system; everything else
	// must have been shed.
	if len(accepted) < 3 || len(accepted) > 4 {
		t.Fatalf("burst of %d admitted %d jobs with queue bound 3 (+1 running)", burst, len(accepted))
	}
	if rejected != burst-len(accepted) {
		t.Fatalf("accepted %d + rejected %d ≠ burst %d", len(accepted), rejected, burst)
	}

	// Unblock: every admitted job completes, none fails.
	close(block)
	for _, id := range accepted {
		if st := waitState(t, ts, id, 10*time.Second); st.State != JobDone {
			t.Fatalf("admitted job %s ended %q (%s)", id, st.State, st.Error)
		}
	}

	// The queue drained: capacity is available again.
	submitOK(t, ts, SubmitRequest{Tenant: "burst", System: SystemSpec{Kind: "dimers", N: 1}})
	s.mu.Lock()
	depth := s.queue.depth()
	s.mu.Unlock()
	if depth > 1 {
		t.Fatalf("queue depth %d after drain + 1 submit", depth)
	}
}

// TestBackpressurePerTenantBound: one tenant exhausting its own slice
// cannot consume the whole queue — another tenant still gets in.
func TestBackpressurePerTenantBound(t *testing.T) {
	block := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Runners:            1,
		MaxQueuedJobs:      10,
		MaxQueuedPerTenant: 2,
		Process:            blockingEngine(block),
	})
	defer close(block)

	// First occupies the runner; two more fill hog's queue slice.
	for i := 0; i < 3; i++ {
		submitOK(t, ts, SubmitRequest{Tenant: "hog", System: SystemSpec{Kind: "dimers", N: 1}})
	}
	resp := postJob(t, ts, SubmitRequest{Tenant: "hog", System: SystemSpec{Kind: "dimers", N: 1}})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hog's 4th job got %d, want 429", resp.StatusCode)
	}
	// The other tenant is unaffected.
	submitOK(t, ts, SubmitRequest{Tenant: "guest", System: SystemSpec{Kind: "dimers", N: 1}})
}

// TestInflightFragmentGate: across concurrently running jobs, the number
// of fragment attempts inside the engine never exceeds
// MaxInflightFragments — the service-wide valve in front of the kernel
// token budget.
func TestInflightFragmentGate(t *testing.T) {
	const gate = 2
	var inFlight, peak atomic.Int64
	engine := func(f *fragment.Fragment, opt sched.Options) (*hessian.FragmentData, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return fakeData(f), nil
	}
	_, ts := newTestServer(t, Config{
		Runners:              4,
		NumLeaders:           2,
		MaxInflightFragments: gate,
		Process:              engine,
	})
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, submitOK(t, ts, SubmitRequest{Tenant: "t", System: SystemSpec{Kind: "dimers", N: 3}}).ID)
	}
	for _, id := range ids {
		if st := waitState(t, ts, id, 30*time.Second); st.State != JobDone {
			t.Fatalf("job %s: %q (%s)", id, st.State, st.Error)
		}
	}
	if p := peak.Load(); p > gate {
		t.Fatalf("observed %d concurrent fragment attempts, gate is %d", p, gate)
	}
	if p := peak.Load(); p == 0 {
		t.Fatal("engine never ran")
	}
}
