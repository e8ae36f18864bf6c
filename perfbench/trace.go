package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one benchmark-owned trace record: a call into a layer's public
// entry point. All spans of one traced pass share Run.
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent"` // 0 = root
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder's epoch
	End    float64 `json:"end_s"`
	Atoms  int     `json:"atoms,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory; write dumps them once, at exit. It is
// safe for concurrent use (fragment spans close on leader goroutines).
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	next  uint64
	run   string
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// beginRun starts a new workload run: later spans carry its identifier.
func (r *recorder) beginRun(id string) {
	r.mu.Lock()
	r.run = id
	r.mu.Unlock()
}

// id reserves a span identifier, so a parent can be named before it ends.
func (r *recorder) id() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span under a reserved id.
func (r *recorder) add(id, parent uint64, name string, start, end time.Time, atoms int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := span{ID: id, Parent: parent, Run: r.run, Name: name,
		Start: start.Sub(r.epoch).Seconds(), End: end.Sub(r.epoch).Seconds(), Atoms: atoms}
	r.spans = append(r.spans, s)
	return s
}

// call runs fn inside a span named name and returns the span.
func (r *recorder) call(parent uint64, name string, fn func(id uint64)) span {
	id := r.id()
	t0 := time.Now()
	fn(id)
	return r.add(id, parent, name, t0, time.Now(), 0)
}

// durations returns the durations of the spans of one run with the given
// name, in recording order.
func (r *recorder) durations(run, name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Run == run && s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
