package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"qframan/internal/par"
)

// stamp records the host and configuration a result was measured on.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Leaders    int    `json:"leaders"`
	Workers    int    `json:"workers_per_leader"`
	ParBudget  int    `json:"par_budget"`
}

func hostStamp(leaders, workers int) stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Leaders:    leaders,
		Workers:    workers,
		ParBudget:  par.Budget(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// rssSampler tracks the peak resident set between resets by sampling
// /proc/self/statm every few milliseconds on one goroutine.
type rssSampler struct {
	f    *os.File
	page int64
	stop chan struct{}
	done chan struct{}
	peak atomic.Int64 // bytes
}

const rssEvery = 5 * time.Millisecond

// startRSS starts the sampler; it returns nil where statm is unreadable.
func startRSS() *rssSampler {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil
	}
	s := &rssSampler{f: f, page: int64(os.Getpagesize()), stop: make(chan struct{}), done: make(chan struct{})}
	s.reset()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) rss() int64 {
	var buf [128]byte
	n, _ := s.f.ReadAt(buf[:], 0)
	fields := strings.Fields(string(buf[:n]))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(fields[1], 10, 64)
	return pages * s.page
}

func (s *rssSampler) sample() {
	v := s.rss()
	for {
		old := s.peak.Load()
		if v <= old || s.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset restarts the peak at the current resident set.
func (s *rssSampler) reset() { s.peak.Store(s.rss()) }

// peakMB returns the peak since the last reset, in MiB.
func (s *rssSampler) peakMB() float64 {
	s.sample()
	return float64(s.peak.Load()) / (1 << 20)
}

// close stops the sampling goroutine and waits for it to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
	s.f.Close()
}
