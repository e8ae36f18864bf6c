// Package accel implements the paper's elastic workload offloading (§V-C,
// Fig. 5). The DFPT grid phases emit thousands of tiny GEMMs, each far too
// short to amortize an accelerator launch; the BatchingExecutor pads their
// shapes to a stride, groups calls of identical padded shape (i.e. similar
// computational strength) into batched workloads, and offloads a batch only
// when it is profitable under the device's cost model — otherwise the batch
// stays on the host. Devices are simulated: numerics always execute on the
// host so results are bit-identical, while a calibrated cost model
// accumulates the *virtual* time an accelerator (ORISE-like GPU or
// Sunway-like many-core CPE cluster) would have spent, which is what the
// Fig. 9 and Table I benchmarks report. This cost model is the only place
// calls are grouped by shape class: the host executor it wraps runs every
// call of a submission in one fan-out.
package accel

import (
	"time"

	"qframan/internal/linalg"
)

// Device models one accelerator's cost structure.
type Device struct {
	Name string
	// LaunchOverhead is the fixed cost per offloaded workload (kernel
	// launch + driver).
	LaunchOverhead time.Duration
	// TransferBytesPerSec is the host↔device bandwidth; zero means
	// shared memory (the Sunway CPE model: no PCIe copies).
	TransferBytesPerSec float64
	// FLOPsPerSec is the sustained GEMM rate of the device.
	FLOPsPerSec float64
	// HostFLOPsPerSec is the host core's rate, used to decide
	// profitability and to cost unbatched work.
	HostFLOPsPerSec float64
}

// ORISEDevice models one GPU of the ORISE supercomputer: high peak rate,
// PCIe transfers, large launch overhead.
func ORISEDevice() Device {
	// The FP64 peak per GPU is implied by the paper's Table I: 85.27
	// PFLOPS at 53.8% of peak over 24,000 GPUs → 6.6 TFLOPS each.
	return Device{
		Name:                "orise-gpu",
		LaunchOverhead:      12 * time.Microsecond,
		TransferBytesPerSec: 12e9,
		FLOPsPerSec:         6.6e12,
		HostFLOPsPerSec:     19.2e9, // one host core's share
	}
}

// SunwayDevice models one SW26010-pro core group: shared memory (no copy),
// smaller launch overhead, lower peak.
func SunwayDevice() Device {
	// Table I implies 399.9 PFLOPS at 29.5% of peak over 96,000 nodes →
	// 14.1 TFLOPS per node, 2.35 TFLOPS per core group (6 per node).
	return Device{
		Name:            "sunway-cg",
		LaunchOverhead:  4 * time.Microsecond,
		FLOPsPerSec:     2.35e12,
		HostFLOPsPerSec: 8e9,
	}
}

// Stats accumulates executor accounting.
type Stats struct {
	GEMMs          int64
	Batches        int64 // offloaded batched workloads
	OffloadedGEMMs int64
	HostGEMMs      int64
	// HostTime/DeviceTime are modeled times under the cost model.
	HostTime   time.Duration
	DeviceTime time.Duration
	// MeasuredHostTime is the wall time the host actually spent executing
	// the numerics (batched blocked kernels, internal/linalg). Comparing it
	// against the modeled times validates the profitability model against
	// the machine it runs on rather than trusting the calibration constants.
	MeasuredHostTime time.Duration
	// FLOPs moved to the device vs kept on host.
	OffloadedFLOPs int64
	HostFLOPs      int64
}

// ModeledTime returns the total virtual execution time (host and device
// phases are serialized, matching the synchronous offload of the paper's
// per-strip execution).
func (s *Stats) ModeledTime() time.Duration { return s.HostTime + s.DeviceTime }

// MeasuredVsModeled returns the ratio of measured host execution time to
// the modeled total — the batch-profitability calibration figure (>1 means
// the cost model is optimistic about this host, <1 pessimistic). Zero when
// nothing has been modeled yet.
func (s *Stats) MeasuredVsModeled() float64 {
	m := s.ModeledTime()
	if m == 0 {
		return 0
	}
	return float64(s.MeasuredHostTime) / float64(m)
}

// Options tunes the elastic batching decisions.
type Options struct {
	// Stride pads each GEMM dimension up to a multiple of this value
	// before grouping (the paper batches with a stride of 32).
	Stride int
	// MinBatch is the smallest batch worth offloading. The paper reports
	// packing at least 64 calls per workload when several fragments share
	// a process; a single fragment's strip yields smaller groups, so the
	// default gate is lower and profitability does the real filtering.
	MinBatch int
	// Offload enables the device; when false everything is costed on the
	// host (the Fig. 9 baseline).
	Offload bool
	// BatchingDisabled offloads each GEMM individually (the strawman that
	// shows why elastic batching is needed).
	BatchingDisabled bool
}

// DefaultOptions mirrors the paper's settings (stride 32). The batch gate
// is left at 1: the profitability model already keeps unprofitably small
// groups on the host, and a hard gate is only useful for the ablation
// benchmarks.
func DefaultOptions() Options {
	return Options{Stride: 32, MinBatch: 1, Offload: true}
}

// BatchingExecutor implements linalg.Executor with elastic offloading.
type BatchingExecutor struct {
	Device Device
	Opt    Options
	Stats  Stats
	// PhaseStats splits the accounting by pipeline phase (set via
	// BeginPhase); Table I reports the n⁽¹⁾ and H⁽¹⁾ phases separately.
	PhaseStats map[string]*Stats
	phase      string
	host       linalg.HostExecutor
}

// NewBatchingExecutor builds an executor over the device.
func NewBatchingExecutor(dev Device, opt Options) *BatchingExecutor {
	return &BatchingExecutor{Device: dev, Opt: opt, PhaseStats: map[string]*Stats{}}
}

// BeginPhase labels subsequent Execute calls; the DFPT pipeline announces
// its grid phases ("n1", "h1") so per-phase rates can be reported.
func (e *BatchingExecutor) BeginPhase(name string) { e.phase = name }

// phaseStats returns the current phase's accumulator.
func (e *BatchingExecutor) phaseStats() *Stats {
	s, ok := e.PhaseStats[e.phase]
	if !ok {
		s = &Stats{}
		e.PhaseStats[e.phase] = s
	}
	return s
}

// shapeKey is the padded GEMM shape used for grouping.
type shapeKey struct{ m, k, n int }

func (e *BatchingExecutor) pad(v int) int {
	s := e.Opt.Stride
	if s <= 1 {
		return v
	}
	return (v + s - 1) / s * s
}

// Execute runs all calls on the host (numerics) and accumulates the modeled
// cost of the chosen offload strategy.
func (e *BatchingExecutor) Execute(calls []linalg.GemmCall) {
	t0 := time.Now()
	e.host.Execute(calls) // numerics: always exact, always on host
	measured := time.Since(t0)
	e.Stats.MeasuredHostTime += measured
	e.Stats.GEMMs += int64(len(calls))
	ps := e.phaseStats()
	ps.MeasuredHostTime += measured
	ps.GEMMs += int64(len(calls))

	if !e.Opt.Offload {
		for i := range calls {
			e.costHost(&calls[i])
		}
		return
	}
	if e.Opt.BatchingDisabled {
		for i := range calls {
			e.costDevice(1, calls[i].FLOPs(), e.bytesOf(&calls[i]))
			e.Stats.OffloadedGEMMs++
			e.phaseStats().OffloadedGEMMs++
		}
		return
	}

	// Shape-class batching: group by padded shape; offload profitable groups.
	groups := map[shapeKey][]int{}
	for i := range calls {
		m, k, n := calls[i].Shape()
		key := shapeKey{e.pad(m), e.pad(k), e.pad(n)}
		groups[key] = append(groups[key], i)
	}
	for key, idxs := range groups {
		var padded, actual, bytes int64
		for _, i := range idxs {
			// The batched kernel computes the padded shape; the host
			// alternative computes the actual shapes.
			padded += linalg.GemmFLOPs(key.m, key.k, key.n)
			actual += calls[i].FLOPs()
			bytes += e.bytesOf(&calls[i])
		}
		if len(idxs) >= e.Opt.MinBatch && e.profitable(padded, actual, bytes) {
			e.costDevice(1, padded, bytes)
			e.Stats.Batches++
			e.Stats.OffloadedGEMMs += int64(len(idxs))
			ps := e.phaseStats()
			ps.Batches++
			ps.OffloadedGEMMs += int64(len(idxs))
		} else {
			for _, i := range idxs {
				e.costHost(&calls[i])
			}
		}
	}
}

// bytesOf estimates the host↔device traffic of one call: the caller's
// explicit figure when provided, otherwise A and B in plus C out.
func (e *BatchingExecutor) bytesOf(c *linalg.GemmCall) int64 {
	if c.TransferBytes > 0 {
		return c.TransferBytes
	}
	return 8 * int64(len(c.A.Data)+len(c.B.Data)+len(c.C.Data))
}

// profitable reports whether offloading (computing paddedFLOPs on the
// device, plus launch and transfer) beats computing the actual FLOPs on the
// host.
func (e *BatchingExecutor) profitable(paddedFLOPs, actualFLOPs, bytes int64) bool {
	dev := e.deviceCost(1, paddedFLOPs, bytes)
	host := time.Duration(float64(actualFLOPs) / e.Device.HostFLOPsPerSec * 1e9)
	return dev < host
}

func (e *BatchingExecutor) deviceCost(launches int, flops, bytes int64) time.Duration {
	d := time.Duration(launches) * e.Device.LaunchOverhead
	d += time.Duration(float64(flops) / e.Device.FLOPsPerSec * 1e9)
	if e.Device.TransferBytesPerSec > 0 {
		d += time.Duration(float64(bytes) / e.Device.TransferBytesPerSec * 1e9)
	}
	return d
}

func (e *BatchingExecutor) costDevice(launches int, flops, bytes int64) {
	d := e.deviceCost(launches, flops, bytes)
	e.Stats.DeviceTime += d
	e.Stats.OffloadedFLOPs += flops
	ps := e.phaseStats()
	ps.DeviceTime += d
	ps.OffloadedFLOPs += flops
}

func (e *BatchingExecutor) costHost(c *linalg.GemmCall) {
	f := c.FLOPs()
	d := time.Duration(float64(f) / e.Device.HostFLOPsPerSec * 1e9)
	e.Stats.HostTime += d
	e.Stats.HostGEMMs++
	e.Stats.HostFLOPs += f
	ps := e.phaseStats()
	ps.HostTime += d
	ps.HostGEMMs++
	ps.HostFLOPs += f
}
