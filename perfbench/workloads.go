package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"qframan/internal/core"
	"qframan/internal/dfpt"
	"qframan/internal/geom"
	"qframan/internal/structure"
)

// A workload is one seeded input set plus the pipeline configuration it
// runs under. One-shot workloads have a single frame and run through
// core.ComputeRaman; trajectory workloads run every frame through one
// traj.Engine over a fresh store.
type workload struct {
	name string
	// base builds the unjittered system.
	base func() (*structure.System, error)
	// frames > 1 turns the jittered base into a structure.PerturbedTrajectory
	// of that many frames, shaped by traj.
	frames int
	traj   structure.PerturbOptions
	grid   bool // dfpt.GridCoulomb instead of the default GammaCoulomb
}

// The seed moves the whole system rigidly: one of the 24 rotations that map
// the coordinate axes onto themselves, then a translation of up to
// seedShift Å per axis. Every seed is a distinct input with the same work,
// and the same spectrum up to rounding, because the Raman spectrum does not
// change under rigid motion. So one reference gates every seed tightly.
// Rotations off the axes would change the work: the GridCoulomb grid
// covers the system's axis-aligned bounding box.
const seedShift = 2.0

type rigidMotion struct {
	perm  []int // output axis i takes input axis perm[i]
	sign  [3]float64
	shift [3]float64
}

func newRigidMotion(seed int64) rigidMotion {
	rng := rand.New(rand.NewSource(seed))
	m := rigidMotion{perm: rng.Perm(3)}
	det := 1.0
	for i := range m.sign {
		m.sign[i] = float64(2*rng.Intn(2) - 1)
		m.shift[i] = (2*rng.Float64() - 1) * seedShift
		det *= m.sign[i]
	}
	// An odd permutation reflects; so does an odd number of sign flips.
	// Keep the product a proper rotation.
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if m.perm[i] > m.perm[j] {
				det = -det
			}
		}
	}
	if det < 0 {
		m.sign[2] = -m.sign[2]
	}
	return m
}

func (m rigidMotion) apply(sys *structure.System) {
	for i := range sys.Atoms {
		p := sys.Atoms[i].Pos
		c := [3]float64{p.X, p.Y, p.Z}
		sys.Atoms[i].Pos = geom.V(
			m.sign[0]*c[m.perm[0]]+m.shift[0],
			m.sign[1]*c[m.perm[1]]+m.shift[1],
			m.sign[2]*c[m.perm[2]]+m.shift[2])
	}
}

// defaultSeed is the seed the reference spectra were generated with;
// heldOutSeed is reserved for confirming a claimed gain on inputs the
// change was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

var workloads = []workload{
	{
		name: "peptide-ggg",
		base: func() (*structure.System, error) { return structure.BuildProtein("GGG") },
	},
	{
		name: "grid-water",
		base: func() (*structure.System, error) { return structure.BuildWaterBox(1, 1, 1, geom.Vec3{}), nil },
		grid: true,
	},
	{
		name:   "water-traj",
		base:   func() (*structure.System, error) { return structure.BuildWaterBox(3, 3, 2, geom.Vec3{}), nil },
		frames: 3,
		// The trajectory's shape (which molecules move, and how) is fixed
		// by its own seed, so the recompute work per frame does not depend
		// on the run's --seed; the run's seed jitters the base.
		traj: structure.PerturbOptions{MoveFrac: 0.05, Jitter: 0.02, RigidFrac: 0.1, RigidStep: 0.25, Seed: 11},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs generates the workload's frames from seed: the base system, or
// the trajectory perturbed from it, with every frame moved by the seed's
// rigid motion. The trajectory is built before the move, so each frame of
// every seed is a rigid image of the same frame at the reference seed.
func (w workload) inputs(seed int64) ([]*structure.System, error) {
	base, err := w.base()
	if err != nil {
		return nil, err
	}
	frames := []*structure.System{base}
	if w.frames > 1 {
		opt := w.traj
		opt.Frames = w.frames
		frames = frames[:0]
		for _, fr := range structure.PerturbedTrajectory(base, opt) {
			s, err := structure.ApplyFrame(base, fr)
			if err != nil {
				return nil, err
			}
			frames = append(frames, s)
		}
	}
	m := newRigidMotion(seed)
	for _, s := range frames {
		m.apply(s)
	}
	return frames, nil
}

// concurrency is the run's fragment-level layout: one leader with up to
// two displacement workers, never more workers than the host has CPUs.
// The kernel pool gets the same budget.
func concurrency() (leaders, workers int) {
	return 1, min(2, runtime.NumCPU())
}

func (w workload) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Sched.NumLeaders, cfg.Sched.WorkersPerLeader = concurrency()
	if w.grid {
		cfg.Sched.Job.DFPT.Coulomb = dfpt.GridCoulomb
	}
	return cfg
}
