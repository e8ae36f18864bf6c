package fragment

import (
	"fmt"

	"qframan/internal/structure"
)

// Partitioner turns a molecular system into an Eq. 1 fragment combination.
// Implementations must be deterministic: the same system and options must
// produce byte-identical Decompositions on every run, at every GOMAXPROCS
// (see FRAGMENTATION.md for the contract and DESIGN.md for the rationale).
//
// Two implementations exist:
//
//   - QFPartitioner — the paper's chemistry-rule engine: peptide-bond cuts,
//     conjugate caps, one-body waters, λ-sphere two-body corrections.
//     Proteins and water only.
//   - GraphPartitioner — the general engine: bond graph inferred from
//     geometry, quality-aware balanced min-cut over severable single bonds,
//     generic hydrogen capping. Any covalent system, with fragment size as a
//     tunable accuracy/cost knob.
type Partitioner interface {
	// Name returns the short CLI-facing identifier ("qf", "graph").
	Name() string
	// Partition decomposes the system. The returned Decomposition must
	// satisfy the exactly-once coverage invariant Σ_f coeff(f)·[a ∈ f] = 1
	// for every real atom a.
	Partition(sys *structure.System) (*Decomposition, error)
}

// QFPartitioner adapts the paper's quantum-fragmentation algorithm
// (Decompose) to the Partitioner interface.
type QFPartitioner struct {
	Opt Options
}

// Name implements Partitioner.
func (QFPartitioner) Name() string { return "qf" }

// Partition implements Partitioner by running the QF decomposition.
func (p QFPartitioner) Partition(sys *structure.System) (*Decomposition, error) {
	return Decompose(sys, p.Opt)
}

// NewPartitioner resolves a CLI partitioner name. qfOpt configures the "qf"
// engine and gOpt the "graph" engine. The empty name returns nil: no
// override, so core.Partition picks the engine from the input structure.
func NewPartitioner(name string, qfOpt Options, gOpt GraphOptions) (Partitioner, error) {
	switch name {
	case "":
		return nil, nil
	case "qf":
		return QFPartitioner{Opt: qfOpt}, nil
	case "graph":
		return GraphPartitioner{Opt: gOpt}, nil
	}
	return nil, fmt.Errorf("fragment: unknown partitioner %q (want qf or graph)", name)
}
