// Package mcm defines memory consistency models as ordering predicates over
// program-order pairs of operations, plus fence and store-atomicity
// semantics. These predicates drive both the execution engine (which
// reorderings the simulated hardware may perform) and the constraint-graph
// builder (which program-order edges must hold in a valid execution).
//
// The models follow the paper's usage:
//
//   - SC  — sequential consistency: all four program-order pairs preserved.
//   - TSO — total store order (x86 / SPARC TSO): only store→load relaxed;
//     stores drain through a FIFO store buffer with own-store forwarding.
//   - PSO — partial store order: store→load and store→store relaxed.
//   - RMO — relaxed memory order (the paper's "weakly-ordered" ARM stand-in):
//     all four pairs relaxed; only fences and same-address coherence order
//     remain.
package mcm

import (
	"fmt"
	"strings"

	"mtracecheck/internal/prog"
)

// Model identifies a memory consistency model.
type Model uint8

const (
	// SC is sequential consistency (Lamport).
	SC Model = iota
	// TSO is total store order (x86-TSO).
	TSO
	// PSO is partial store order.
	PSO
	// RMO is relaxed memory order; the weak model used for the ARM-like
	// platform in the paper.
	RMO
)

// Models lists all supported models, strongest first.
var Models = []Model{SC, TSO, PSO, RMO}

// String returns the conventional short name of the model.
func (m Model) String() string {
	switch m {
	case SC:
		return "SC"
	case TSO:
		return "TSO"
	case PSO:
		return "PSO"
	case RMO:
		return "RMO"
	default:
		return fmt.Sprintf("Model(%d)", uint8(m))
	}
}

// Parse returns the model named by s (case-insensitive).
func Parse(s string) (Model, error) {
	name := strings.TrimSpace(s)
	for _, n := range modelNames {
		if strings.EqualFold(name, n.name) {
			return n.model, nil
		}
	}
	return SC, fmt.Errorf("mcm: unknown model %q", s)
}

// modelNames are the names Parse accepts, compared without regard to case.
var modelNames = [...]struct {
	name  string
	model Model
}{
	{"SC", SC},
	{"TSO", TSO}, {"X86", TSO}, {"X86-TSO", TSO},
	{"PSO", PSO},
	{"RMO", RMO}, {"WEAK", RMO}, {"ARM", RMO},
}

// ordered is each model's preserved-program-order matrix between plain
// accesses, indexed [model][first][second] by prog.Load and prog.Store.
var ordered = [...][2][2]bool{
	SC:  {{true, true}, {true, true}},
	TSO: {{true, true}, {false, true}},  // only store→load relaxed
	PSO: {{true, true}, {false, false}}, // store→load and store→store relaxed
	RMO: {},                             // everything relaxed between plain accesses
}

// Ordered reports whether the model preserves program order from an earlier
// operation of kind first to a later operation of kind second on the same
// thread, in the absence of intervening fences and ignoring same-address
// dependencies. Fences order against everything under every model.
//
// Same-address program-order pairs are always ordered by coherence
// ("uniprocessor" / sc-per-location semantics) regardless of the model, less
// store→load under store-buffer forwarding; the graph builder applies that
// rule, since Ordered sees only kinds.
func (m Model) Ordered(first, second prog.OpKind) bool {
	if first == prog.Fence || second == prog.Fence {
		return true
	}
	if int(m) >= len(ordered) {
		panic(fmt.Sprintf("mcm: Ordered on invalid model %d", uint8(m)))
	}
	return ordered[m][first][second]
}

// Atomicity describes store atomicity (paper §8, citing Arvind & Maessen).
type Atomicity uint8

const (
	// MultiCopy: a store becomes visible to all *other* cores at once, but
	// the issuing core may read its own store early via forwarding
	// (x86-TSO). The paper's systems are all at least this weak; assuming
	// SingleCopy on x86 produced the false positives described in §8's
	// footnote.
	MultiCopy Atomicity = iota
	// SingleCopy: a store becomes visible to all cores, including its own,
	// at a single instant; no forwarding.
	SingleCopy
	// NonMultiCopy: a store may become visible to different cores at
	// different times (e.g. pre-ARMv8 clusters).
	NonMultiCopy
)

// String returns the atomicity class name.
func (a Atomicity) String() string {
	switch a {
	case MultiCopy:
		return "multi-copy"
	case SingleCopy:
		return "single-copy"
	case NonMultiCopy:
		return "non-multi-copy"
	default:
		return fmt.Sprintf("Atomicity(%d)", uint8(a))
	}
}

// AllowsForwarding reports whether a core may read its own store before the
// store is globally visible.
func (a Atomicity) AllowsForwarding() bool { return a != SingleCopy }
