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
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "SC":
		return SC, nil
	case "TSO", "X86", "X86-TSO":
		return TSO, nil
	case "PSO":
		return PSO, nil
	case "RMO", "WEAK", "ARM":
		return RMO, nil
	default:
		return SC, fmt.Errorf("mcm: unknown model %q", s)
	}
}

// Ordered reports whether the model preserves program order from an earlier
// operation of kind first to a later operation of kind second on the same
// thread, in the absence of intervening fences and ignoring same-address
// dependencies. Fences order against everything under every model.
//
// Same-address program-order pairs are always ordered by coherence
// ("uniprocessor" / sc-per-location semantics) regardless of the model; that
// rule is handled by callers via OrderedSameAddr, since Ordered sees only
// kinds.
func (m Model) Ordered(first, second prog.OpKind) bool {
	if first == prog.Fence || second == prog.Fence {
		return true
	}
	switch m {
	case SC:
		return true
	case TSO:
		// Only store→load is relaxed.
		return !(first == prog.Store && second == prog.Load)
	case PSO:
		// store→load and store→store relaxed.
		return first == prog.Load
	case RMO:
		// Everything relaxed between plain accesses.
		return false
	default:
		panic(fmt.Sprintf("mcm: Ordered on invalid model %d", uint8(m)))
	}
}

// OrderedSameAddr reports whether program order is preserved between two
// same-address memory operations under the model. All models enforce
// coherence (sc-per-location): same-address pairs stay ordered.
//
// The one nuance is store→load under store-buffer forwarding: the load may
// read the store early (before it is globally visible), but it can never
// read an *older* value, so for constraint-graph purposes the pair is
// ordered. Store atomicity concerns are handled separately (see Atomicity).
func (m Model) OrderedSameAddr(first, second prog.OpKind) bool {
	_ = first
	_ = second
	return true
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
