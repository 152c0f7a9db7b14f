package check

import (
	"sync"

	"mtracecheck/internal/graph"
)

// The vector-clock backend adapts the TSOtool family of polynomial-time
// checkers (Roy et al., "Fast and Generalized Polynomial Time Memory
// Consistency Verification"): instead of (re)sorting each constraint graph
// topologically, every operation carries a clock recording the set of
// operations ordered strictly before it, and the clocks are propagated
// along edges to fixpoint. A graph is cyclic exactly when some operation's
// clock comes to order the operation before itself.
//
// TSOtool's rule-based edge derivation collapses to plain closure here: the
// signature decode already yields the complete dynamic edge set (rf, fr,
// ws), so the part of the algorithm that survives is its iterative clock
// propagation and the self-ordering cycle test. The clocks are per-operation
// predecessor bitsets, not the per-thread [tid]→index vectors of the TSO
// original: under weak models the constraint graph does not totally order a
// thread's operations (an RMO thread's independent accesses carry no po
// edge), so "max program-order index seen per thread" would manufacture
// orderings that are not in the graph and report false cycles. A bitset
// clock encodes exactly the graph's reachability and nothing more, at
// n/64 words per operation — n is a few hundred for the paper's test sizes,
// so a clock is a handful of words and a join is a few OR instructions. The
// effort counter is Result.ClockUpdates, the joins that changed a clock.

// vcWorkspace holds the recycled clock matrix for one builder's programs,
// pooled like the sorting workspace (§6.2 recycling: vertex structures
// persist across graphs, edge structures are rebuilt per graph).
type vcWorkspace struct {
	scratch
	n      int
	words  int       // clock width: ceil(n/64) uint64 words
	static [][]int32 // shared static adjacency, borrowed from the builder
	clocks []uint64  // n×words bit-matrix; clocks[u] = ops strictly before u
}

var vcPool sync.Pool

func newVCWorkspace(b *graph.Builder) *vcWorkspace {
	n := b.NumOps()
	words := (n + 63) / 64
	return &vcWorkspace{
		scratch: scratch{owner: b},
		n:       n,
		words:   words,
		static:  b.Static(),
		clocks:  make([]uint64, n*words),
	}
}

// cyclic closes one graph. The backend fills Total, Violations and
// ClockUpdates only: there is no maintained order, so PerGraph,
// SortedVertices, BackwardEdges and MaxWindow stay zero (see Result.Counts).
func (w *vcWorkspace) cyclic(dyn []graph.Edge, res *Result) bool {
	cyclic, joins := w.closure(dyn)
	res.ClockUpdates += joins
	return cyclic
}

// closure propagates predecessor clocks along the graph's static and
// dynamic edges until no clock changes, reporting whether some operation
// ends up ordered before itself and how many joins changed a clock. Each
// round sweeps vertices in ascending ID, walking the sorted dynamic edge
// list in lockstep; edges pointing to higher IDs settle within a round, so
// the round count is bounded by the longest descending-ID chain, and the
// whole closure by O(rounds × edges × words).
func (w *vcWorkspace) closure(dyn []graph.Edge) (cyclic bool, joins int64) {
	clocks := w.clocks
	for k := range clocks {
		clocks[k] = 0
	}
	words := w.words
	for changed := true; changed; {
		changed = false
		di := 0
		for u := 0; u < w.n; u++ {
			cu := clocks[u*words : (u+1)*words]
			for _, v := range w.static[u] {
				did, cyc := joinClock(clocks, cu, int32(u), v, words)
				if cyc {
					return true, joins + 1
				}
				if did {
					joins++
					changed = true
				}
			}
			for ; di < len(dyn) && int(dyn[di].U) == u; di++ {
				did, cyc := joinClock(clocks, cu, int32(u), dyn[di].V, words)
				if cyc {
					return true, joins + 1
				}
				if did {
					joins++
					changed = true
				}
			}
		}
	}
	return false, joins
}

// joinClock merges u's clock plus u itself into v's clock for edge (u,v):
// everything before u is before v, and so is u. It reports whether v's
// clock changed and whether v is now ordered before itself (a cycle). The
// cycle test runs only on a changed join: a clock already containing bit v
// was detected the round it first appeared.
func joinClock(clocks, cu []uint64, u, v int32, words int) (changed, cyclic bool) {
	cv := clocks[int(v)*words : (int(v)+1)*words]
	for k := range cv {
		add := cu[k]
		if int32(k) == u>>6 {
			add |= 1 << (uint(u) & 63)
		}
		if merged := cv[k] | add; merged != cv[k] {
			cv[k] = merged
			changed = true
		}
	}
	if changed && cv[v>>6]&(1<<(uint(v)&63)) != 0 {
		return true, true
	}
	return changed, false
}
