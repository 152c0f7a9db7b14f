package check

import (
	"sync"

	"mtracecheck/internal/graph"
)

// The constraints backend recasts checking as constraint solving, after
// Akgün et al. ("Memory Consistency Models using Constraints"): give every
// operation an integer position variable with domain [0, n) and encode each
// constraint-graph edge (u, v) as the ordering constraint pos[u] < pos[v].
// The constraint system is satisfiable exactly when the graph is acyclic —
// a solution is a linearization witness, and a cycle makes its strict
// inequalities sum to pos[u] < pos[u].
//
// The solver is the textbook combination of exhaustive bounds propagation
// and backtracking search: propagate lb[v] >= lb[u]+1 and ub[u] <= ub[v]-1
// to fixpoint (an empty domain refutes the system), then assign variables
// one at a time — smallest domain first, values in ascending order — with
// propagation after each assignment and trail-based undo on failure. The
// search is complete: it either finds a witness or proves none exists.
//
// This backend exists to be obviously correct, not fast: it shares no code
// with the sorting backends (Kahn's algorithm, Pearce–Kelly) or the
// vector-clock closure, which is what makes it worth racing against them in
// check.Differential — any verdict disagreement convicts one of the
// implementations. It is roughly O(n·e) per graph even when no backtracking
// occurs: for small traces and differential runs, not hot campaign paths.
// Effort is Result.Propagations, the number of domain-bound tightenings.

// csWorkspace holds the recycled solver state for one builder's programs,
// pooled like the other backends' workspaces.
type csWorkspace struct {
	scratch
	n      int
	static []graph.Edge // flattened static adjacency, shared across items
	edges  []graph.Edge // static + dynamic, rebuilt per item
	lb, ub []int32      // position variable domains
	trail  []csChange   // undo log for backtracking
}

// csChange records one domain-bound tightening for undo.
type csChange struct {
	idx  int32
	old  int32
	isUB bool
}

var csPool sync.Pool

func newCSWorkspace(b *graph.Builder) *csWorkspace {
	n := b.NumOps()
	w := &csWorkspace{scratch: scratch{owner: b}, n: n, lb: make([]int32, n), ub: make([]int32, n)}
	for u, out := range b.Static() {
		for _, v := range out {
			w.static = append(w.static, graph.Edge{U: int32(u), V: v})
		}
	}
	return w
}

// cyclic solves one graph. The backend fills Total, Violations and
// Propagations only; the solver maintains no order and no clocks.
func (w *csWorkspace) cyclic(dyn []graph.Edge, res *Result) bool {
	sat, props := w.solve(dyn)
	res.Propagations += props
	return !sat
}

// solve reports whether the position constraints induced by the static plus
// dynamic edges are satisfiable (graph acyclic), and how many bound
// tightenings the solver performed.
func (w *csWorkspace) solve(dyn []graph.Edge) (sat bool, props int64) {
	if w.n == 0 {
		return true, 0
	}
	for i := range w.lb {
		w.lb[i], w.ub[i] = 0, int32(w.n-1)
	}
	w.edges = append(append(w.edges[:0], w.static...), dyn...)
	w.trail = w.trail[:0]
	if !w.propagate(&props) {
		return false, props
	}
	return w.search(&props), props
}

// setLB/setUB tighten one bound, recording the old value on the trail.
// They report false when the domain becomes empty.
func (w *csWorkspace) setLB(i, v int32, props *int64) bool {
	w.trail = append(w.trail, csChange{idx: i, old: w.lb[i]})
	w.lb[i] = v
	*props++
	return v <= w.ub[i]
}

func (w *csWorkspace) setUB(i, v int32, props *int64) bool {
	w.trail = append(w.trail, csChange{idx: i, old: w.ub[i], isUB: true})
	w.ub[i] = v
	*props++
	return v >= w.lb[i]
}

// undo rolls the domains back to a trail mark.
func (w *csWorkspace) undo(mark int) {
	for i := len(w.trail) - 1; i >= mark; i-- {
		c := w.trail[i]
		if c.isUB {
			w.ub[c.idx] = c.old
		} else {
			w.lb[c.idx] = c.old
		}
	}
	w.trail = w.trail[:mark]
}

// propagate runs bounds propagation to fixpoint over every constraint
// pos[u] < pos[v]. It reports false when some domain empties — the system
// is unsatisfiable (for the initial full domains, exactly when the graph
// is cyclic: lb follows longest paths, which a cycle grows past any ub).
func (w *csWorkspace) propagate(props *int64) bool {
	for changed := true; changed; {
		changed = false
		for _, e := range w.edges {
			u, v := e.U, e.V
			if min := w.lb[u] + 1; min > w.lb[v] {
				if !w.setLB(v, min, props) {
					return false
				}
				changed = true
			}
			if max := w.ub[v] - 1; max < w.ub[u] {
				if !w.setUB(u, max, props) {
					return false
				}
				changed = true
			}
		}
	}
	return true
}

// search completes the propagated system to a full assignment by exhaustive
// backtracking: repeatedly fix the unassigned variable with the smallest
// domain to each of its values in ascending order, propagating after each
// assignment and undoing on failure. When propagation has not refuted the
// system, assigning a variable its lower bound never fails (lb is the
// longest-path witness), so on acyclic graphs the first descent succeeds
// with zero backtracks — the search's exhaustiveness is a correctness
// backstop, not the expected path.
func (w *csWorkspace) search(props *int64) bool {
	best, bestSize := int32(-1), int32(0)
	for i := range w.lb {
		if size := w.ub[i] - w.lb[i]; size > 0 && (best < 0 || size < bestSize) {
			best, bestSize = int32(i), size
		}
	}
	if best < 0 {
		return true // every domain is a singleton: a witness assignment
	}
	lo, hi := w.lb[best], w.ub[best]
	for v := lo; v <= hi; v++ {
		mark := len(w.trail)
		if w.setLB(best, v, props) && w.setUB(best, v, props) &&
			w.propagate(props) && w.search(props) {
			return true
		}
		w.undo(mark)
	}
	return false
}
