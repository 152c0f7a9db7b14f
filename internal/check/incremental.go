package check

import (
	"slices"

	"mtracecheck/internal/graph"
)

// repairEdges is the repair of a third checker, incremental, extending the
// paper: instead of re-sorting one window spanning *all* new backward edges
// (§4.2), it repairs the maintained topological order edge by edge with the
// Pearce–Kelly dynamic algorithm. Each new backward edge (u,v) triggers a
// localized repair: the affected region is only what is forward-reachable
// from v and backward-reachable from u within the position range
// [pos(v), pos(u)] — so k small disjoint diffs cost k small repairs rather
// than one window covering their span. Verdicts are identical to the other
// checkers (a cycle is found exactly when u is forward-reachable from v).
//
// Soundness of carrying the order across graphs: the maintained order is
// topological for the previous graph, hence for the current graph minus its
// added edges (removing edges never invalidates an order); the added edges
// are then inserted one by one with PK repairs against the *current* edge
// set only.
//
// The repairs run in the (U,V) order install hands the edges over in, so the
// repair sequence is a function of the graphs alone. The first one of a run
// makes the workspace's predecessor lists live, for the backward search.
func repairEdges(w *workspace, added []graph.Edge, res *Result) bool {
	pk := &w.pk
	affected := 0
	ok := true
	for _, e := range added {
		if pk.pos[e.U] < pk.pos[e.V] {
			continue // already consistent
		}
		if affected == 0 { // the first repair: keep the order to roll back to
			copy(pk.backupPos, pk.pos)
			copy(pk.backupOrder, pk.order)
			w.livePreds()
		}
		var moved int
		moved, ok = pk.repair(e.U, e.V)
		affected += moved
		if !ok {
			copy(pk.pos, pk.backupPos)
			copy(pk.order, pk.backupOrder)
			break
		}
	}
	res.SortedVertices += int64(affected)
	kind := KindIncremental
	if ok && affected == 0 {
		kind = KindNoResort
	}
	res.PerGraph = append(res.PerGraph, GraphStat{Kind: kind, Affected: affected})
	return ok
}

// pkState carries the Pearce–Kelly order maintenance structures; its tables
// are carved from the workspace's one array.
type pkState struct {
	w       *workspace
	pos     []int32
	order   []int32
	visited []int32 // epoch marks
	epoch   int32
	// The order before the current item's repairs, restored when it turns
	// out cyclic.
	backupPos, backupOrder []int32
	// Scratch, each at most n vertices (the sets are disjoint).
	fwd   []int32 // forward-affected vertices
	bwd   []int32 // backward-affected vertices
	all   []int32 // dfsB's stack, then the two sets' positions
	slots []int32 // the affected positions, ascending
}

// repair restores topological order after inserting edge (u,v) with
// pos[u] > pos[v]. It returns the number of vertices moved and ok=false
// when the edge closes a cycle.
func (p *pkState) repair(u, v int32) (moved int, ok bool) {
	lb, ub := p.pos[v], p.pos[u]
	p.epoch++
	// Forward DFS from v within [lb, ub]: collects vertices that must come
	// after v. Seeing u means a cycle.
	p.fwd = p.fwd[:0]
	if !p.dfsF(v, lb, ub, u) {
		return len(p.fwd), false
	}
	// Backward search from u within (≥ lb): vertices that must stay before u.
	p.dfsB(u, lb)

	// Reorder: the affected vertices are reassigned to the same position
	// set, the backward set first, each set in its current order.
	bp := p.inOrder(p.bwd, p.all)
	fp := p.inOrder(p.fwd, bp[len(bp):])
	slots := p.slots[:0]
	for i, j := 0, 0; i < len(bp) || j < len(fp); {
		if j == len(fp) || i < len(bp) && bp[i] < fp[j] {
			slots, i = append(slots, bp[i]), i+1
		} else {
			slots, j = append(slots, fp[j]), j+1
		}
	}
	p.slots = slots
	for k, x := range p.bwd {
		p.pos[x], p.order[slots[k]] = slots[k], x
	}
	for k, x := range p.fwd {
		q := slots[len(p.bwd)+k]
		p.pos[x], p.order[q] = q, x
	}
	return len(slots), true
}

// inOrder sorts set into position order and returns its positions, ascending,
// in buf's storage.
func (p *pkState) inOrder(set, buf []int32) []int32 {
	ps := buf[:0]
	for _, x := range set {
		ps = append(ps, p.pos[x])
	}
	slices.Sort(ps)
	for k, q := range ps {
		set[k] = p.order[q]
	}
	return ps
}

// dfsF explores forward from x within positions [lb, ub]; returns false on
// reaching target (cycle). The lower bound matters because dyn holds every
// edge of the item, the ones not repaired yet too: such an edge may lead
// below lb, and moving that vertex up into the window would break the order
// of edges already repaired.
func (p *pkState) dfsF(x, lb, ub, target int32) bool {
	if x == target {
		return false
	}
	p.visited[x] = p.epoch
	p.fwd = append(p.fwd, x)
	for _, succ := range [2][]int32{p.w.static[x], p.w.dyn[x]} {
		for _, y := range succ {
			if py := p.pos[y]; p.visited[y] != p.epoch && py >= lb && py <= ub && !p.dfsF(y, lb, ub, target) {
				return false
			}
		}
	}
	return true
}

// dfsB collects into bwd the backward set of u: the vertices at positions
// [lb, pos[u]] that reach u through such vertices. It is a depth-first search
// over the predecessor lists, with all (free until the reorder) as its stack;
// members are marked -epoch. It cannot meet the forward set: dfsF follows
// every edge within positions [lb, pos[u]], so it would have met u.
func (p *pkState) dfsB(u, lb int32) {
	ub := p.pos[u]
	p.visited[u] = -p.epoch
	bwd, stack := append(p.bwd[:0], u), append(p.all[:0], u)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, preds := range [2][]int32{p.w.spred[x], p.w.pred[x]} {
			for _, y := range preds {
				if py := p.pos[y]; py >= lb && py <= ub && p.visited[y] != -p.epoch {
					p.visited[y] = -p.epoch
					bwd, stack = append(bwd, y), append(stack, y)
				}
			}
		}
	}
	p.bwd = bwd
}
