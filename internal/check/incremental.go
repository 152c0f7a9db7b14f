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
func repairEdges(w *workspace, added []graph.Edge, res *Result) bool {
	pk := &w.pk
	if pk.visited == nil {
		tab := make([]int32, 3*w.n)
		pk.visited, pk.backupPos, pk.backupOrder = tab[:w.n:w.n], tab[w.n:2*w.n:2*w.n], tab[2*w.n:]
	}
	// Repairs run in (U,V) order whatever order the installer found the edges
	// in, so the repair sequence is a function of the graphs alone.
	slices.SortFunc(added, compareEdges)
	affected := 0
	ok := true
	for _, e := range added {
		if pk.pos[e.U] < pk.pos[e.V] {
			continue // already consistent
		}
		if affected == 0 { // the first repair: keep the order to roll back to
			copy(pk.backupPos, pk.pos)
			copy(pk.backupOrder, pk.order)
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

// pkState carries the Pearce–Kelly order maintenance structures; visited and
// the backups are made by the first repair.
type pkState struct {
	w       *workspace
	pos     []int32
	order   []int32
	visited []int32 // epoch marks
	epoch   int32
	// The order before the current item's repairs, restored when it turns
	// out cyclic.
	backupPos, backupOrder []int32
	fwd                    []int32 // scratch: forward-affected vertices
	bwd                    []int32 // scratch: backward-affected vertices
	all                    []int32 // scratch: combined affected vertices
	slots                  []int32 // scratch: their position multiset
}

// repair restores topological order after inserting edge (u,v) with
// pos[u] > pos[v]. It returns the number of vertices moved and ok=false
// when the edge closes a cycle.
func (p *pkState) repair(u, v int32) (moved int, ok bool) {
	lb, ub := p.pos[v], p.pos[u]
	p.epoch++
	// Forward DFS from v within (≤ ub): collects vertices that must come
	// after v. Seeing u means a cycle.
	p.fwd = p.fwd[:0]
	if !p.dfsF(v, ub, u) {
		return len(p.fwd), false
	}
	// Backward DFS from u within (≥ lb): vertices that must stay before u.
	p.bwd = p.bwd[:0]
	p.dfsB(u, lb)

	// Reorder: the affected vertices, in their current position order, are
	// reassigned to the same position multiset with the backward set first.
	all := append(p.all[:0], p.bwd...)
	all = append(all, p.fwd...)
	slots := p.slots[:0]
	for _, x := range all {
		slots = append(slots, p.pos[x])
	}
	slices.Sort(slots)
	p.all, p.slots = all, slots
	// Within each set, preserve relative order by current position.
	byPos := func(x, y int32) int { return int(p.pos[x] - p.pos[y]) }
	slices.SortFunc(p.bwd, byPos)
	slices.SortFunc(p.fwd, byPos)
	i := 0
	for _, x := range p.bwd {
		p.pos[x] = slots[i]
		p.order[slots[i]] = x
		i++
	}
	for _, x := range p.fwd {
		p.pos[x] = slots[i]
		p.order[slots[i]] = x
		i++
	}
	return len(all), true
}

// dfsF explores forward from x, bounded by positions ≤ ub; returns false on
// reaching target (cycle).
func (p *pkState) dfsF(x, ub, target int32) bool {
	if x == target {
		return false
	}
	p.visited[x] = p.epoch
	p.fwd = append(p.fwd, x)
	okAll := true
	p.w.succs(x, func(y int32) {
		if !okAll || p.visited[y] == p.epoch || p.pos[y] > ub {
			return
		}
		if !p.dfsF(y, ub, target) {
			okAll = false
		}
	})
	return okAll
}

// dfsB explores backward from x, bounded by positions ≥ lb. The workspace
// has no reverse adjacency, so it scans candidates by position: every
// vertex w with lb ≤ pos[w] < pos[x] that has an edge into the affected
// backward set. To stay near-linear we walk positions from pos[x] down to
// lb once, testing membership via edges into visited-backward vertices.
func (p *pkState) dfsB(u, lb int32) {
	// Mark u and grow the backward set by scanning the position range once
	// per discovered member is O(range × degree); ranges are small in the
	// intended regime (localized diffs). Membership marks use epoch+bit:
	// we reuse visited with negative epoch to distinguish from forward set.
	inB := func(y int32) bool { return p.visited[y] == -p.epoch }
	p.visited[u] = -p.epoch
	p.bwd = append(p.bwd, u)
	for changed := true; changed; {
		changed = false
		for pp := p.pos[u]; pp >= lb; pp-- {
			x := p.order[pp]
			if p.visited[x] == -p.epoch || p.visited[x] == p.epoch {
				continue
			}
			hit := false
			p.w.succs(x, func(y int32) {
				if hit || !inB(y) {
					return
				}
				hit = true
			})
			if hit {
				p.visited[x] = -p.epoch
				p.bwd = append(p.bwd, x)
				changed = true
			}
		}
	}
}
