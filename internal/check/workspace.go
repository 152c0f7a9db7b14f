package check

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"mtracecheck/internal/graph"
)

// workspace holds the recycled vertex data structures the sorting checkers
// run on (the paper recycles vertex structures across graphs, §6.2). One
// workspace serves one program's builder.
//
// The order-maintaining checkers make an item the current graph through
// install, which is where the two item shapes part and the only place that
// knows a run holds one of them throughout. A reads-from row (Item.RF) is
// installed as a delta: installRow edits dyn in place for the loads whose
// source differs from the installed row's, so the edge structures are recycled
// too and an item costs what changed. An edge list (Item.Edges) replaces dyn
// wholesale (setDyn) and is diffed against the list installed before it.
// Either way dyn[u] is in ascending-V order — what setDyn produces from a
// (U,V)-sorted list and what installRow's sorted insert maintains — so the
// prioritized sorts pop in the same order and every window, verdict and effort
// counter is the same for both item shapes.
type workspace struct {
	scratch
	n       int
	static  [][]int32
	dyn     [][]int32 // per-vertex dynamic out-edges of the current graph
	indeg   []int32
	out     []int32
	queue   []int32 // FIFO scratch for the unprioritized baseline sort
	classOf []int32 // vertex priority class (word-major)
	bq      bucketQueue
	ladj    [][]int32 // recycled window-local adjacency
	// pos/order back the checkers' maintained order; contents are overwritten
	// before use.
	pos   []int32
	order []int32

	// install state: whether the run has installed an item yet, whether its
	// items are rows and, for lists, the one installed (the caller's slice).
	installed, rows bool
	list            []graph.Edge
	// installRow state: row[load] is the source whose edge group dyn holds
	// (graph.NoObservation: none), added the edges the last install put in,
	// oldG/newG one load's group before and after.
	loads      []int32
	row        []int32
	added      []graph.Edge
	oldG, newG []graph.Edge

	pk pkState // Incremental's order-repair state
}

// dynCap is the capacity each vertex's dynamic out-list is carved with. A
// load's list holds its fr targets (one, or one per thread after a read of
// the initial value) and a store's its readers; the few lists that outgrow
// the carve-out move to their own array on append.
const dynCap = 4

func newWorkspace(b *graph.Builder) *workspace {
	n := b.NumOps()
	classOf, classes := b.WordClass()
	w := &workspace{
		scratch: scratch{owner: b},
		n:       n,
		static:  b.Static(),
		dyn:     make([][]int32, n),
		classOf: classOf,
		ladj:    make([][]int32, n),
		loads:   b.Loads(),
	}
	// Every fixed int32 table comes from one array (Incremental adds its own
	// three on first use).
	tab := make([]int32, (6+dynCap)*n+bucketQueueInts(n, classes))
	carve := func() []int32 {
		t := tab[:n:n]
		tab = tab[n:]
		return t
	}
	w.indeg, w.pos, w.order, w.row = carve(), carve(), carve(), carve()
	w.out, w.queue = carve()[:0], carve()[:0]
	for u := range w.dyn {
		w.dyn[u], tab = tab[:0:dynCap], tab[dynCap:]
	}
	w.bq.init(classOf, classes, tab)
	w.pk.w, w.pk.pos, w.pk.order = w, w.pos, w.order
	// installRow's edge scratch: a first install adds about two edges per
	// load, and a group is 2 + threads edges.
	const groupCap = 16
	edges := make([]graph.Edge, 2*len(w.loads)+2*groupCap)
	w.oldG, edges = edges[:0:groupCap], edges[groupCap:]
	w.newG, edges = edges[:0:groupCap], edges[groupCap:]
	w.added = edges[:0]
	w.clearDyn()
	return w
}

// wsPool recycles workspaces across checking runs: sharded checking calls a
// backend once per shard against one shared builder.
var wsPool sync.Pool

// getWorkspace returns a workspace shaped for b that holds no graph, so an
// order-maintaining run's first item installs from nothing, and none of the
// marks Pearce–Kelly left in it: epochs start over.
func getWorkspace(b *graph.Builder) *workspace {
	w := pooled(&wsPool, b, newWorkspace)
	w.clearDyn()
	w.bq.reset()
	w.pk.epoch = 0
	clear(w.pk.visited)
	return w
}

// cyclic is the conventional baseline (tsort in the paper): an independent
// full topological sort of every graph, vertex structures recycled, edges
// rebuilt.
func (w *workspace) cyclic(dyn []graph.Edge, res *Result) bool {
	w.setDyn(dyn)
	res.SortedVertices += int64(w.n)
	_, ok := w.fullSort(false)
	return !ok
}

// clearDyn empties the current graph: no dynamic edge, no installed item.
func (w *workspace) clearDyn() {
	for u := range w.dyn {
		w.dyn[u] = w.dyn[u][:0]
	}
	for l := range w.row {
		w.row[l] = graph.NoObservation
	}
	w.installed, w.list = false, nil
}

// install makes the item's graph the current one and returns the dynamic edges
// it has that the graph installed before it lacks (valid until the next install;
// in no particular order). Installing the last valid item again is the
// rollback after a cyclic one. A workspace holds a row or a list, so a run's
// items must all have the shape of its first.
func (w *workspace) install(it Item) ([]graph.Edge, error) {
	rows := it.RF != nil
	if w.installed && rows != w.rows {
		return nil, errors.New("items mix edge lists and reads-from rows")
	}
	w.installed, w.rows = true, rows
	if rows {
		return w.installRow(it.RF)
	}
	w.setDyn(it.Edges)
	w.edgeBuf = diffEdges(w.edgeBuf[:0], it.Edges, w.list)
	w.list = it.Edges
	return w.edgeBuf, nil
}

// diffEdges appends the edges of cur not present in prev to out; both
// inputs are sorted (graph.DynamicEdges order).
func diffEdges(out, cur, prev []graph.Edge) []graph.Edge {
	i, j := 0, 0
	for i < len(cur) {
		switch {
		case j >= len(prev) || less(cur[i], prev[j]):
			out = append(out, cur[i])
			i++
		case less(prev[j], cur[i]):
			j++
		default:
			i++
			j++
		}
	}
	return out
}

func less(a, b graph.Edge) bool { return compareEdges(a, b) < 0 }

// compareEdges orders edges by (U, V): graph.Builder.DynamicEdges order.
func compareEdges(a, b graph.Edge) int {
	if a.U != b.U {
		return int(a.U) - int(b.U)
	}
	return int(a.V) - int(b.V)
}

// setDyn installs one graph's dynamic edges, clearing the previous graph's.
// (No row is installed in a run of list items, so there is none to forget.)
func (w *workspace) setDyn(edges []graph.Edge) {
	for u := range w.dyn {
		w.dyn[u] = w.dyn[u][:0]
	}
	for _, e := range edges {
		w.dyn[e.U] = append(w.dyn[e.U], e.V)
	}
}

// installRow makes the graph of the reads-from row rf the current one and
// returns the dynamic edges it has that the previously installed row's graph
// lacks, in load order (valid until the next install). Under static ws the
// edge set is the disjoint union of per-load groups, each a function of its
// load's source, so only the loads whose source changed are visited: their
// old group leaves dyn and their new one enters it, less the edges the two
// share. The row must be one graph.Builder.CheckRF accepts; a bad source is
// reported before its load is touched, leaving dyn and the installed row
// consistent.
func (w *workspace) installRow(rf []int32) ([]graph.Edge, error) {
	if len(rf) < w.n {
		return nil, fmt.Errorf("reads-from row has %d entries, need %d", len(rf), w.n)
	}
	added := w.added[:0]
	for _, l := range w.loads {
		src, old := rf[l], w.row[l]
		if src == old {
			continue
		}
		newG, err := w.owner.AppendLoadEdges(w.newG[:0], l, src)
		if err != nil {
			return nil, err
		}
		oldG, _ := w.owner.AppendLoadEdges(w.oldG[:0], l, old) // accepted when it was installed
		w.oldG, w.newG = oldG, newG
		for _, e := range oldG {
			if !slices.Contains(newG, e) {
				w.dyn[e.U] = removeSorted(w.dyn[e.U], e.V)
			}
		}
		for _, e := range newG {
			if !slices.Contains(oldG, e) {
				w.dyn[e.U] = insertSorted(w.dyn[e.U], e.V)
				added = append(added, e)
			}
		}
		w.row[l] = src
	}
	w.added = added
	return added, nil
}

// insertSorted inserts v into the ascending list; removeSorted deletes it.
// Dynamic out-lists are a handful of entries, so both scan.
func insertSorted(list []int32, v int32) []int32 {
	i := len(list)
	list = append(list, v)
	for ; i > 0 && list[i-1] > v; i-- {
		list[i] = list[i-1]
	}
	list[i] = v
	return list
}

func removeSorted(list []int32, v int32) []int32 {
	i := slices.Index(list, v)
	return append(list[:i], list[i+1:]...)
}

// fullSort runs Kahn's algorithm over the whole current graph, returning a
// topological order (valid until the next sort) and whether one exists.
//
// The prioritized variant is the collective checker's key heuristic: ready
// vertices pop in word-major class order, clustering each shared word's
// stores and loads into a contiguous region whenever the program-order
// edges permit (always under RMO, where no cross-word po edges exist
// without fences). Every dynamic edge — rf, fr, ws — connects operations on
// the same word, so the edge changes between adjacent sorted signatures
// tend to fall inside word regions, keeping re-sort windows small. Under
// stronger models the po chains stretch the clusters apart — which is
// exactly why the paper's collective-checking benefit is smaller on x86
// than on ARM.
func (w *workspace) fullSort(prioritized bool) ([]int32, bool) {
	indeg := w.indeg
	for i := range indeg {
		indeg[i] = 0
	}
	for u := 0; u < w.n; u++ {
		for _, v := range w.static[u] {
			indeg[v]++
		}
		for _, v := range w.dyn[u] {
			indeg[v]++
		}
	}
	out := w.out[:0]
	if !prioritized {
		// Plain FIFO Kahn: the conventional baseline needs no particular
		// tie-breaking.
		queue := w.queue[:0]
		for v := int32(0); v < int32(w.n); v++ {
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			out = append(out, u)
			for _, v := range w.static[u] {
				if indeg[v]--; indeg[v] == 0 {
					queue = append(queue, v)
				}
			}
			for _, v := range w.dyn[u] {
				if indeg[v]--; indeg[v] == 0 {
					queue = append(queue, v)
				}
			}
		}
		w.queue = queue[:0]
		w.out = out
		return out, len(out) == w.n
	}
	bq := &w.bq
	for v := int32(0); v < int32(w.n); v++ {
		if indeg[v] == 0 {
			bq.push(int(w.classOf[v]), v)
		}
	}
	for bq.size > 0 {
		u := bq.pop()
		out = append(out, u)
		for _, v := range w.static[u] {
			if indeg[v]--; indeg[v] == 0 {
				bq.push(int(w.classOf[v]), v)
			}
		}
		for _, v := range w.dyn[u] {
			if indeg[v]--; indeg[v] == 0 {
				bq.push(int(w.classOf[v]), v)
			}
		}
	}
	w.out = out
	return out, len(out) == w.n
}

// completeSort is how an order-maintaining run starts, and starts again until
// some graph is valid: the current graph sorted from scratch into the
// maintained order, recorded in res as KindComplete. It reports whether there
// is one.
func (w *workspace) completeSort(res *Result) bool {
	res.SortedVertices += int64(w.n)
	res.PerGraph = append(res.PerGraph, GraphStat{Kind: KindComplete, Affected: w.n})
	full, ok := w.fullSort(true)
	if ok {
		copy(w.order, full)
		for p, v := range w.order {
			w.pos[v] = int32(p)
		}
	}
	return ok
}

// windowSort topologically re-sorts the vertices at positions [lo, hi] of
// order against the current graph, with the same word-major tie-breaking as
// the prioritized fullSort. Window positions are contiguous, so a window
// vertex's local index is pos[v]-lo; crossing edges impose no
// window-internal constraints (see the package comment's proof sketch).
// The induced adjacency is materialized once into recycled buffers so the
// pop phase runs without membership checks.
func (w *workspace) windowSort(order, pos []int32, lo, hi int32) ([]int32, bool) {
	size := int32(hi - lo + 1)
	verts := order[lo : hi+1]
	indeg := w.indeg[:size]
	for k := range indeg {
		indeg[k] = 0
	}
	ladj := w.ladj[:size]
	usize := uint32(size)
	for k, u := range verts {
		edges := ladj[k][:0]
		for _, v := range w.static[u] {
			if lv := uint32(pos[v] - lo); lv < usize {
				edges = append(edges, int32(lv))
				indeg[lv]++
			}
		}
		for _, v := range w.dyn[u] {
			if lv := uint32(pos[v] - lo); lv < usize {
				edges = append(edges, int32(lv))
				indeg[lv]++
			}
		}
		ladj[k] = edges
	}
	bq := &w.bq
	for k := int32(0); k < size; k++ {
		if indeg[k] == 0 {
			bq.push(int(w.classOf[verts[k]]), k)
		}
	}
	out := w.out[:0]
	for bq.size > 0 {
		lu := bq.pop()
		out = append(out, verts[lu])
		for _, lv := range ladj[lu] {
			if indeg[lv]--; indeg[lv] == 0 {
				bq.push(int(w.classOf[verts[lv]]), lv)
			}
		}
	}
	w.out = out
	if len(out) != int(size) {
		return nil, false
	}
	return out, true
}

// succs calls fn for every successor of u in the current graph.
func (w *workspace) succs(u int32, fn func(v int32)) {
	for _, v := range w.static[u] {
		fn(v)
	}
	for _, v := range w.dyn[u] {
		fn(v)
	}
}
