package check

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/sig"
)

// workspace holds the recycled vertex data structures the sorting checkers
// run on (the paper recycles vertex structures across graphs, §6.2). One
// workspace serves one program's builder.
//
// The order-maintaining checkers make an item the current graph through
// install, which is where the two item shapes part and the only place that
// knows a run holds one of them throughout. A row item (Item.Row) is installed
// as a delta: its source reports the loads whose source may differ from the
// installed row's (a signature's source, those in the words that differ), and
// installRow edits dyn in place for those whose source does, so the edge
// structures are recycled too and an item costs what changed. An edge list
// (Item.Edges) replaces dyn wholesale (setDyn) and is diffed against the list
// installed before it.
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
	// (graph.NoObservation: none), and src and sig the installed row item's,
	// while row is its whole row (src nil: no such item). oldG/newG are one
	// load's group before and after. An edge a delta install adds goes into
	// heads[e.U], with bit e.U of tails set, and the list it returns is one
	// walk over tails into added.
	row        []int32
	src        RowSource
	sig        sig.Signature
	added      []graph.Edge
	oldG, newG []graph.Edge
	tails      []uint64
	heads      [][]int32

	// Predecessor lists, for Pearce–Kelly's backward search, made at a
	// workspace's first repair: spred is the transpose of static; pred is the
	// transpose of dyn, built at a run's first repair and kept current by
	// install while predsLive. Both ascend.
	spred, pred [][]int32
	predsLive   bool

	pk pkState // Incremental's order-repair state
}

func newWorkspace(b *graph.Builder) *workspace {
	n := b.NumOps()
	classOf, classes := b.WordClass()
	adj := make([][]int32, 2*n)
	w := &workspace{
		scratch: scratch{owner: b},
		n:       n,
		static:  b.Static(),
		dyn:     adj[:n:n],
		classOf: classOf,
		ladj:    adj[n:],
	}
	// Every fixed int32 table comes from one array, Pearce–Kelly's tables
	// and scratch included.
	tab := make([]int32, 15*n+bucketQueueInts(n, classes))
	carve := func() []int32 {
		t := tab[:n:n]
		tab = tab[n:]
		return t
	}
	w.indeg, w.pos, w.order, w.row = carve(), carve(), carve(), carve()
	w.out, w.queue = carve()[:0], carve()[:0]
	w.rowBuf, w.setBuf = carve(), carve()[:0]
	pk := &w.pk
	pk.visited, pk.backupPos, pk.backupOrder = carve(), carve(), carve()
	pk.fwd, pk.bwd, pk.all, pk.slots = carve()[:0], carve()[:0], carve()[:0], carve()[:0]
	w.bq.init(classOf, classes, tab)
	pk.w, pk.pos, pk.order = w, w.pos, w.order
	carveLists(w.dyn, func(v int) int { out, _ := w.listSizes(v); return out })
	// installRow's edge scratch: an install adds at most about two edges per
	// load, and a group is 2 + threads edges.
	const groupCap = 16
	edges := make([]graph.Edge, 2*len(b.Loads())+2*groupCap)
	w.oldG, edges = edges[:0:groupCap], edges[groupCap:]
	w.newG, edges = edges[:0:groupCap], edges[groupCap:]
	w.added = edges[:0]
	w.clearDyn()
	return w
}

// listCap caps the region a dynamic list is carved at.
const listCap = 16

// listSizes returns how many entries vertex v's dynamic out- and in-lists are
// carved at: the most they can hold, read off the word classes, capped at
// listCap. A dynamic edge joins a store and a load on one word (or, under
// observed ws, two stores), so a store's lists hold at most the loads on its
// word + 1, a load's out-list at most the stores on its word + 1 and its
// in-list its source and its own preceding store. Those bounds grow with a
// word's operations, and carving at them would cost memory quadratic in them
// (TestWorkspaceLinearInOpsPerWord). Real lists are short: a load's edge group
// is 2 + threads edges, and the 7×200-op ARM program's longest list holds 13.
// A list that outgrows its region moves to its own array on append and keeps
// it for the workspace's life.
func (w *workspace) listSizes(v int) (out, in int) {
	count := func(c int32) int { return int(w.bq.off[c+1] - w.bq.off[c]) }
	switch c := w.classOf[v]; {
	case c == 0: // a fence
		return 0, 0
	case c%2 == 1: // a store
		out = min(count(c+1)+1, listCap)
		return out, out
	default: // a load
		return min(count(c-1)+1, listCap), 2
	}
}

// carveLists gives each list a region of one new array, of size(i) entries for
// lists[i].
func carveLists(lists [][]int32, size func(i int) int) {
	total := 0
	for i := range lists {
		total += size(i)
	}
	tab := make([]int32, total)
	for i := range lists {
		k := size(i)
		lists[i], tab = tab[:0:k], tab[k:]
	}
}

// tailLists makes, at a workspace's first delta install, the per-tail head
// lists and their bitset. A workspace that only ever installs into no graph
// (every CheckTraceContext) never makes them.
func (w *workspace) tailLists() {
	if w.heads != nil {
		return
	}
	w.heads = make([][]int32, w.n)
	w.tails = make([]uint64, (w.n+63)/64)
	carveLists(w.heads, func(u int) int { out, _ := w.listSizes(u); return out })
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

// livePreds makes the dynamic predecessor lists current for the rest of the
// run, transposed from the installed graph's dyn; a run that never repairs
// never pays for them, nor for the workspace's predecessor lists at all.
func (w *workspace) livePreds() {
	if w.predsLive {
		return
	}
	if w.pred == nil {
		w.makePreds()
	}
	for v := range w.pred {
		w.pred[v] = w.pred[v][:0]
	}
	for u, succ := range w.dyn {
		for _, v := range succ {
			w.pred[v] = append(w.pred[v], int32(u))
		}
	}
	w.predsLive = true
}

// makePreds carves the predecessor lists, spred filled in.
func (w *workspace) makePreds() {
	n := w.n
	lists := make([][]int32, 2*n)
	indeg := w.indeg
	clear(indeg)
	for _, succ := range w.static {
		for _, v := range succ {
			indeg[v]++
		}
	}
	carveLists(lists, func(i int) int {
		if i < n {
			_, in := w.listSizes(i)
			return in
		}
		return int(indeg[i-n])
	})
	w.pred, w.spred = lists[:n:n], lists[n:]
	for u, succ := range w.static {
		for _, v := range succ {
			w.spred[v] = append(w.spred[v], int32(u))
		}
	}
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
	w.installed, w.list, w.src, w.predsLive = false, nil, nil, false
}

// install makes the item's graph the current one and returns the dynamic edges
// it has that the graph installed before it lacks (valid until the next install;
// in (U,V) order). Into no graph it returns nil: the caller sorts from
// scratch. Installing the last valid item again is the
// rollback after a cyclic one. A workspace holds a row or a list, so a run's
// items must all have the shape of its first.
func (w *workspace) install(it Item) ([]graph.Edge, error) {
	rows := it.Row != nil
	if w.installed && rows != w.rows {
		return nil, errors.New("items mix edge lists and reads-from rows")
	}
	w.rows = rows
	if rows {
		return w.installRow(it)
	}
	fresh := !w.installed
	w.installed = true
	w.setDyn(it.Edges)
	prev := w.list
	w.list = it.Edges
	if fresh {
		return nil, nil
	}
	w.edgeBuf = diffEdges(w.edgeBuf[:0], it.Edges, prev)
	if w.predsLive { // the edges that left, then the ones that came
		w.added = diffEdges(w.added[:0], prev, it.Edges) // a list run has no other use for it
		for _, e := range w.added {
			w.pred[e.V] = removeSorted(w.pred[e.V], e.U)
		}
		for _, e := range w.edgeBuf {
			w.pred[e.V] = insertSorted(w.pred[e.V], e.U)
		}
	}
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

// installRow makes the row item's graph the current one and returns the
// dynamic edges it has that the previously installed row's graph lacks, in
// (U,V) order (valid until the next install). Under static ws the edge set is
// the disjoint union of per-load groups, each a function of its load's source
// (graph.Builder.AppendLoadEdges), so only the loads the item's source reports
// are visited — given the installed item's signature when it is of the same
// source, a decoding source reports the loads of the words that differ — and
// of those only the ones whose source changed do anything: their old group
// leaves dyn and their new one enters it, less the edges the two share. As
// the groups are disjoint, the order of the visits changes nothing. An added
// edge is filed under its tail as it enters, and the list is read out by tail
// at the end, so it needs no sort; into no graph it returns nil, as install
// does. A bad source is reported before its load is touched, leaving dyn and
// row consistent.
func (w *workspace) installRow(it Item) ([]graph.Edge, error) {
	var prev sig.Signature
	if w.src == it.Row {
		prev = w.sig
	}
	rf, set, err := it.Row.DecodeRow(it.Sig, prev, w.rowBuf, w.setBuf)
	if err != nil {
		return nil, err
	}
	if len(rf) < w.n {
		return nil, fmt.Errorf("reads-from row has %d entries, need %d", len(rf), w.n)
	}
	fresh := !w.installed
	w.installed, w.src = true, nil
	if !fresh {
		w.tailLists()
	}
	for _, l := range set {
		src, old := rf[l], w.row[l]
		if src == old {
			continue
		}
		newG, err := w.owner.AppendLoadEdges(w.newG[:0], l, src)
		if err != nil {
			w.takeAdded() // forget what the loads before it added
			return nil, err
		}
		oldG, _ := w.owner.AppendLoadEdges(w.oldG[:0], l, old) // accepted when it was installed
		w.oldG, w.newG = oldG, newG
		for _, e := range oldG {
			if !slices.Contains(newG, e) {
				w.dyn[e.U] = removeSorted(w.dyn[e.U], e.V)
				if w.predsLive {
					w.pred[e.V] = removeSorted(w.pred[e.V], e.U)
				}
			}
		}
		for _, e := range newG {
			if !slices.Contains(oldG, e) {
				w.dyn[e.U] = insertSorted(w.dyn[e.U], e.V)
				if w.predsLive {
					w.pred[e.V] = insertSorted(w.pred[e.V], e.U)
				}
				if !fresh {
					w.tails[e.U>>6] |= 1 << (e.U & 63)
					w.heads[e.U] = insertSorted(w.heads[e.U], e.V)
				}
			}
		}
		w.row[l] = src
	}
	w.src, w.sig = it.Row, it.Sig
	if fresh {
		return nil, nil
	}
	return w.takeAdded(), nil
}

// takeAdded empties the per-tail head lists into added, tail by tail.
func (w *workspace) takeAdded() []graph.Edge {
	added := w.added[:0]
	for i, word := range w.tails {
		for ; word != 0; word &= word - 1 {
			u := int32(i<<6 | bits.TrailingZeros64(word))
			for _, v := range w.heads[u] {
				added = append(added, graph.Edge{U: u, V: v})
			}
			w.heads[u] = w.heads[u][:0]
		}
		w.tails[i] = 0
	}
	w.added = added
	return added
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
	i := 0
	for list[i] != v {
		i++
	}
	for ; i+1 < len(list); i++ {
		list[i] = list[i+1]
	}
	return list[:i]
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
// is one. Only a repair needs the order prioritized; any order gives the
// verdict and the counters, and FindCycle's witness reads the graph alone.
func (w *workspace) completeSort(res *Result, prioritized bool) bool {
	res.SortedVertices += int64(w.n)
	res.PerGraph = append(res.PerGraph, GraphStat{Kind: KindComplete, Affected: w.n})
	full, ok := w.fullSort(prioritized)
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
