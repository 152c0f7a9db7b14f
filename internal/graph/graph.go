// Package graph builds and checks constraint graphs for test executions
// (paper §2): vertices are the program's operations; edges are the
// program-order constraints the memory consistency model enforces (computed
// statically, shared by all executions of a test) plus the dynamic
// reads-from (rf), from-read (fr), and write-serialization (ws) edges
// observed in one execution. An execution violates the MCM exactly when its
// constraint graph has a cycle, i.e. no topological sort exists.
package graph

import (
	"errors"
	"fmt"
	"slices"

	"mtracecheck/internal/mcm"
	"mtracecheck/internal/prog"
)

// Edge is one directed constraint: U happens before V. U and V are
// operation IDs.
type Edge struct {
	U, V int32
}

// WS maps each shared word to its stores' op IDs in write-serialization
// (coherence) order.
type WS = map[int][]int

// Options tunes edge construction for the platform's store atomicity.
type Options struct {
	// Forwarding marks a platform with store-to-load forwarding (multi-copy
	// or weaker atomicity): a load may read its own thread's latest store
	// from the store buffer before that store is globally visible.
	//
	// On such platforms the intra-thread same-address store→load ordering
	// cannot be assumed: neither a static po edge nor an rf edge is added
	// for a load that read its own store — treating them as ordered
	// produces the false positives of the paper's §8 footnote. Coherence is
	// still enforced precisely: when a load did NOT read its own latest
	// preceding store, forwarding cannot have occurred, so a dynamic
	// store→load edge is added conditionally (the TSOtool/Arvind–Maessen
	// treatment).
	Forwarding bool

	// WS selects how write-serialization constraints enter the graph.
	WS WSMode

	// DropFR omits every from-read edge (all load→store constraints),
	// emulating the constraint graphs the paper evidently used on its ARM
	// system: §8 observes that with tsort "stores do not depend on any load
	// operations in absence of memory barriers", which only holds when no
	// fr edges enter the graph — and it is what makes the paper's ARM
	// checking need almost no re-sorting (every dynamic edge is then
	// store→load and stores sort first). The cost is blindness to
	// fr-dependent violations (e.g. CoRR); see the `fr` ablation.
	DropFR bool
}

// WSMode selects the source of write-serialization (ws) edges.
type WSMode uint8

const (
	// WSStatic is the paper's mode: write serialization is "gathered
	// statically during the instrumentation process" (§3.2). Only
	// statically known ws facts are used — same-thread same-word store
	// order (already part of the static po edges) — and fr edges are
	// derived from rf alone: a load reading store s precedes s's next
	// same-thread same-word store, and a load reading the initial value
	// precedes every thread's first store to the word. Cross-thread store
	// serialization is not constrained, which admits the false-negative
	// class the paper acknowledges ("if some dependency edges are missing,
	// false negatives may result", §2) but makes the constraint graph a
	// pure function of the signature — the property the collective
	// checker's similarity windows rely on.
	WSStatic WSMode = iota
	// WSObserved additionally uses the per-execution coherence order
	// recorded by the platform harness: full ws chains and precise fr
	// edges. More violations are detectable; adjacent graphs differ more.
	WSObserved
)

// opInfo is the builder's flat per-operation record, indexed by op ID: what
// edge construction needs of a prog.Op, without the thread scan and struct
// copy of Program.OpByID.
type opInfo struct {
	word   int32 // shared-word index; -1 for fences
	thread int32
	kind   prog.OpKind
}

// Builder constructs constraint graphs for many executions of one program
// under one model, amortizing the static program-order edges. The program
// must be valid (prog.Program.Validate): IDs dense and thread-major, words
// below NumWords.
type Builder struct {
	opts     Options
	n        int
	numWords int
	ops      []opInfo  // by op ID
	static   [][]int32 // static adjacency: po (model) + same-address + fences
	statCnt  int
	// lastOwnStore[load] is the latest preceding same-thread same-word store
	// (the conditional forwarding edge's source), -1 when there is none.
	lastOwnStore []int32
	// nextOwnStore[store] is the next same-thread same-word store (the static
	// fr target in WSStatic mode), -1 when there is none.
	nextOwnStore []int32
	// firstStores[firstOff[w]:firstOff[w+1]] lists each thread's first store
	// to word w in thread order (static fr targets for initial-value reads
	// in WSStatic mode).
	firstOff    []int32
	firstStores []int32
	// loads lists every load op ID in ID order (for the dense rf path).
	loads []int32
}

// noStore marks "no such store" in the builder's dense int32 tables.
const noStore = -1

// NewBuilder precomputes the static (execution-independent) edges.
func NewBuilder(p *prog.Program, model mcm.Model, opts Options) *Builder {
	n := p.NumOps()
	b := &Builder{opts: opts, n: n, numWords: p.NumWords, ops: make([]opInfo, n)}
	numLoads := 0
	for ti, th := range p.Threads {
		for _, op := range th.Ops {
			b.ops[op.ID] = opInfo{word: int32(op.Word), thread: int32(ti), kind: op.Kind}
			if op.Kind == prog.Load {
				numLoads++
			}
		}
	}

	ko := newKindOrder(model, opts)
	po := poScratch{
		words: make([]wordCount, b.numWords),
		off:   make([]int32, n+1),
		edges: make([]int32, 0, 2*n),
	}
	tab := make([]int32, 2*n+numLoads+b.numWords)
	for i := range tab {
		tab[i] = noStore
	}
	b.lastOwnStore, tab = tab[:n:n], tab[n:]
	b.nextOwnStore, tab = tab[:n:n], tab[n:]
	b.loads, tab = tab[:0:numLoads], tab[numLoads:]
	latest := tab // word -> the current thread's latest store so far
	type firstStore struct{ word, id int32 }
	var firsts []firstStore
	next := 0
	for _, th := range p.Threads {
		ops := b.ops[next : next+len(th.Ops)]
		po.threadPO(ops, int32(next), &ko)
		for i, op := range ops {
			id := int32(next + i)
			switch op.kind {
			case prog.Load:
				b.loads = append(b.loads, id)
				b.lastOwnStore[id] = latest[op.word]
			case prog.Store:
				if st := latest[op.word]; st != noStore {
					b.nextOwnStore[st] = id
				} else {
					firsts = append(firsts, firstStore{op.word, id})
				}
				latest[op.word] = id
			}
		}
		for _, op := range ops { // reset what this thread touched: O(ops), not O(words)
			if op.kind == prog.Store {
				latest[op.word] = noStore
			}
		}
		next += len(th.Ops)
	}
	po.off[n] = int32(len(po.edges))

	// Per-vertex lists are carved from the one edge array; a vertex without
	// successors keeps a nil list.
	b.statCnt = len(po.edges)
	b.static = make([][]int32, n)
	for u := range b.static {
		if lo, hi := po.off[u], po.off[u+1]; lo < hi {
			b.static[u] = po.edges[lo:hi:hi]
		}
	}

	// firsts is in thread order; a counting sort by word keeps that order
	// within each word.
	b.firstOff = make([]int32, b.numWords+1)
	for _, f := range firsts {
		b.firstOff[f.word+1]++
	}
	for w := 0; w < b.numWords; w++ {
		b.firstOff[w+1] += b.firstOff[w]
	}
	b.firstStores = make([]int32, len(firsts))
	cursor := latest // no longer needed as such
	copy(cursor, b.firstOff)
	for _, f := range firsts {
		b.firstStores[cursor[f.word]] = f.id
		cursor[f.word]++
	}
	return b
}

// kindOrder is the model's preserved-program-order predicate resolved into
// tables, once per builder. Program order from an earlier op of kind a to a
// later op of kind c of one thread is preserved when diff[a][c] (the two
// access different words: the model's kind matrix) or same[a][c] (the same
// word: coherence, less store→load on forwarding platforms, where the load
// may be satisfied from the store buffer before the store is globally
// visible; that ordering is reinstated per execution by the dynamic edges
// when no forwarding occurred). Fences order against everything.
type kindOrder struct {
	diff, same [numKinds][numKinds]bool
	// The same rows as masks over the memory kinds (bit c = kind c), for
	// threadPO's saturation test.
	diffMask, sameMask [numKinds]uint8
}

const numKinds = 3 // prog.Load, prog.Store, prog.Fence

var memKinds = [...]prog.OpKind{prog.Load, prog.Store}

func newKindOrder(model mcm.Model, opts Options) kindOrder {
	var ko kindOrder
	for a := prog.OpKind(0); a < numKinds; a++ {
		for c := prog.OpKind(0); c < numKinds; c++ {
			if a == prog.Fence || c == prog.Fence {
				ko.diff[a][c], ko.same[a][c] = true, true
				continue
			}
			ko.diff[a][c] = model.Ordered(a, c)
			ko.same[a][c] = !(opts.Forwarding && a == prog.Store && c == prog.Load)
		}
		for _, c := range memKinds {
			if ko.diff[a][c] {
				ko.diffMask[a] |= 1 << c
			}
			if ko.same[a][c] {
				ko.sameMask[a] |= 1 << c
			}
		}
	}
	return ko
}

// wordCount counts, per memory kind, the ops on one word in the current
// succ(i) of threadPO; stamp says which i the counts belong to, so the table
// is never cleared.
type wordCount struct {
	stamp int32
	cnt   [2]int32
}

// poScratch is what threadPO works in: the edge array all threads append to,
// each vertex's offset into it, and the per-word successor counts.
type poScratch struct {
	edges []int32
	off   []int32
	words []wordCount
	stamp int32
}

// threadPO appends a transitive reduction of one thread's preserved program
// order: the edge (i,j), for i before j with the pair ordered, is skipped
// when some k between them is ordered after i and before j, as the two
// shorter edges imply the longer one (induction on span length keeps
// reachability intact). ops is the thread's slice of Builder.ops and first
// its first op ID.
//
// For a fixed i the scan over j ascending keeps a summary of succ(i), the ops
// seen so far that are ordered after i, and tests for a witness k in O(1):
// whether a successor exists at all, how many there are of each kind, and how
// many of each kind on each word. (i,j) is implied iff j is a fence and
// succ(i) is non-empty, or some kind K has a successor on another word than
// j's with diff[K][kind j], or one on j's word with same[K][kind j].
//
// The scan ends at the first fence: the fence is ordered after i and before
// everything later, so it witnesses every later pair. It also ends once
// succ(i) is saturated — every kind a later op could have and still be
// ordered after i already has a witness that holds whatever that op's word
// is — because then no later j can add an edge. Under SC and TSO the first or
// second successor saturates (amortized O(1) steps per op); under PSO and RMO
// an op's scan runs to the next ops on its own word, O(n) in the worst case.
func (po *poScratch) threadPO(ops []opInfo, first int32, ko *kindOrder) {
	for i, oi := range ops {
		po.off[int(first)+i] = int32(len(po.edges))
		po.stamp++
		var cnt [2]int32 // successors of each memory kind
		// anyWord: the kinds i orders after itself on every word; need: the
		// kinds a later op can have and be ordered after i, on any word or on
		// i's own only, that no successor witnesses yet.
		anyWord := ko.diffMask[oi.kind]
		need := anyWord | ko.sameMask[oi.kind]
		for j := i + 1; j < len(ops); j++ {
			oj := ops[j]
			if oj.kind == prog.Fence {
				if cnt[prog.Load]+cnt[prog.Store] == 0 {
					po.edges = append(po.edges, first+int32(j))
				}
				break
			}
			sameWord := oj.word == oi.word
			if sameWord && !ko.same[oi.kind][oj.kind] || !sameWord && !ko.diff[oi.kind][oj.kind] {
				continue
			}
			wc := &po.words[oj.word]
			if wc.stamp != po.stamp {
				*wc = wordCount{stamp: po.stamp}
			}
			implied := false
			for _, k := range memKinds {
				if on := wc.cnt[k]; on > 0 && ko.same[k][oj.kind] || cnt[k] > on && ko.diff[k][oj.kind] {
					implied = true
					break
				}
			}
			if !implied {
				po.edges = append(po.edges, first+int32(j))
			}
			cnt[oj.kind]++
			wc.cnt[oj.kind]++
			// j witnesses every later op of a kind it orders on both its own
			// word and the others. Where i orders a kind on i's word only,
			// the later op is on i's word and j's relation to that word is
			// known.
			onIWord := ko.diffMask[oj.kind]
			if sameWord {
				onIWord = ko.sameMask[oj.kind]
			}
			need &^= ko.diffMask[oj.kind]&ko.sameMask[oj.kind]&anyWord | onIWord&^anyWord
			if need == 0 {
				break
			}
		}
	}
}

// NumOps returns the vertex count.
func (b *Builder) NumOps() int { return b.n }

// Static returns the static adjacency every graph of the builder shares
// (Graph.Static). Callers must not modify it.
func (b *Builder) Static() [][]int32 { return b.static }

// StaticWS reports whether the builder is in the static ws mode, where a
// graph's dynamic edges are a function of its reads-from row alone (CheckRF,
// AppendLoadEdges) and an observed write serialization plays no part.
func (b *Builder) StaticWS() bool { return b.opts.WS == WSStatic }

// StaticEdgeCount returns the number of static (po) edges.
func (b *Builder) StaticEdgeCount() int { return b.statCnt }

// DynamicEdges computes the execution-dependent edges — rf, fr, and ws — in
// deterministic sorted order (suitable for set-diffing by the collective
// checker).
//
//   - ws: consecutive stores per word in coherence order.
//   - rf: source store → load (skipped intra-thread unless opted in).
//   - fr: load → the immediate ws-successor of the store it read; reads of
//     the initial value precede the word's first store. Transitivity
//     through the ws chain covers later stores.
//
// rf is the dense reads-from row AppendDynamicEdges takes.
func (b *Builder) DynamicEdges(rf []int32, ws WS) ([]Edge, error) {
	return b.AppendDynamicEdges(nil, rf, ws)
}

// NoObservation is the dense-rf entry of a load whose source is unknown (any
// entry below -1 reads the same): the load contributes no edge.
const NoObservation = -2

// AppendDynamicEdges is DynamicEdges appending to dst. rf is the dense
// reads-from row, indexed by op ID (rf[loadID] = source store op ID, or -1 for
// a read of the initial value — the shape instrument.Meta.DecodeInto fills).
// Every load op must have an entry; one below -1 marks a load whose source is
// unknown (a trace's value-faulted load), which contributes no edge. Non-load
// slots are ignored. Edges are appended to dst (callers reuse a scratch buffer
// via dst[:0]) and the sorted, de-duplicated result is returned.
func (b *Builder) AppendDynamicEdges(dst []Edge, rf []int32, ws WS) ([]Edge, error) {
	if len(rf) < b.n {
		return nil, fmt.Errorf("graph: dense rf has %d entries, need %d", len(rf), b.n)
	}
	edges, wsPos, err := b.startDynamicEdges(dst, ws)
	if err != nil {
		return nil, err
	}
	for _, loadID := range b.loads {
		if rf[loadID] <= NoObservation {
			continue
		}
		edges, err = b.appendLoadEdges(edges, loadID, rf[loadID], ws, wsPos)
		if err != nil {
			return nil, err
		}
	}
	sortEdges(edges)
	return dedupEdges(edges), nil
}

// Loads lists every load's op ID in ascending order. The slice is the
// builder's own; callers must not modify it.
func (b *Builder) Loads() []int32 { return b.loads }

// AppendLoadEdges appends the edges one load contributes to the graph when it
// reads from storeID (-1 = the initial value; NoObservation or below = no
// edge). In the static ws mode every dynamic edge has exactly one load
// endpoint and is a function of that load's source alone, so the list
// AppendDynamicEdges returns is the disjoint union of these groups, sorted:
// two executions' graphs differ by the groups of the loads whose source
// differs. A group has at most 2 + threads edges, none repeated. loadID must
// come from Loads. It is an error under WSObserved, where a load's fr edge
// depends on the execution's coherence order.
func (b *Builder) AppendLoadEdges(dst []Edge, loadID, storeID int32) ([]Edge, error) {
	if !b.StaticWS() {
		return nil, errors.New("graph: per-load edge groups need the static ws mode")
	}
	if storeID <= NoObservation {
		return dst, nil
	}
	return b.appendLoadEdges(dst, loadID, storeID, nil, nil)
}

// CheckRF reports the first load of a dense reads-from row whose source
// AppendDynamicEdges would reject in the static ws mode — without building an
// edge.
func (b *Builder) CheckRF(rf []int32) error {
	if len(rf) < b.n {
		return fmt.Errorf("graph: dense rf has %d entries, need %d", len(rf), b.n)
	}
	for _, loadID := range b.loads {
		if err := b.checkSource(loadID, rf[loadID]); err != nil {
			return err
		}
	}
	return nil
}

// checkSource rejects a reads-from source that is not a store to the load's
// word; any negative source (initial value, no observation) is acceptable.
func (b *Builder) checkSource(loadID, storeID int32) error {
	if storeID < 0 {
		return nil
	}
	if int(storeID) >= b.n || b.ops[storeID].kind != prog.Store || b.ops[storeID].word != b.ops[loadID].word {
		return fmt.Errorf("graph: rf store %d incompatible with load %d", storeID, loadID)
	}
	return nil
}

// startDynamicEdges emits the ws-chain edges and builds the store→position
// index when coherence order is observed; in static mode it does nothing
// (and allocates nothing).
func (b *Builder) startDynamicEdges(edges []Edge, ws WS) ([]Edge, map[int]int, error) {
	if b.opts.WS != WSObserved {
		return edges, nil, nil
	}
	wsPos := make(map[int]int, 64) // store ID -> position within its word's order
	for _, stores := range ws {
		for i, s := range stores {
			wsPos[s] = i
			if i > 0 {
				edges = append(edges, Edge{int32(stores[i-1]), int32(s)})
			}
		}
	}
	return edges, wsPos, nil
}

// appendLoadEdges emits the rf/fr/forwarding edges contributed by one load
// reading from storeID (noStore = initial value). wsPos is non-nil exactly
// in observed mode.
func (b *Builder) appendLoadEdges(edges []Edge, loadID, storeID int32, ws WS, wsPos map[int]int) ([]Edge, error) {
	observed := wsPos != nil
	load := b.ops[loadID]
	own := b.lastOwnStore[loadID]
	if storeID < 0 {
		// Read the initial value: the load precedes every store to the
		// word. Observed mode: the first store in coherence order
		// suffices (ws chains cover the rest). Static mode: each
		// thread's first store to the word. (DropFR omits these
		// load→store constraints entirely.)
		if b.opts.DropFR {
			// no fr edges
		} else if observed {
			if chain := ws[int(load.word)]; len(chain) > 0 {
				edges = append(edges, Edge{loadID, int32(chain[0])})
			}
		} else {
			for _, st := range b.firstStores[b.firstOff[load.word]:b.firstOff[load.word+1]] {
				edges = append(edges, Edge{loadID, st})
			}
		}
		if own != noStore && b.opts.Forwarding {
			// Reading the initial value despite an own preceding store
			// is a uniprocessor violation; the reinstated edge (plus the
			// fr edge above) exposes it as a cycle.
			edges = append(edges, Edge{own, loadID})
		}
		return edges, nil
	}
	if err := b.checkSource(loadID, storeID); err != nil {
		return nil, err
	}
	// Forwarding lets a load read its own thread's earlier store before the
	// store is globally visible, so that rf edge orders nothing. Every other
	// read keeps its edge: another thread's store, any read under
	// single-copy atomicity (the read implies global visibility), and a read
	// of the thread's own later store (IDs are thread-major, so a larger ID
	// is later in program order), which the edge turns into a cycle.
	if b.ops[storeID].thread != load.thread || !b.opts.Forwarding || storeID > loadID {
		edges = append(edges, Edge{storeID, loadID})
	}
	if b.opts.Forwarding {
		// No forwarding happened if the load read anything other than
		// its own latest preceding store: reinstate the same-address
		// store→load program order for this execution.
		if own != noStore && own != storeID {
			edges = append(edges, Edge{own, loadID})
		}
	}
	// from-read: the load precedes whatever overwrites the store it
	// read. Observed mode: the immediate coherence-order successor.
	// Static mode: the store's next same-thread same-word store.
	if b.opts.DropFR {
		return edges, nil
	}
	if observed {
		pos, ok := wsPos[int(storeID)]
		if !ok {
			return nil, fmt.Errorf("graph: rf store %d missing from ws of word %d", storeID, load.word)
		}
		if chain := ws[int(load.word)]; pos+1 < len(chain) {
			edges = append(edges, Edge{loadID, int32(chain[pos+1])})
		}
	} else if next := b.nextOwnStore[storeID]; next != noStore {
		edges = append(edges, Edge{loadID, next})
	}
	return edges, nil
}

func sortEdges(edges []Edge) {
	slices.SortFunc(edges, func(a, b Edge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	})
}

// dedupEdges removes duplicates from a sorted edge slice in place.
func dedupEdges(edges []Edge) []Edge {
	if len(edges) == 0 {
		return edges
	}
	out := edges[:1]
	for _, e := range edges[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}

// Graph is one execution's constraint graph: shared static adjacency plus
// this execution's dynamic edges.
type Graph struct {
	N       int
	Static  [][]int32
	Dynamic []Edge
	dynAdj  [][]int32
}

// FromDynamic assembles a graph from precomputed dynamic edges.
func (b *Builder) FromDynamic(dyn []Edge) *Graph {
	g := &Graph{N: b.n, Static: b.static, Dynamic: dyn}
	g.dynAdj = make([][]int32, b.n)
	for _, e := range dyn {
		g.dynAdj[e.U] = append(g.dynAdj[e.U], e.V)
	}
	return g
}

// Out calls fn for every successor of u.
func (g *Graph) Out(u int32, fn func(v int32)) {
	for _, v := range g.Static[u] {
		fn(v)
	}
	for _, v := range g.dynAdj[u] {
		fn(v)
	}
}

// FindCycle returns the operations of one cycle when the graph is cyclic
// (for diagnostics in the style of the paper's Fig. 13), or nil.
func (g *Graph) FindCycle() []int32 {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, g.N)
	parent := make([]int32, g.N)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int32
	var dfs func(u int32) bool
	dfs = func(u int32) bool {
		color[u] = gray
		found := false
		g.Out(u, func(v int32) {
			if found {
				return
			}
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					found = true
				}
			case gray:
				// Back edge u->v closes a cycle v -> ... -> u -> v.
				cyc := []int32{v}
				for x := u; x != v && x >= 0; x = parent[x] {
					cyc = append(cyc, x)
				}
				// Reverse into forward order v, ..., u.
				for i, j := 1, len(cyc)-1; i < j; i, j = i+1, j-1 {
					cyc[i], cyc[j] = cyc[j], cyc[i]
				}
				cycle = cyc
				found = true
			}
		})
		color[u] = black
		return found
	}
	for v := int32(0); v < int32(g.N); v++ {
		if color[v] == white && dfs(v) {
			return cycle
		}
	}
	return nil
}

// WordClass returns a per-operation priority class grouping operations by
// the shared word they access: fences first (class 0), then per word its
// stores (class 1+2w) followed by its loads (class 2+2w). NumWordClasses
// gives the class count. The collective checker pops ready vertices in
// class order, clustering each word's operations in its topological orders
// whenever program order permits; all dynamic edges are word-local, so edge
// changes between similar executions tend to stay inside small windows.
func (b *Builder) WordClass() (classOf []int32, classes int) {
	classOf = make([]int32, b.n)
	for id, op := range b.ops {
		switch op.kind {
		case prog.Fence:
			classOf[id] = 0
		case prog.Store:
			classOf[id] = 1 + 2*op.word
		case prog.Load:
			classOf[id] = 2 + 2*op.word
		}
	}
	return classOf, 2*b.numWords + 1
}
