package check

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/mem"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
	"mtracecheck/internal/testgen"
)

// The reads-from-row item shape (Item.Row, workspace.installRow) is defined by
// the edge-list shape it replaces on the hot path: a row's graph is
// AppendDynamicEdges(row), and everything an order-maintaining checker
// reports must be what it reports for that list — whether the row is given
// (literalRow) or decoded from the signature as the item is installed
// (instrument.Meta, which decodes only the words that differ from the
// installed item's). Three identities carry this, and the tests below hold
// both row sources to each on simulator data:
//
//	(a) dyn[u] stays in ascending-V order — what setDyn produces from a
//	    (U,V)-sorted list — so the prioritized sorts pop in the same order;
//	(b) "added" is relative to the last valid graph, not the previous item:
//	    after a cyclic graph the checkers put the base row back;
//	(c) install returns added in (U,V) order, so Incremental's Pearce–Kelly
//	    repair sequence is the same (and its predecessor lists, while live,
//	    are the transpose of dyn).

// rowSet is one simulated signature set: sorted uniques and their rows, and
// the metadata they decode with (nil for a set of rows made up by hand).
type rowSet struct {
	name string
	prog *prog.Program
	meta *instrument.Meta
	sigs []sig.Signature
	rows [][]int32
}

// simRows runs cfg's program on plat and decodes the sorted unique signatures
// into reads-from rows; iterations whose values fall outside the candidate
// sets (a buggy platform's assertion failures) are skipped.
func simRows(t testing.TB, name string, cfg testgen.Config, plat sim.Platform, iterations int) rowSet {
	t.Helper()
	p := mustGenerate(cfg)
	meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := sim.NewRunner(plat, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	set := sig.NewSet()
	var words []uint64
	for i := 0; i < iterations; i++ {
		ex, err := runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		words, err = meta.EncodeExecutionInto(words[:0], ex.LoadValues)
		var ae *instrument.AssertionError
		if errors.As(err, &ae) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		set.AddWords(words)
	}
	rs := rowSet{name: name, prog: p, meta: meta}
	for _, u := range set.Sorted() {
		rf := make([]int32, p.NumOps())
		if err := meta.DecodeInto(u.Sig, rf); err != nil {
			t.Fatal(err)
		}
		rs.sigs = append(rs.sigs, u.Sig)
		rs.rows = append(rs.rows, rf)
	}
	return rs
}

// mtbenchRowSets are the programs of the five mtbench workloads (bench/mtbench
// workload.go; offline-check shares the contended program and trace-check the
// reference one), at iteration counts that keep the test quick.
func mtbenchRowSets(t testing.TB) []rowSet {
	rowSetsOnce.Do(func() {
		x86, arm := 256, 48
		if testing.Short() {
			x86, arm = 96, 8
		}
		rowSets = []rowSet{
			simRows(t, "campaign-x86+trace-check", testgen.Config{Threads: 4, OpsPerThread: 50, Words: 64, Seed: 1}, sim.PlatformX86(), x86),
			simRows(t, "campaign-x86-contended+offline-check", testgen.Config{Threads: 4, OpsPerThread: 50, Words: 8, WordsPerLine: 4, Seed: 1}, sim.PlatformX86(), x86),
			simRows(t, "campaign-arm-par", testgen.Config{Threads: 7, OpsPerThread: 200, Words: 64, Seed: 1}, sim.PlatformARM(), arm),
		}
		// The contended program on the gem5 platform with bug 1 (stale S→M
		// invalidation) injected: a set with cyclic graphs in mid-sequence.
		bugRows = simRows(t, "bug-sm-inv", testgen.Config{Threads: 4, OpsPerThread: 50, Words: 8, WordsPerLine: 4, Seed: 1},
			sim.PlatformGem5(mem.Bugs{StaleSMInv: true}, sim.Bugs{}), 512)
	})
	return rowSets
}

func bugRowSet(t testing.TB) rowSet {
	mtbenchRowSets(t)
	return bugRows
}

// The sets are simulated once per test binary and only read afterwards.
var (
	rowSetsOnce sync.Once
	rowSets     []rowSet
	bugRows     rowSet
)

// rowItem is the item of a given row, as NewItem makes it.
func rowItem(b *graph.Builder, s sig.Signature, rf []int32) Item {
	return Item{Sig: s, Row: &literalRow{rf: rf, loads: b.Loads()}}
}

func (rs rowSet) rowItems(b *graph.Builder) []Item {
	items := make([]Item, len(rs.rows))
	for i := range items {
		items[i] = rowItem(b, rs.sig(i), rs.rows[i])
	}
	return items
}

// sigItems are the set's items as a campaign makes them: the signature, with
// the metadata as its row source; nil for a set without metadata.
func (rs rowSet) sigItems() []Item {
	if rs.meta == nil {
		return nil
	}
	items := make([]Item, len(rs.sigs))
	for i := range items {
		items[i] = Item{Sig: rs.sigs[i], Row: rs.meta}
	}
	return items
}

// sig is item i's signature: the set's, or for a set of rows made up by hand
// (no signatures) one that ascends with i.
func (rs rowSet) sig(i int) sig.Signature {
	if rs.sigs == nil {
		return sig.New([]uint64{uint64(i)})
	}
	return rs.sigs[i]
}

func (rs rowSet) listItems(t testing.TB, b *graph.Builder) []Item {
	t.Helper()
	items := make([]Item, len(rs.rows))
	for i := range items {
		edges, err := b.AppendDynamicEdges(nil, rs.rows[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = Item{Sig: rs.sigs[i], Edges: edges}
	}
	return items
}

// walkDelta installs the set's rows one after the other and, at every step,
// compares the delta-maintained adjacency with setDyn of the built list and,
// for every delta install, the returned added edges with the list diff against
// the last valid graph (an install into no graph returns nil). The rows — as
// given and, for a set with metadata, as decoded from the signatures and
// alternating between the two — and the built lists are also installed as the
// checkers install them, and from the second item on with live predecessor
// lists, which must stay the transposes of the adjacency. It returns how many
// graphs were cyclic.
func walkDelta(t *testing.T, b *graph.Builder, rs rowSet) (cyclic int) {
	t.Helper()
	ref, list := newWorkspace(b), newWorkspace(b)
	type walk struct {
		name  string
		w     *workspace
		items []Item
	}
	rows := rs.rowItems(b)
	walks := []walk{{"row", newWorkspace(b), rows}}
	if sigs := rs.sigItems(); sigs != nil {
		// Alternating sources, the given rows under their successors'
		// signatures: a decoding source must not take a given row's
		// signature for the one it holds the row of.
		mixed := slices.Clone(sigs)
		for i := 0; i < len(mixed); i += 2 {
			mixed[i] = rowItem(b, rs.sigs[min(i+1, len(rs.sigs)-1)], rs.rows[i])
		}
		walks = append(walks, walk{"signature", newWorkspace(b), sigs}, walk{"mixed", newWorkspace(b), mixed})
	}
	var baseEdges []graph.Edge // the last valid graph's list; nil: none yet
	base := -1
	for i, rf := range rs.rows {
		want, err := b.AppendDynamicEdges(nil, rf, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh := !list.installed
		listAdded, err := list.install(Item{Edges: want})
		if err != nil {
			t.Fatal(err)
		}
		wantAdded := diffEdges(nil, want, baseEdges)
		if fresh {
			wantAdded = nil
		}
		if !slices.Equal(listAdded, wantAdded) {
			t.Fatalf("item %d: added = %v as a list; list diff against the last valid graph = %v (nil: into no graph)",
				i, listAdded, wantAdded)
		}
		ref.setDyn(want)
		for _, wk := range walks {
			added, err := wk.w.install(wk.items[i])
			if err != nil {
				t.Fatal(err)
			}
			for u := range ref.dyn {
				if !slices.Equal(wk.w.dyn[u], ref.dyn[u]) {
					t.Fatalf("item %d: dyn[%d] = %v after the %s delta, setDyn gives %v", i, u, wk.w.dyn[u], wk.name, ref.dyn[u])
				}
			}
			if !slices.Equal(added, wantAdded) {
				t.Fatalf("item %d: added = %v as a %s; list diff against the last valid graph = %v (nil: into no graph)",
					i, added, wk.name, wantAdded)
			}
			checkPreds(t, i, wk.w)
		}
		checkPreds(t, i, list)
		if _, ok := ref.fullSort(false); ok {
			baseEdges, base = want, i
		} else {
			// Cyclic: roll back as the checkers do.
			cyclic++
			if base < 0 {
				list.clearDyn()
			} else if _, err := list.install(Item{Edges: baseEdges}); err != nil {
				t.Fatal(err)
			}
			checkPreds(t, i, list)
			for _, wk := range walks {
				if base < 0 {
					wk.w.clearDyn()
				} else if _, err := wk.w.install(wk.items[base]); err != nil {
					t.Fatal(err)
				}
				checkPreds(t, i, wk.w)
			}
		}
		// From here on the installs keep them current. The checkers make
		// them live at a repair, so with some graph installed.
		if list.installed {
			list.livePreds()
			for _, wk := range walks {
				wk.w.livePreds()
			}
		}
	}
	return cyclic
}

// checkPreds: while a workspace's predecessor lists are live, they are the
// transposes of its adjacency, list order included.
func checkPreds(t *testing.T, i int, w *workspace) {
	t.Helper()
	if !w.predsLive {
		return
	}
	for _, adj := range []struct {
		name      string
		succ, got [][]int32
	}{{"static", w.static, w.spred}, {"dyn", w.dyn, w.pred}} {
		want := make([][]int32, w.n)
		for u, succ := range adj.succ {
			for _, v := range succ {
				want[v] = append(want[v], int32(u))
			}
		}
		for v := range want {
			if !slices.Equal(adj.got[v], want[v]) {
				t.Fatalf("item %d: predecessors of %d = %v, the transpose of %s gives %v", i, v, adj.got[v], adj.name, want[v])
			}
		}
	}
}

// compareShapes checks the set with every backend at shards 1, 2 and 3 in
// both item shapes, rows given and, for a set with metadata, decoded; the
// Results must be deep-equal — violations with their witnesses and every
// effort counter.
func compareShapes(t *testing.T, b *graph.Builder, rs rowSet, limit int) {
	t.Helper()
	lists := rs.listItems(t, b)
	shapes := map[string][]Item{"row": rs.rowItems(b), "signature": rs.sigItems()}
	for _, name := range Names() {
		be, _ := ForName(name)
		n := len(lists)
		if name == "constraints" || name == "vectorclock" {
			n = min(n, limit) // per-graph backends, orders of magnitude slower
		}
		for shards := 1; shards <= min(3, n); shards++ {
			want, err := ShardedBackend(context.Background(), be, b, lists[:n], shards, nil)
			if err != nil {
				t.Fatal(err)
			}
			for shape, items := range shapes {
				if items == nil {
					continue
				}
				got, err := ShardedBackend(context.Background(), be, b, items[:n], shards, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %d shards: %s items give\n%+v\nlist items give\n%+v", name, shards, shape, got, want)
				}
			}
		}
	}
}

func TestDeltaEdgesMatchReference(t *testing.T) {
	sets := mtbenchRowSets(t)
	for _, rs := range sets {
		for _, model := range mcm.Models {
			for _, fwd := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/forwarding=%t", rs.name, model, fwd), func(t *testing.T) {
					b := graph.NewBuilder(rs.prog, model, graph.Options{Forwarding: fwd})
					walkDelta(t, b, rs)
					limit := 16 // the constraint solver is O(n·e) per graph
					switch big := rs.prog.NumOps() > 1000; {
					case big && testing.Short():
						limit = 1
					case big || testing.Short():
						limit = 3
					}
					compareShapes(t, b, rs, limit)
				})
			}
		}
	}
	t.Run("bug-sm-inv", func(t *testing.T) {
		rs := bugRowSet(t)
		b := graph.NewBuilder(rs.prog, mcm.TSO, graph.Options{Forwarding: true})
		cyclic := walkDelta(t, b, rs)
		if cyclic == 0 || cyclic == len(rs.rows) {
			t.Fatalf("%d of %d graphs cyclic: the set must mix valid and cyclic graphs", cyclic, len(rs.rows))
		}
		limit := 64
		if testing.Short() {
			limit = 12
		}
		compareShapes(t, b, rs, limit)
	})
}

// TestRowAfterCyclicItemIsRelativeToLastValid pins identity (b) on the bug
// set: some cyclic item must have a valid predecessor and a successor, and
// the order-maintaining checkers must report the successor exactly as the
// list path does — which diffs it against the last valid graph, not against
// the cyclic one.
func TestRowAfterCyclicItemIsRelativeToLastValid(t *testing.T) {
	rs := bugRowSet(t)
	b := graph.NewBuilder(rs.prog, mcm.TSO, graph.Options{Forwarding: true})
	rows, lists := rs.rowItems(b), rs.listItems(t, b)
	want, err := run("collective", b, lists)
	if err != nil {
		t.Fatal(err)
	}
	mid := -1
	for _, v := range want.Violations {
		if v.Index > 0 && v.Index+1 < len(rows) {
			mid = v.Index
			break
		}
	}
	if mid < 0 {
		t.Fatalf("no cyclic item in mid-sequence among %d violations", len(want.Violations))
	}
	// The list diff of the successor against the cyclic item differs from its
	// diff against the last valid one, or the case would prove nothing.
	base := mid - 1
	for slices.ContainsFunc(want.Violations, func(v Violation) bool { return v.Index == base }) {
		base--
	}
	if base < 0 {
		t.Skip("the first cyclic item has no valid predecessor")
	}
	next := lists[mid+1].Edges
	if slices.Equal(diffEdges(nil, next, lists[mid].Edges), diffEdges(nil, next, lists[base].Edges)) {
		t.Fatalf("item %d's new edges are the same against item %d (cyclic) and item %d (valid)", mid+1, mid, base)
	}
	for _, name := range []string{"collective", "incremental"} {
		check := func(b *graph.Builder, items []Item) (*Result, error) { return run(name, b, items) }
		want, err := check(b, lists)
		if err != nil {
			t.Fatal(err)
		}
		for _, items := range [][]Item{rows, rs.sigItems()} {
			got, err := check(b, items)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.PerGraph[mid+1], want.PerGraph[mid+1]) || !reflect.DeepEqual(got, want) {
				t.Errorf("after cyclic item %d: row items (decoded: %t) give %+v, list items %+v", mid, items[0].Row == rs.meta, got, want)
			}
		}
	}
}

// TestPooledWorkspaceStartsEmpty: two runs on one builder share a pooled
// workspace; the second must start from no graph (its first item a complete
// sort over exactly its own edges), whatever row the first left installed.
func TestPooledWorkspaceStartsEmpty(t *testing.T) {
	rs := mtbenchRowSets(t)[1]
	b := graph.NewBuilder(rs.prog, mcm.TSO, graph.Options{Forwarding: true})
	lists := rs.listItems(t, b)
	half := len(lists) / 2
	for _, name := range []string{"collective", "incremental"} {
		check := func(b *graph.Builder, items []Item) (*Result, error) { return run(name, b, items) }
		if _, err := check(b, lists[:half]); err != nil {
			t.Fatal(err)
		}
		want, err := check(b, lists[half:])
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range [][]Item{rs.rowItems(b), rs.sigItems()} {
			if _, err := check(b, rows[:half]); err != nil { // leaves rows[half-1] installed
				t.Fatal(err)
			}
			got, err := check(b, rows[half:])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("second run on a pooled workspace: row items (decoded: %t) give %+v, list items %+v", rows[0].Row == rs.meta, got, want)
			}
		}
	}
	w := getWorkspace(b)
	defer wsPool.Put(w)
	for u, out := range w.dyn {
		if len(out) != 0 {
			t.Fatalf("pooled workspace handed out with dyn[%d] = %v", u, out)
		}
	}
}

// TestRowWithUnobservedLoads: a trace's value-faulted loads carry
// graph.NoObservation and contribute the empty group, on install and on the
// way out again.
func TestRowWithUnobservedLoads(t *testing.T) {
	rs := mtbenchRowSets(t)[0]
	b := graph.NewBuilder(rs.prog, mcm.TSO, graph.Options{Forwarding: true})
	loads := b.Loads()
	holed := rowSet{name: rs.name, prog: rs.prog}
	for i, rf := range rs.rows[:min(len(rs.rows), 32)] {
		rf = slices.Clone(rf)
		for k := i % 3; k < len(loads); k += 3 + i%5 {
			rf[loads[k]] = graph.NoObservation - int32(k%2) // anything below -1
		}
		holed.sigs = append(holed.sigs, rs.sigs[i])
		holed.rows = append(holed.rows, rf)
	}
	walkDelta(t, b, holed)
	compareShapes(t, b, holed, 8)
}

// TestWorkspaceLinearInOpsPerWord: a workspace's lists are carved at bounds
// that grow with a word's operations, capped so that their memory stays linear
// in the ops even when every op is on one word (a trace binds each address to
// its own word). The rows move some lists far past their carve: thread 1's
// loads all read one of thread 0's stores, which gains an rf edge to each (and,
// for its first store, its second one an fr edge from each); a row of initial
// reads is cyclic and rolled back.
func TestWorkspaceLinearInOpsPerWord(t *testing.T) {
	const perThread = 2000 // store, load, store, load, ...
	pb := prog.NewBuilder("one-word", 1, prog.DefaultLayout())
	for range 2 {
		pb.Thread()
		for range perThread / 2 {
			pb.Store(0).Load(0)
		}
	}
	p := pb.MustBuild()
	n := p.NumOps()
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{Forwarding: true})
	row := func(thread1 func(l int32) int32) []int32 {
		rf := make([]int32, n)
		for _, l := range b.Loads() {
			if rf[l] = l - 1; l >= perThread { // its own preceding store
				rf[l] = thread1(l)
			}
		}
		return rf
	}
	own := row(func(l int32) int32 { return l - 1 })
	last := row(func(int32) int32 { return perThread - 2 })
	first := row(func(int32) int32 { return 0 })
	initial := row(func(int32) int32 { return -1 })
	rows := [][]int32{own, last, first, initial, own}
	if cyclic := walkDelta(t, b, rowSet{name: "one-word", prog: p, rows: rows}); cyclic != 1 {
		t.Fatalf("%d of %d graphs cyclic, want the initial reads' only", cyclic, len(rows))
	}
	walkDelta(t, b, rowSet{name: "one-word", prog: p, rows: rows})

	// Every list made, on installs into no graph and as deltas, predecessors
	// live. Carving at the uncapped bounds asks for about 20 KiB per op here.
	const budget = 1024 // bytes per op
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := newWorkspace(b)
	for i, rf := range rows[:3] {
		if _, err := w.install(rowItem(b, sig.New([]uint64{uint64(i)}), rf)); err != nil {
			t.Fatal(err)
		}
		w.livePreds()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(n); per > budget {
		t.Errorf("a %d-op one-word workspace with every list made: %d bytes per op, budget %d", n, per, budget)
	} else {
		t.Logf("%d bytes per op", per)
	}
}

// TestMixedItemShapesRejected: a workspace holds a row or a list, so the
// order-maintaining checkers refuse a sequence that mixes them, and a row is
// refused by a builder whose graphs are not a function of it.
func TestMixedItemShapesRejected(t *testing.T) {
	p := prog.NewBuilder("t", 1, prog.DefaultLayout()).
		Thread().Store(0).Load(0).
		MustBuild()
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{})
	items := []Item{
		rowItem(b, sig.New([]uint64{1}), []int32{0, 0}),
		{Sig: sig.New([]uint64{2}), Edges: []graph.Edge{{U: 0, V: 1}}},
	}
	for _, name := range []string{"collective", "incremental"} {
		be, _ := ForName(name)
		if _, err := be.Check(context.Background(), b, items); err == nil {
			t.Errorf("%s: mixed item shapes accepted", name)
		}
		observed := graph.NewBuilder(p, mcm.TSO, graph.Options{WS: graph.WSObserved})
		if _, err := be.Check(context.Background(), observed, items[:1]); err == nil {
			t.Errorf("%s: reads-from row accepted under observed ws", name)
		}
		if _, err := be.Check(context.Background(), b, []Item{rowItem(b, sig.New([]uint64{1}), []int32{0, 1})}); err == nil {
			t.Errorf("%s: row whose load reads from a load accepted", name)
		}
	}
}
