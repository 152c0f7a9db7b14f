package check

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/oracle"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/testgen"
)

// mustGenerate is testgen.Generate, panicking on error.
func mustGenerate(cfg testgen.Config) *prog.Program {
	p, err := testgen.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// rfMap maps each load op ID to the store op ID it read, or -1 for the
// initial value: the tests' sparse spelling of a reads-from row.
type rfMap = map[int]int

// rfRow is rf as the dense reads-from row b's DynamicEdges takes: a load
// absent from rf has no observation.
func rfRow(b *graph.Builder, rf rfMap) []int32 {
	row := make([]int32, b.NumOps())
	for i := range row {
		row[i] = graph.NoObservation
	}
	for load, store := range rf {
		row[load] = int32(store)
	}
	return row
}

// fabricate builds a sorted, deduplicated item sequence from random
// candidate-respecting rf choices and random per-word store interleavings.
// Fabricated pairs are not necessarily legal executions, which is exactly
// what exercises both verdict paths.
func fabricate(t *testing.T, p *prog.Program, b *graph.Builder, meta *instrument.Meta,
	count int, rng *rand.Rand) []Item {
	t.Helper()
	type raw struct {
		s     sig.Signature
		edges []graph.Edge
	}
	byKey := map[string]raw{}
	for trial := 0; trial < count; trial++ {
		rf := rfMap{}
		vals := make([]uint32, p.NumOps())
		for _, tm := range meta.Threads {
			for _, li := range tm.Loads {
				c := li.Candidates[rng.Intn(len(li.Candidates))]
				rf[li.Op.ID] = c.Store
				vals[li.Op.ID] = c.Value
			}
		}
		ws := graph.WS{}
		for w := 0; w < p.NumWords; w++ {
			byThread := map[int][]int{}
			total := 0
			for _, s := range p.StoresToWord(w) {
				byThread[s.Thread] = append(byThread[s.Thread], s.ID)
				total++
			}
			var order []int
			for len(order) < total {
				ks := make([]int, 0, len(byThread))
				for k := range byThread {
					ks = append(ks, k)
				}
				k := ks[rng.Intn(len(ks))]
				order = append(order, byThread[k][0])
				byThread[k] = byThread[k][1:]
				if len(byThread[k]) == 0 {
					delete(byThread, k)
				}
			}
			if len(order) > 0 {
				ws[w] = order
			}
		}
		s, err := meta.EncodeValues(vals)
		if err != nil {
			t.Fatal(err)
		}
		edges, err := b.DynamicEdges(rfRow(b, rf), ws)
		if err != nil {
			t.Fatal(err)
		}
		byKey[s.Key()] = raw{s: s, edges: edges}
	}
	sigs := make([]sig.Signature, 0, len(byKey))
	for _, r := range byKey {
		sigs = append(sigs, r.s)
	}
	sig.Sort(sigs)
	items := make([]Item, len(sigs))
	for i, s := range sigs {
		items[i] = Item{Sig: s, Edges: byKey[s.Key()].edges}
	}
	return items
}

// scItems builds a sorted unique item sequence from SC reference
// executions — all guaranteed valid under every model. b must be in the
// static ws mode.
func scItems(t *testing.T, p *prog.Program, b *graph.Builder, meta *instrument.Meta,
	count int, rng *rand.Rand) []Item {
	t.Helper()
	type raw struct {
		s     sig.Signature
		edges []graph.Edge
	}
	byKey := map[string]raw{}
	for i := 0; i < count; i++ {
		e := oracle.Walk(p, rng.Intn)
		s, err := meta.EncodeValues(e.Values)
		if err != nil {
			t.Fatal(err)
		}
		edges, err := b.AppendDynamicEdges(nil, e.RF, nil)
		if err != nil {
			t.Fatal(err)
		}
		byKey[s.Key()] = raw{s: s, edges: edges}
	}
	sigs := make([]sig.Signature, 0, len(byKey))
	for _, r := range byKey {
		sigs = append(sigs, r.s)
	}
	sig.Sort(sigs)
	items := make([]Item, len(sigs))
	for i, s := range sigs {
		items[i] = Item{Sig: s, Edges: byKey[s.Key()].edges}
	}
	return items
}

func violIndices(r *Result) []int {
	out := make([]int, len(r.Violations))
	for i, v := range r.Violations {
		out[i] = v.Index
	}
	return out
}

// verifyOrder checks that order is a valid topological sort of g: a
// permutation of all vertices with every edge pointing forward.
func verifyOrder(g *graph.Graph, order []int32) error {
	if len(order) != g.N {
		return fmt.Errorf("order has %d vertices, want %d", len(order), g.N)
	}
	pos := make([]int32, g.N)
	seen := make([]bool, g.N)
	for i, v := range order {
		if v < 0 || int(v) >= g.N || seen[v] {
			return fmt.Errorf("order is not a permutation (vertex %d)", v)
		}
		seen[v] = true
		pos[v] = int32(i)
	}
	var bad error
	for u := int32(0); u < int32(g.N); u++ {
		g.Out(u, func(v int32) {
			if bad == nil && pos[u] >= pos[v] {
				bad = fmt.Errorf("edge %d->%d not forward in order", u, v)
			}
		})
	}
	return bad
}

// TestCollectiveEquivalence: the collective checker must deliver exactly the
// conventional checker's verdicts, across models, programs, and fabricated
// execution sets — the paper's claim that re-sorting is "as precise as the
// conventional topological sorting".
func TestCollectiveEquivalence(t *testing.T) {
	prevValidate := debugValidate
	defer func() { debugValidate = prevValidate }()
	debugValidate = func(g *graph.Graph, order []int32) {
		if err := verifyOrder(g, order); err != nil {
			t.Fatalf("collective checker installed an invalid order: %v", err)
		}
	}
	for _, model := range mcm.Models {
		for seed := int64(1); seed <= 4; seed++ {
			p := mustGenerate(testgen.Config{
				Threads: 3, OpsPerThread: 20, Words: 4, Seed: seed,
			})
			meta, err := instrument.Analyze(p, 64, nil)
			if err != nil {
				t.Fatal(err)
			}
			b := graph.NewBuilder(p, model, graph.Options{Forwarding: true})
			rng := rand.New(rand.NewSource(seed * 101))
			items := fabricate(t, p, b, meta, 120, rng)

			conv, _ := run("conventional", b, items)
			coll, err := run("collective", b, items)
			if err != nil {
				t.Fatal(err)
			}
			ci, vi := violIndices(coll), violIndices(conv)
			if len(ci) != len(vi) {
				t.Fatalf("%v seed %d: collective %d violations, conventional %d",
					model, seed, len(ci), len(vi))
			}
			for k := range ci {
				if ci[k] != vi[k] {
					t.Fatalf("%v seed %d: verdict mismatch at %d: %v vs %v",
						model, seed, k, ci, vi)
				}
			}
			if coll.Total != conv.Total || coll.Total != len(items) {
				t.Fatalf("totals: coll %d conv %d items %d", coll.Total, conv.Total, len(items))
			}
		}
	}
}

func TestCollectiveReducesWork(t *testing.T) {
	p := mustGenerate(testgen.Config{
		Threads: 2, OpsPerThread: 50, Words: 32, Seed: 3,
	})
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{Forwarding: true})
	rng := rand.New(rand.NewSource(7))
	items := scItems(t, p, b, meta, 300, rng)
	conv, _ := run("conventional", b, items)
	coll, err := run("collective", b, items)
	if err != nil {
		t.Fatal(err)
	}
	if coll.SortedVertices >= conv.SortedVertices {
		t.Errorf("collective sorted %d vertices, conventional %d — no speedup",
			coll.SortedVertices, conv.SortedVertices)
	}
	c, nr, inc := coll.Counts()
	if c+nr+inc != coll.Total {
		t.Errorf("counts %d+%d+%d != total %d", c, nr, inc, coll.Total)
	}
	if c < 1 {
		t.Error("no complete sort recorded for the first graph")
	}
}

// TestFig7Scenario mirrors the paper's Fig. 7 walk-through: a sequence of
// runs whose graphs differ incrementally, the last one buggy.
func TestFig7Scenario(t *testing.T) {
	// t0: st A (0); ld B (1); st A (2)   t1: st B (3); ld A (4); st B (5)
	p := prog.NewBuilder("fig7", 2, prog.DefaultLayout()).
		Thread().Store(0).Load(1).Store(0).
		Thread().Store(1).Load(0).Store(1).
		MustBuild()
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{Forwarding: true})
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(t *testing.T, vals []uint32, rf rfMap, ws graph.WS) Item {
		s, err := meta.EncodeValues(vals)
		if err != nil {
			t.Fatal(err)
		}
		edges, err := b.DynamicEdges(rfRow(b, rf), ws)
		if err != nil {
			t.Fatal(err)
		}
		return Item{Sig: s, Edges: edges}
	}
	// Run 1: both loads read the initial value.
	r1 := mk(t, []uint32{1: 0, 4: 0}, rfMap{1: -1, 4: -1},
		graph.WS{0: {0, 2}, 1: {3, 5}})
	// Run 2: t0's load reads t1's first store.
	r2 := mk(t, []uint32{1: 4, 4: 0}, rfMap{1: 3, 4: -1},
		graph.WS{0: {0, 2}, 1: {3, 5}})
	// Run 3: both loads read the other thread's first store.
	r3 := mk(t, []uint32{1: 4, 4: 1}, rfMap{1: 3, 4: 0},
		graph.WS{0: {0, 2}, 1: {3, 5}})
	// Run 4 (buggy): the load-buffering cycle — each thread's load reads the
	// OTHER thread's later store: rf 5→1, po 1→2, rf 2→4, po 4→5 closes a
	// cycle under TSO (ld→st is preserved), as in the paper's fourth run.
	r4 := mk(t, []uint32{1: 6, 4: 3}, rfMap{1: 5, 4: 2},
		graph.WS{0: {0, 2}, 1: {3, 5}})

	items := []Item{r1, r2, r3, r4}
	// Sort ascending by signature as the collective checker requires.
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			if items[j].Sig.Compare(items[i].Sig) < 0 {
				items[i], items[j] = items[j], items[i]
			}
		}
	}
	conv, _ := run("conventional", b, items)
	coll, err := run("collective", b, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(conv.Violations) != len(coll.Violations) {
		t.Fatalf("conventional %d violations, collective %d",
			len(conv.Violations), len(coll.Violations))
	}
	if len(coll.Violations) == 0 {
		t.Fatal("buggy run not flagged")
	}
	for _, v := range coll.Violations {
		if len(v.Cycle) == 0 {
			t.Error("violation without a cycle witness")
		}
	}
}

func TestCollectiveRejectsUnsortedItems(t *testing.T) {
	p := prog.NewBuilder("t", 1, prog.DefaultLayout()).
		Thread().Store(0).Load(0).
		MustBuild()
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{})
	items := []Item{
		{Sig: sig.New([]uint64{2})},
		{Sig: sig.New([]uint64{1})},
	}
	if _, err := run("collective", b, items); err == nil {
		t.Error("unsorted items accepted")
	}
}

func TestEmptyAndSingle(t *testing.T) {
	p := prog.NewBuilder("t", 1, prog.DefaultLayout()).
		Thread().Store(0).Load(0).
		MustBuild()
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{})
	res, err := run("collective", b, nil)
	if err != nil || res.Total != 0 {
		t.Fatalf("empty: %v, total %d", err, res.Total)
	}
	edges, err := b.DynamicEdges(rfRow(b, rfMap{1: 0}), graph.WS{0: {0}})
	if err != nil {
		t.Fatal(err)
	}
	res, err = run("collective", b, []Item{{Sig: sig.New([]uint64{0}), Edges: edges}})
	if err != nil || res.Total != 1 || len(res.Violations) != 0 {
		t.Fatalf("single: %v, %+v", err, res)
	}
	c, _, _ := res.Counts()
	if c != 1 {
		t.Errorf("single graph should be a complete sort, counts=%v", res.PerGraph)
	}
}

func TestDiffEdges(t *testing.T) {
	e := func(u, v int32) graph.Edge { return graph.Edge{U: u, V: v} }
	cur := []graph.Edge{e(0, 1), e(1, 2), e(3, 4)}
	prev := []graph.Edge{e(0, 1), e(2, 2)}
	got := diffEdges(nil, cur, prev)
	want := []graph.Edge{e(1, 2), e(3, 4)}
	if len(got) != len(want) {
		t.Fatalf("diff = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diff = %v, want %v", got, want)
		}
	}
	if d := diffEdges(nil, nil, prev); len(d) != 0 {
		t.Errorf("diff(nil, prev) = %v", d)
	}
	if d := diffEdges(nil, cur, nil); len(d) != len(cur) {
		t.Errorf("diff(cur, nil) = %v", d)
	}
}

// TestCyclicFirstGraphRecovers: when the very first unique signature is
// already a violation, the checker must still validate the remainder.
func TestCyclicFirstGraphRecovers(t *testing.T) {
	// CoRR program: t0: st(0)=op0; t1: ld(1), ld(2).
	p := prog.NewBuilder("corr", 1, prog.DefaultLayout()).
		Thread().Store(0).
		Thread().Load(0).Load(0).
		MustBuild()
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{Forwarding: true})
	bad, err := b.DynamicEdges(rfRow(b, rfMap{1: 0, 2: -1}), graph.WS{0: {0}})
	if err != nil {
		t.Fatal(err)
	}
	good, err := b.DynamicEdges(rfRow(b, rfMap{1: 0, 2: 0}), graph.WS{0: {0}})
	if err != nil {
		t.Fatal(err)
	}
	items := []Item{
		{Sig: sig.New([]uint64{1}), Edges: bad},
		{Sig: sig.New([]uint64{2}), Edges: good},
	}
	res, err := run("collective", b, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 || res.Violations[0].Index != 0 {
		t.Fatalf("violations = %+v, want exactly index 0", res.Violations)
	}
	conv, _ := run("conventional", b, items)
	if len(conv.Violations) != 1 || conv.Violations[0].Index != 0 {
		t.Fatalf("conventional disagrees: %+v", conv.Violations)
	}
}

// TestIncrementalEquivalence: the Pearce–Kelly checker must agree with both
// other checkers, with its maintained order staying topological.
func TestIncrementalEquivalence(t *testing.T) {
	prevValidate := debugValidate
	defer func() { debugValidate = prevValidate }()
	debugValidate = func(g *graph.Graph, order []int32) {
		if err := verifyOrder(g, order); err != nil {
			t.Fatalf("incremental checker installed an invalid order: %v", err)
		}
	}
	for _, model := range mcm.Models {
		for seed := int64(1); seed <= 4; seed++ {
			p := mustGenerate(testgen.Config{
				Threads: 3, OpsPerThread: 20, Words: 4, Seed: seed,
			})
			meta, err := instrument.Analyze(p, 64, nil)
			if err != nil {
				t.Fatal(err)
			}
			b := graph.NewBuilder(p, model, graph.Options{Forwarding: true})
			rng := rand.New(rand.NewSource(seed * 211))
			items := fabricate(t, p, b, meta, 120, rng)
			conv, _ := run("conventional", b, items)
			inc, err := run("incremental", b, items)
			if err != nil {
				t.Fatal(err)
			}
			ci, vi := violIndices(inc), violIndices(conv)
			if len(ci) != len(vi) {
				t.Fatalf("%v seed %d: incremental %d violations, conventional %d",
					model, seed, len(ci), len(vi))
			}
			for k := range ci {
				if ci[k] != vi[k] {
					t.Fatalf("%v seed %d: verdict mismatch: %v vs %v", model, seed, ci, vi)
				}
			}
		}
	}
}

func TestIncrementalOnCleanSCItems(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 2, OpsPerThread: 50, Words: 32, Seed: 3})
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{Forwarding: true})
	rng := rand.New(rand.NewSource(7))
	items := scItems(t, p, b, meta, 300, rng)
	inc, err := run("incremental", b, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Violations) != 0 {
		t.Fatalf("%d violations on clean SC items", len(inc.Violations))
	}
	conv, _ := run("conventional", b, items)
	if inc.SortedVertices >= conv.SortedVertices {
		t.Errorf("incremental moved %d vertices, conventional sorted %d — no saving",
			inc.SortedVertices, conv.SortedVertices)
	}
}

// TestIncrementalForwardSearchStaysInWindow: three reads-from rows of a
// 3-thread program with two stores to a word, in signature order, under SC.
// The third closes a cycle. Repairing the second row's edges one by one, a
// forward search that followed an edge not yet repaired to below pos[v] moved
// that vertex into the window and broke the order the third row's repair
// relies on, so the third row passed; checked alone, it was rejected.
func TestIncrementalForwardSearchStaysInWindow(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 3, OpsPerThread: 3, Words: 2, FenceProb: 0.3, Seed: 277})
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(p, mcm.SC, graph.Options{Forwarding: true})
	var items []Item
	for _, rf := range [][]int32{
		{-1, -1, -1, 2, -1, -1, 2, 11, 4, -1, -1, -1},
		{10, -1, -1, 2, -1, -1, 4, -1, 4, -1, -1, -1},
		{10, -1, -1, 2, -1, -1, 2, 10, 2, -1, -1, -1},
	} {
		vals := make([]uint32, len(rf))
		for id, src := range rf {
			if src >= 0 {
				vals[id] = p.OpByID(int(src)).Value
			}
		}
		s, err := meta.EncodeValues(vals)
		if err != nil {
			t.Fatal(err)
		}
		item, err := NewItem(b, s, rf, nil)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, item)
	}
	for _, be := range Backends {
		res, err := be.Check(context.Background(), b, items)
		if err != nil {
			t.Fatal(err)
		}
		if got := violIndices(res); !slices.Equal(got, []int{2}) {
			t.Errorf("%s: violations at %v, want [2]", be.Name, got)
		}
	}
}
