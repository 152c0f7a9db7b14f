package check

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/testgen"
)

// run checks the items with the named row of the table.
func run(name string, b *graph.Builder, items []Item) (*Result, error) {
	be, err := ForName(name)
	if err != nil {
		return nil, err
	}
	return be.Check(context.Background(), b, items)
}

func TestBackendRegistry(t *testing.T) {
	want := []string{"incremental", "collective", "conventional", "vectorclock", "constraints"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		be, err := ForName(name)
		if err != nil {
			t.Fatalf("ForName(%q): %v", name, err)
		}
		if be.Name != name {
			t.Errorf("ForName(%q).Name = %q", name, be.Name)
		}
		if be.Check == nil || be.Effort == nil {
			t.Errorf("%s: the row lacks a Check or an Effort", name)
		}
	}
	if be, err := ForName(""); err != nil || be != &Backends[0] {
		t.Errorf("the empty name resolves to %v, %v; want the table's first row", be, err)
	}
	_, err := ForName("bogus")
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ForName error %q does not list %q", err, name)
		}
	}
}

// TestVectorClockEquivalence: the vector-clock closure must deliver exactly
// the conventional checker's verdicts across models, programs, and fabricated
// execution sets — the property that makes it a trustworthy differential
// partner for the sorting backends.
func TestVectorClockEquivalence(t *testing.T) {
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
			rng := rand.New(rand.NewSource(seed * 307))
			items := fabricate(t, p, b, meta, 120, rng)
			conv, _ := run("conventional", b, items)
			vc, err := run("vectorclock", b, items)
			if err != nil {
				t.Fatal(err)
			}
			ci, vi := violIndices(vc), violIndices(conv)
			if !reflect.DeepEqual(ci, vi) {
				t.Fatalf("%v seed %d: vector-clock verdicts %v, conventional %v",
					model, seed, ci, vi)
			}
			if vc.Total != len(items) {
				t.Fatalf("%v seed %d: total %d, want %d", model, seed, vc.Total, len(items))
			}
			if len(vi) < len(items) && vc.ClockUpdates == 0 {
				t.Errorf("%v seed %d: no clock updates recorded", model, seed)
			}
		}
	}
}

// fig7Items rebuilds the paper's Fig. 7 four-run sequence (TestFig7Scenario),
// whose last run closes a load-buffering cycle under TSO.
func fig7Items(t *testing.T) (*graph.Builder, []Item) {
	t.Helper()
	p := prog.NewBuilder("fig7", 2, prog.DefaultLayout()).
		Thread().Store(0).Load(1).Store(0).
		Thread().Store(1).Load(0).Store(1).
		MustBuild()
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{Forwarding: true})
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(vals []uint32, rf rfMap) Item {
		s, err := meta.EncodeValues(vals)
		if err != nil {
			t.Fatal(err)
		}
		edges, err := b.DynamicEdges(rfRow(b, rf), graph.WS{0: {0, 2}, 1: {3, 5}})
		if err != nil {
			t.Fatal(err)
		}
		return Item{Sig: s, Edges: edges}
	}
	items := []Item{
		mk([]uint32{1: 0, 4: 0}, rfMap{1: -1, 4: -1}),
		mk([]uint32{1: 4, 4: 0}, rfMap{1: 3, 4: -1}),
		mk([]uint32{1: 4, 4: 1}, rfMap{1: 3, 4: 0}),
		mk([]uint32{1: 6, 4: 3}, rfMap{1: 5, 4: 2}), // the buggy run
	}
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			if items[j].Sig.Compare(items[i].Sig) < 0 {
				items[i], items[j] = items[j], items[i]
			}
		}
	}
	return b, items
}

// TestVectorClockCycleWitness: a flagged graph must carry a real cycle — every
// consecutive pair of witness operations (wrapping around) is an edge of that
// item's constraint graph.
func TestVectorClockCycleWitness(t *testing.T) {
	b, items := fig7Items(t)
	vc, err := run("vectorclock", b, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(vc.Violations) != 1 {
		t.Fatalf("violations = %+v, want exactly one", vc.Violations)
	}
	v := vc.Violations[0]
	if len(v.Cycle) < 2 {
		t.Fatalf("cycle witness %v too short", v.Cycle)
	}
	g := b.FromDynamic(items[v.Index].Edges)
	for i, u := range v.Cycle {
		next := v.Cycle[(i+1)%len(v.Cycle)]
		found := false
		g.Out(u, func(w int32) {
			if w == next {
				found = true
			}
		})
		if !found {
			t.Fatalf("witness %v: no edge %d->%d in the flagged graph", v.Cycle, u, next)
		}
	}
	conv, _ := run("conventional", b, items)
	if !reflect.DeepEqual(violIndices(vc), violIndices(conv)) {
		t.Fatalf("vector-clock %v, conventional %v", violIndices(vc), violIndices(conv))
	}
}

// TestBackendsCancelled: every registered backend must return ctx.Err()
// promptly — and no partial result — when its context is already cancelled.
func TestBackendsCancelled(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 3, OpsPerThread: 20, Words: 4, Seed: 1})
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{Forwarding: true})
	items := fabricate(t, p, b, meta, 50, rand.New(rand.NewSource(3)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		be, err := ForName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := be.Check(ctx, b, items)
		if err != context.Canceled {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if res != nil {
			t.Errorf("%s: partial result returned alongside cancellation", name)
		}
	}
}

// TestDifferentialAgreesOnRealBackends: every backend pair must agree on
// fabricated items containing both verdicts — any Disagreement here is a
// checker bug.
func TestDifferentialAgreesOnRealBackends(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 3, OpsPerThread: 20, Words: 4, Seed: 2})
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(p, mcm.RMO, graph.Options{Forwarding: true})
	items := fabricate(t, p, b, meta, 120, rand.New(rand.NewSource(17)))
	names := Names()
	for i, an := range names {
		for _, bn := range names[i+1:] {
			ba, _ := ForName(an)
			bb, _ := ForName(bn)
			d, err := Differential(context.Background(), ba, bb, b, items)
			if err != nil {
				t.Fatalf("%s vs %s: %v", an, bn, err)
			}
			if d != nil {
				t.Errorf("%s vs %s disagree: %s", an, bn, d)
			}
		}
	}
}

// TestDifferentialFindsInjectedDisagreement: a deliberately blind backend
// racing a real one must surface the first disputed item with the right
// attribution.
func TestDifferentialFindsInjectedDisagreement(t *testing.T) {
	b, items := fig7Items(t)
	conv, _ := ForName("conventional")
	blind := &Backend{Name: "blind",
		Check: func(ctx context.Context, b *graph.Builder, items []Item) (*Result, error) {
			return &Result{Total: len(items)}, nil
		}}
	ref, _ := run("conventional", b, items)
	if len(ref.Violations) != 1 {
		t.Fatalf("fixture: %d violations, want 1", len(ref.Violations))
	}
	d, err := Differential(context.Background(), conv, blind, b, items)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("blind backend escaped differential checking")
	}
	if d.A != "conventional" || d.B != "blind" || !d.AViolates || d.BViolates {
		t.Errorf("disagreement misattributed: %+v", d)
	}
	if d.Index != ref.Violations[0].Index || !d.Sig.Equal(ref.Violations[0].Sig) {
		t.Errorf("disagreement at item %d (%s), want %d", d.Index, d.Sig, ref.Violations[0].Index)
	}
	// Swapped operands must flip the attribution, not the detection.
	d, err = Differential(context.Background(), blind, conv, b, items)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.AViolates || !d.BViolates {
		t.Errorf("swapped operands: %+v", d)
	}
	// A cancelled context aborts the comparison with an error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Differential(ctx, conv, blind, b, items); err == nil {
		t.Error("cancelled differential returned no error")
	}
}

// TestShardedBackendFansOut: every row runs as many shards as it is asked
// for — one onShard call per contiguous range, together covering the items in
// order — and the merged result carries every item's verdict.
func TestShardedBackendFansOut(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 3, OpsPerThread: 20, Words: 4, Seed: 1})
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{Forwarding: true})
	items := fabricate(t, p, b, meta, 100, rand.New(rand.NewSource(9)))
	const shards = 8
	want := shardOffsets(len(items), shards)
	for _, name := range Names() {
		be, _ := ForName(name)
		type call struct{ shards, start, count int }
		calls := make([]call, shards)
		var mu sync.Mutex
		seen := 0
		res, err := ShardedBackend(context.Background(), be, b, items, shards,
			func(shard, n, start, count int, part *Result, _ time.Time, _ time.Duration) {
				mu.Lock()
				defer mu.Unlock()
				calls[shard] = call{n, start, count}
				seen++
			})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if seen != shards {
			t.Fatalf("%s: %d shard callbacks, want %d", name, seen, shards)
		}
		for s, c := range calls {
			if c != (call{shards, want[s], want[s+1] - want[s]}) {
				t.Errorf("%s: shard %d reported %+v, want range [%d, %d) of %d",
					name, s, c, want[s], want[s+1], shards)
			}
		}
		if res.Total != len(items) {
			t.Errorf("%s: merged total %d, want %d", name, res.Total, len(items))
		}
	}
}

// TestShardedBackendShardInvariance: for every row the verdicts must not
// depend on the shard count, and for the per-graph rows — which carry no state
// from one graph to the next — not even the effort counters may.
func TestShardedBackendShardInvariance(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 3, OpsPerThread: 20, Words: 4, Seed: 4})
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(p, mcm.RMO, graph.Options{Forwarding: true})
	items := fabricate(t, p, b, meta, 150, rand.New(rand.NewSource(41)))
	for _, name := range Names() {
		be, _ := ForName(name)
		base, err := ShardedBackend(context.Background(), be, b, items, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, shards := range []int{2, 5, len(items) + 3} {
			res, err := ShardedBackend(context.Background(), be, b, items, shards, nil)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			if !reflect.DeepEqual(violIndices(res), violIndices(base)) {
				t.Errorf("%s shards=%d: verdicts %v, serial %v",
					name, shards, violIndices(res), violIndices(base))
			}
			if base.PerGraph != nil {
				continue // order-maintaining: each shard pays its own first sort
			}
			if res.SortedVertices != base.SortedVertices || res.ClockUpdates != base.ClockUpdates ||
				res.Propagations != base.Propagations {
				t.Errorf("%s shards=%d: effort %d/%d/%d, serial %d/%d/%d", name, shards,
					res.SortedVertices, res.ClockUpdates, res.Propagations,
					base.SortedVertices, base.ClockUpdates, base.Propagations)
			}
		}
	}
}

// TestShardedBackendRejectsUnsortedItems: the order contract is enforced
// uniformly, so a backend's verdict can never depend on the shard count or
// on which backend happened to be configured.
func TestShardedBackendRejectsUnsortedItems(t *testing.T) {
	p := prog.NewBuilder("t", 1, prog.DefaultLayout()).
		Thread().Store(0).Load(0).
		MustBuild()
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{})
	items := []Item{
		{Sig: sig.New([]uint64{2})},
		{Sig: sig.New([]uint64{1})},
	}
	for _, name := range Names() {
		be, _ := ForName(name)
		if _, err := ShardedBackend(context.Background(), be, b, items, 1, nil); err == nil {
			t.Errorf("%s: unsorted items accepted", name)
		}
	}
}

// FuzzDifferential cross-checks all backends against the conventional
// reference on fuzz-chosen execution sets over the Fig. 7 program: each input
// byte pair picks one rf assignment for the two loads, so the corpus spans
// every combination including the known-cyclic load-buffering run.
func FuzzDifferential(f *testing.F) {
	p := prog.NewBuilder("fig7", 2, prog.DefaultLayout()).
		Thread().Store(0).Load(1).Store(0).
		Thread().Store(1).Load(0).Store(1).
		MustBuild()
	b := graph.NewBuilder(p, mcm.TSO, graph.Options{Forwarding: true})
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		f.Fatal(err)
	}
	var loads []instrument.LoadInfo
	for _, tm := range meta.Threads {
		loads = append(loads, tm.Loads...)
	}
	// Seed every single-item candidate combination — one of them is the
	// cyclic Fig. 7 run 4 — plus a multi-item sequence.
	for i := byte(0); i < 4; i++ {
		for j := byte(0); j < 4; j++ {
			f.Add([]byte{i, j})
		}
	}
	f.Add([]byte{0, 0, 1, 0, 1, 1, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		type raw struct {
			s     sig.Signature
			edges []graph.Edge
			row   []int32
		}
		byKey := map[string]raw{}
		for k := 0; k+len(loads) <= len(data) && len(byKey) < 16; k += len(loads) {
			rf := rfMap{}
			row := make([]int32, p.NumOps())
			vals := make([]uint32, p.NumOps())
			for li, info := range loads {
				c := info.Candidates[int(data[k+li])%len(info.Candidates)]
				rf[info.Op.ID] = c.Store
				row[info.Op.ID] = int32(c.Store)
				vals[info.Op.ID] = c.Value
			}
			s, err := meta.EncodeValues(vals)
			if err != nil {
				t.Fatal(err)
			}
			edges, err := b.DynamicEdges(rfRow(b, rf), nil)
			if err != nil {
				t.Fatal(err)
			}
			byKey[s.Key()] = raw{s: s, edges: edges, row: row}
		}
		sigs := make([]sig.Signature, 0, len(byKey))
		for _, r := range byKey {
			sigs = append(sigs, r.s)
		}
		sig.Sort(sigs)
		// Every set is checked in both item shapes: the edge list, and the
		// reads-from row the list is built from, given and decoded from the
		// signature.
		items, rowItems, sigItems := make([]Item, len(sigs)), make([]Item, len(sigs)), make([]Item, len(sigs))
		for i, s := range sigs {
			items[i] = Item{Sig: s, Edges: byKey[s.Key()].edges}
			rowItems[i] = rowItem(b, s, byKey[s.Key()].row)
			sigItems[i] = Item{Sig: s, Row: meta}
		}
		ref, _ := ForName("conventional")
		for _, name := range Names() {
			be, _ := ForName(name)
			fromLists, err := be.Check(context.Background(), b, items)
			if err != nil {
				t.Fatal(err)
			}
			fromRows, err := be.Check(context.Background(), b, rowItems)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromRows, fromLists) {
				t.Fatalf("%s: row items give %+v, list items %+v", name, fromRows, fromLists)
			}
			fromSigs, err := be.Check(context.Background(), b, sigItems)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromSigs, fromLists) {
				t.Fatalf("%s: decoded row items give %+v, list items %+v", name, fromSigs, fromLists)
			}
			if name == "conventional" {
				continue
			}
			d, err := Differential(context.Background(), ref, be, b, items)
			if err != nil {
				t.Fatal(err)
			}
			if d != nil {
				t.Fatalf("conventional vs %s disagree: %s", name, d)
			}
		}
	})
}
