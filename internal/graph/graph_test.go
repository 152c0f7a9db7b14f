package graph

import (
	"math/rand"
	"testing"

	"mtracecheck/internal/mcm"
	"mtracecheck/internal/prog"
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

// RF maps each load op ID to the store op ID it read, or -1 for the initial
// value: the tests' sparse spelling of a reads-from row.
type RF = map[int]int

// row is rf as the dense reads-from row DynamicEdges takes: a load absent from
// rf has no observation.
func (b *Builder) row(rf RF) []int32 {
	dense := make([]int32, b.n)
	for i := range dense {
		dense[i] = NoObservation
	}
	for loadID, storeID := range rf {
		dense[loadID] = int32(max(storeID, noStore))
	}
	return dense
}

// BuildGraph assembles the graph for one execution given as maps.
func (b *Builder) BuildGraph(rf RF, ws WS) (*Graph, error) {
	dyn, err := b.DynamicEdges(b.row(rf), ws)
	if err != nil {
		return nil, err
	}
	return b.FromDynamic(dyn), nil
}

// lb builds the paper's Fig. 2 program: two threads, each loading the other
// thread's word before storing its own.
//
//	t0: ld w0 (op 0); st w1 (op 1)
//	t1: ld w1 (op 2); st w0 (op 3)
func lb() *prog.Program {
	return prog.NewBuilder("fig2", 2, prog.DefaultLayout()).
		Thread().Load(0).Store(1).
		Thread().Load(1).Store(0).
		MustBuild()
}

func TestFig2CycleUnderTSO(t *testing.T) {
	p := lb()
	// Both loads read the other thread's store: r0 = r1 = 1 in the paper.
	rf := RF{0: 3, 2: 1}
	ws := WS{0: {3}, 1: {1}}
	for _, model := range []mcm.Model{mcm.SC, mcm.TSO, mcm.PSO} {
		b := NewBuilder(p, model, Options{})
		g, err := b.BuildGraph(rf, ws)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := g.TopoSort(); ok {
			t.Errorf("%v: LB outcome has a topological sort (should be cyclic)", model)
		}
		if cyc := g.FindCycle(); len(cyc) == 0 {
			t.Errorf("%v: FindCycle found nothing", model)
		}
	}
	// RMO relaxes ld→st: the same outcome is acyclic.
	b := NewBuilder(p, mcm.RMO, Options{})
	g, err := b.BuildGraph(rf, ws)
	if err != nil {
		t.Fatal(err)
	}
	if order, ok := g.TopoSort(); !ok {
		t.Error("RMO: LB outcome cyclic, should be allowed")
	} else if err := g.VerifyOrder(order); err != nil {
		t.Error(err)
	}
}

func TestSBOutcomeTSOvsSC(t *testing.T) {
	// t0: st w0 (0); ld w1 (1)    t1: st w1 (2); ld w0 (3)
	p := prog.NewBuilder("sb", 2, prog.DefaultLayout()).
		Thread().Store(0).Load(1).
		Thread().Store(1).Load(0).
		MustBuild()
	rf := RF{1: -1, 3: -1} // both loads read the initial value
	ws := WS{0: {0}, 1: {2}}

	bSC := NewBuilder(p, mcm.SC, Options{})
	g, err := bSC.BuildGraph(rf, ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.TopoSort(); ok {
		t.Error("SC: SB outcome should be cyclic")
	}

	bTSO := NewBuilder(p, mcm.TSO, Options{})
	g, err = bTSO.BuildGraph(rf, ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.TopoSort(); !ok {
		t.Error("TSO: SB outcome should be acyclic (store buffering)")
	}
}

func TestCoRRCycleEverywhere(t *testing.T) {
	// t0: st w0 (0)    t1: ld w0 (1); ld w0 (2)
	p := prog.NewBuilder("corr", 1, prog.DefaultLayout()).
		Thread().Store(0).
		Thread().Load(0).Load(0).
		MustBuild()
	rf := RF{1: 0, 2: -1} // first load sees the store, second sees initial
	ws := WS{0: {0}}
	for _, model := range mcm.Models {
		b := NewBuilder(p, model, Options{})
		g, err := b.BuildGraph(rf, ws)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := g.TopoSort(); ok {
			t.Errorf("%v: CoRR violation has a topological sort", model)
		}
	}
}

func TestFenceRestoresOrder(t *testing.T) {
	// SB with fences: cyclic under every model.
	p := prog.NewBuilder("sbf", 2, prog.DefaultLayout()).
		Thread().Store(0).Fence().Load(1).
		Thread().Store(1).Fence().Load(0).
		MustBuild()
	rf := RF{2: -1, 5: -1}
	ws := WS{0: {0}, 1: {3}}
	for _, model := range mcm.Models {
		b := NewBuilder(p, model, Options{})
		g, err := b.BuildGraph(rf, ws)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := g.TopoSort(); ok {
			t.Errorf("%v: fenced SB outcome has a topological sort", model)
		}
	}
}

// TestIntraThreadRFFalsePositive reproduces the paper's §8 footnote: on a
// forwarding (multi-copy) platform, adding intra-thread store→load rf edges
// yields a spurious cycle for the classic "n6" forwarding outcome, which is
// legal under x86-TSO.
func TestIntraThreadRFFalsePositive(t *testing.T) {
	// t0: st w0 (0); ld w0 (1); ld w1 (2)
	// t1: st w1 (3); ld w1 (4); ld w0 (5)
	p := prog.NewBuilder("n6", 2, prog.DefaultLayout()).
		Thread().Store(0).Load(0).Load(1).
		Thread().Store(1).Load(1).Load(0).
		MustBuild()
	rf := RF{1: 0, 2: -1, 4: 3, 5: -1}
	ws := WS{0: {0}, 1: {3}}

	sound := NewBuilder(p, mcm.TSO, Options{Forwarding: true})
	g, err := sound.BuildGraph(rf, ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.TopoSort(); !ok {
		t.Error("forwarding outcome flagged as violation with intra-thread rf ignored")
	}

	naive := NewBuilder(p, mcm.TSO, Options{Forwarding: false})
	g, err = naive.BuildGraph(rf, ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.TopoSort(); ok {
		t.Error("expected the naive intra-thread-rf graph to be (falsely) cyclic")
	}
}

// reachable computes the reachability matrix of the full (unreduced)
// preserved-program-order relation for reference.
func fullPOReach(p *prog.Program, model mcm.Model, opts Options) [][]bool {
	n := p.NumOps()
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	for _, th := range p.Threads {
		for i := 0; i < len(th.Ops); i++ {
			for j := i + 1; j < len(th.Ops); j++ {
				if refOrdered(model, opts, th.Ops[i], th.Ops[j]) {
					reach[th.Ops[i].ID][th.Ops[j].ID] = true
				}
			}
		}
	}
	// Transitive closure (Floyd–Warshall style on the boolean matrix).
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !reach[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if reach[k][j] {
					reach[i][j] = true
				}
			}
		}
	}
	return reach
}

// TestPOReductionPreservesReachability: the transitive closure of the
// reduced static edges must equal the closure of the full relation.
func TestPOReductionPreservesReachability(t *testing.T) {
	for _, model := range mcm.Models {
		for _, opts := range []Options{{}, {Forwarding: true}} {
			for seed := int64(1); seed <= 3; seed++ {
				p := mustGenerate(testgen.Config{
					Threads: 3, OpsPerThread: 25, Words: 4, FenceProb: 0.1, Seed: seed,
				})
				want := fullPOReach(p, model, opts)
				b := NewBuilder(p, model, opts)
				n := p.NumOps()
				got := make([][]bool, n)
				for i := range got {
					got[i] = make([]bool, n)
				}
				for u := 0; u < n; u++ {
					for _, v := range b.static[u] {
						got[u][v] = true
					}
				}
				for k := 0; k < n; k++ {
					for i := 0; i < n; i++ {
						if !got[i][k] {
							continue
						}
						for j := 0; j < n; j++ {
							if got[k][j] {
								got[i][j] = true
							}
						}
					}
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if got[i][j] != want[i][j] {
							t.Fatalf("%v %+v seed %d: reachability (%d,%d): got %v want %v",
								model, opts, seed, i, j, got[i][j], want[i][j])
						}
					}
				}
			}
		}
	}
}

// randomExec fabricates a consistent-looking rf/ws pair (not necessarily a
// legal execution — the checker must still behave deterministically).
func randomExec(p *prog.Program, rng *rand.Rand) (RF, WS) {
	rf := RF{}
	ws := WS{}
	for w := 0; w < p.NumWords; w++ {
		stores := p.StoresToWord(w)
		ids := make([]int, len(stores))
		for i, s := range stores {
			ids[i] = s.ID
		}
		// Random interleaving preserving per-thread order: repeatedly pick a
		// random thread's next store.
		byThread := map[int][]int{}
		for _, s := range stores {
			byThread[s.Thread] = append(byThread[s.Thread], s.ID)
		}
		var order []int
		for len(order) < len(ids) {
			keys := make([]int, 0, len(byThread))
			for k := range byThread {
				keys = append(keys, k)
			}
			k := keys[rng.Intn(len(keys))]
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
	for _, op := range p.Ops() {
		if op.Kind != prog.Load {
			continue
		}
		stores := p.StoresToWord(op.Word)
		if len(stores) == 0 || rng.Intn(4) == 0 {
			rf[op.ID] = -1
		} else {
			rf[op.ID] = stores[rng.Intn(len(stores))].ID
		}
	}
	return rf, ws
}

func TestTopoSortOrdersAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := mustGenerate(testgen.Config{Threads: 4, OpsPerThread: 30, Words: 6, Seed: 2})
	for _, model := range mcm.Models {
		b := NewBuilder(p, model, Options{})
		for trial := 0; trial < 30; trial++ {
			rf, ws := randomExec(p, rng)
			g, err := b.BuildGraph(rf, ws)
			if err != nil {
				t.Fatal(err)
			}
			order, ok := g.TopoSort()
			if !ok {
				// Cyclic fabrications happen; FindCycle must agree.
				if len(g.FindCycle()) == 0 {
					t.Fatal("TopoSort failed but FindCycle found nothing")
				}
				continue
			}
			if err := g.VerifyOrder(order); err != nil {
				t.Fatalf("%v: %v", model, err)
			}
		}
	}
}

func TestFindCycleReturnsRealCycle(t *testing.T) {
	p := lb()
	b := NewBuilder(p, mcm.SC, Options{})
	g, err := b.BuildGraph(RF{0: 3, 2: 1}, WS{0: {3}, 1: {1}})
	if err != nil {
		t.Fatal(err)
	}
	cyc := g.FindCycle()
	if len(cyc) < 2 {
		t.Fatalf("cycle = %v", cyc)
	}
	// Every consecutive pair (wrapping) must be an edge.
	for i := range cyc {
		u, v := cyc[i], cyc[(i+1)%len(cyc)]
		found := false
		g.Out(u, func(x int32) {
			if x == v {
				found = true
			}
		})
		if !found {
			t.Fatalf("cycle %v: %d->%d is not an edge", cyc, u, v)
		}
	}
}

func TestDynamicEdgesValidation(t *testing.T) {
	p := lb()
	b := NewBuilder(p, mcm.TSO, Options{WS: WSObserved})
	if _, err := b.DynamicEdges(b.row(RF{0: 1}), WS{}); err == nil {
		t.Error("rf to a store of another word accepted")
	}
	if _, err := b.DynamicEdges(b.row(RF{0: 3}), WS{}); err == nil {
		t.Error("rf store missing from ws accepted")
	}
}

func TestVerifyOrderRejectsBadOrders(t *testing.T) {
	p := lb()
	b := NewBuilder(p, mcm.SC, Options{})
	g := b.FromDynamic(nil)
	if err := g.VerifyOrder([]int32{0, 1, 2}); err == nil {
		t.Error("short order accepted")
	}
	if err := g.VerifyOrder([]int32{0, 0, 2, 3}); err == nil {
		t.Error("non-permutation accepted")
	}
	if err := g.VerifyOrder([]int32{1, 0, 2, 3}); err == nil {
		t.Error("order violating po edge accepted")
	}
}

func TestStaticReachabilityByModel(t *testing.T) {
	// Transitive reduction makes raw edge counts incomparable (SC reduces
	// to a chain), but the number of REACHABLE pairs must grow as models
	// strengthen.
	p := mustGenerate(testgen.Config{Threads: 2, OpsPerThread: 40, Words: 4, Seed: 8})
	count := func(model mcm.Model) int {
		reach := fullPOReach(p, model, Options{})
		n := 0
		for i := range reach {
			for j := range reach[i] {
				if reach[i][j] {
					n++
				}
			}
		}
		return n
	}
	prev := -1
	for _, model := range []mcm.Model{mcm.RMO, mcm.PSO, mcm.TSO, mcm.SC} {
		if c := count(model); prev >= 0 && c < prev {
			t.Errorf("%v reaches fewer pairs (%d) than the weaker model (%d)", model, c, prev)
		} else {
			prev = c
		}
	}
}

// TestConditionalForwardingEdgeCatchesUniproc: on a forwarding platform a
// load that skips its own preceding store must still be flagged.
func TestConditionalForwardingEdgeCatchesUniproc(t *testing.T) {
	// t0: st w0 (0); ld w0 (1)   t1: st w0 (2)
	p := prog.NewBuilder("uniproc", 1, prog.DefaultLayout()).
		Thread().Store(0).Load(0).
		Thread().Store(0).
		MustBuild()
	b := NewBuilder(p, mcm.TSO, Options{Forwarding: true, WS: WSObserved})
	// Load reads t1's store 2, which serialized BEFORE the own store 0:
	// uniproc violation (the load may never read older than its own store).
	g, err := b.BuildGraph(RF{1: 2}, WS{0: {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.TopoSort(); ok {
		t.Error("uniproc violation undetected on forwarding platform")
	}
	// Reading the own store itself is fine.
	g, err = b.BuildGraph(RF{1: 0}, WS{0: {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.TopoSort(); !ok {
		t.Error("own-store read flagged on forwarding platform")
	}
	// Reading the initial value despite an own preceding store: violation.
	g, err = b.BuildGraph(RF{1: -1}, WS{0: {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.TopoSort(); ok {
		t.Error("initial-value read past own store undetected")
	}
}

// TestWSStaticMode pins the static-ws contract (the paper's "gathered
// statically" claim): graphs are a pure function of the signature, fr edges
// derive from same-thread store chains, and the documented false-negative
// class (cross-thread write-serialization violations) is indeed not caught.
func TestWSStaticMode(t *testing.T) {
	// t0: st w0 (0); ld w0 (1)   t1: st w0 (2)
	p := prog.NewBuilder("static", 1, prog.DefaultLayout()).
		Thread().Store(0).Load(0).
		Thread().Store(0).
		MustBuild()
	b := NewBuilder(p, mcm.TSO, Options{Forwarding: true, WS: WSStatic})

	// ws argument is ignored entirely: same edges with and without it.
	rf := RF{1: 2}
	e1, err := b.DynamicEdges(b.row(rf), WS{0: {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := b.DynamicEdges(b.row(rf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e1) != len(e2) {
		t.Fatalf("static mode depends on ws: %v vs %v", e1, e2)
	}

	// Cross-thread ws violation (load skipped its own store, reading a
	// store that serialized earlier): NOT caught in static mode — the
	// paper's acknowledged false-negative class...
	g := b.FromDynamic(e2)
	if _, ok := g.TopoSort(); !ok {
		t.Error("static mode unexpectedly caught a cross-thread ws violation")
	}
	// ...but the same outcome IS caught in observed mode.
	bo := NewBuilder(p, mcm.TSO, Options{Forwarding: true, WS: WSObserved})
	go1, err := bo.BuildGraph(rf, WS{0: {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := go1.TopoSort(); ok {
		t.Error("observed mode missed the cross-thread ws violation")
	}

	// Same-thread staleness IS caught statically: t0: st;st, t1: ld;ld
	// reading (newer, older).
	p2 := prog.NewBuilder("corr2", 1, prog.DefaultLayout()).
		Thread().Store(0).Store(0).
		Thread().Load(0).Load(0).
		MustBuild()
	b2 := NewBuilder(p2, mcm.TSO, Options{Forwarding: true, WS: WSStatic})
	g2, err := b2.BuildGraph(RF{2: 1, 3: 0}, nil) // first ld reads newer store 1, second reads older store 0
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g2.TopoSort(); ok {
		t.Error("static mode missed a same-thread ld->ld staleness violation")
	}
	// Initial-value staleness is caught too: first ld reads store, second
	// reads initial.
	g3, err := b2.BuildGraph(RF{2: 0, 3: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g3.TopoSort(); ok {
		t.Error("static mode missed an initial-value ld->ld violation")
	}
}

// TestDropFRMode pins the paper-ARM emulation: without fr edges every
// dynamic edge is store→load, the CoRR violation becomes invisible, and a
// stores-first topological order never sees backward dynamic edges.
func TestDropFRMode(t *testing.T) {
	p := prog.NewBuilder("corr", 1, prog.DefaultLayout()).
		Thread().Store(0).
		Thread().Load(0).Load(0).
		MustBuild()
	b := NewBuilder(p, mcm.RMO, Options{Forwarding: true, DropFR: true})
	// CoRR violation: first load sees the store, second sees initial.
	g, err := b.BuildGraph(RF{1: 0, 2: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.TopoSort(); !ok {
		t.Error("DropFR graphs should be blind to CoRR (documented trade-off)")
	}
	// Every dynamic edge must be store→load.
	for _, e := range g.Dynamic {
		if p.OpByID(int(e.U)).Kind != prog.Store || p.OpByID(int(e.V)).Kind != prog.Load {
			t.Errorf("dynamic edge %d->%d is not store→load", e.U, e.V)
		}
	}
}
