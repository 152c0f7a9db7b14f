package check

import (
	"math/rand"
	"reflect"
	"testing"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/testgen"
)

// TestConstraintsEquivalence: the constraint solver must deliver exactly the
// conventional checker's verdicts across models, programs, and fabricated
// execution sets — the property that makes it the differential oracle for
// every fast backend.
func TestConstraintsEquivalence(t *testing.T) {
	for _, model := range mcm.Models {
		for seed := int64(1); seed <= 3; seed++ {
			p := mustGenerate(testgen.Config{
				Threads: 3, OpsPerThread: 12, Words: 4, Seed: seed,
			})
			meta, err := instrument.Analyze(p, 64, nil)
			if err != nil {
				t.Fatal(err)
			}
			b := graph.NewBuilder(p, model, graph.Options{Forwarding: true})
			rng := rand.New(rand.NewSource(seed * 131))
			items := fabricate(t, p, b, meta, 60, rng)
			conv, _ := run("conventional", b, items)
			cs, err := run("constraints", b, items)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(violIndices(cs), violIndices(conv)) {
				t.Fatalf("%v seed %d: constraints verdicts %v, conventional %v",
					model, seed, violIndices(cs), violIndices(conv))
			}
			if cs.Total != len(items) {
				t.Fatalf("%v seed %d: total %d, want %d", model, seed, cs.Total, len(items))
			}
			if cs.Propagations == 0 {
				t.Errorf("%v seed %d: no propagations recorded", model, seed)
			}
			if cs.ClockUpdates != 0 || cs.SortedVertices != 0 || len(cs.PerGraph) != 0 {
				t.Errorf("%v seed %d: solver populated another backend's counters: %+v",
					model, seed, cs)
			}
		}
	}
}

// TestConstraintsCycleWitness: a refuted graph must carry a real cycle of
// the flagged item's constraint graph, exactly like every other backend.
func TestConstraintsCycleWitness(t *testing.T) {
	b, items := fig7Items(t)
	cs, err := run("constraints", b, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Violations) != 1 {
		t.Fatalf("violations = %+v, want exactly one", cs.Violations)
	}
	v := cs.Violations[0]
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
}

// TestConstraintsWitnessAssignment: on an acyclic graph the solver's search
// must complete every domain to a singleton satisfying all constraints —
// checked by re-running solve on a hand-built workspace and inspecting the
// final bounds.
func TestConstraintsWitnessAssignment(t *testing.T) {
	b, items := fig7Items(t)
	w := newCSWorkspace(b)
	for _, it := range items {
		sat, _ := w.solve(it.Edges)
		cyclic := b.FromDynamic(it.Edges).FindCycle() != nil
		if sat == cyclic {
			t.Fatalf("solve = %t but FindCycle cyclic = %t", sat, cyclic)
		}
		if !sat {
			continue
		}
		// The search ended with every variable assigned; the assignment must
		// satisfy every constraint of this item.
		for i := range w.lb {
			if w.lb[i] != w.ub[i] {
				t.Fatalf("variable %d left unassigned: [%d, %d]", i, w.lb[i], w.ub[i])
			}
		}
		for _, e := range w.edges {
			if w.lb[e.U] >= w.lb[e.V] {
				t.Fatalf("witness violates edge %d->%d: pos %d >= %d",
					e.U, e.V, w.lb[e.U], w.lb[e.V])
			}
		}
	}
}

// TestConstraintsTrailUndo: trail-based undo must restore domains exactly,
// including interleaved lb/ub tightenings of the same variable — the
// machinery backtracking depends on.
func TestConstraintsTrailUndo(t *testing.T) {
	b, _ := fig7Items(t)
	w := newCSWorkspace(b)
	n := w.n
	for i := range w.lb {
		w.lb[i], w.ub[i] = 0, int32(n-1)
	}
	w.trail = w.trail[:0]
	var props int64
	mark0 := len(w.trail)
	if !w.setLB(0, 2, &props) || !w.setUB(0, 3, &props) {
		t.Fatal("tightening within the domain reported failure")
	}
	mark1 := len(w.trail)
	if !w.setLB(0, 3, &props) {
		t.Fatal("tightening to the singleton reported failure")
	}
	if w.setUB(0, 2, &props) {
		t.Fatal("emptying the domain reported success")
	}
	w.undo(mark1)
	if w.lb[0] != 2 || w.ub[0] != 3 {
		t.Fatalf("undo to mark1: domain [%d, %d], want [2, 3]", w.lb[0], w.ub[0])
	}
	w.undo(mark0)
	if w.lb[0] != 0 || w.ub[0] != int32(n-1) {
		t.Fatalf("undo to mark0: domain [%d, %d], want [0, %d]", w.lb[0], w.ub[0], n-1)
	}
	if props != 4 {
		t.Errorf("props = %d, want 4 (every tightening counts, undone or not)", props)
	}
}
