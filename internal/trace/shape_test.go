package trace

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/prog"
)

// pinShapes makes what the shape pool hands back repeatable for the rest of
// the test — one P, so one pool slot, and no collection to age it — and empties
// it. Under the race detector sync.Pool drops a quarter of all Puts at random:
// results must still be equal there, but a hit cannot be demanded, and
// pinShapes reports false.
func pinShapes(t *testing.T) (hitsRepeat bool) {
	t.Helper()
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
	dropShapes()
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return false
		}
	}
	return true
}

// dropShapes empties the shape pool: the next Bind builds its shape.
func dropShapes() {
	for shapes.Get() != nil {
	}
}

// bound is what Bind returned, errors by their text.
type bound struct {
	b   *Binding
	err string
}

func bind(t *Trace) bound {
	b, err := t.Bind()
	if err != nil {
		return bound{err: err.Error()}
	}
	return bound{b: b}
}

func coldBind(t *Trace) bound {
	dropShapes()
	return bind(t)
}

func clone(t *Trace) *Trace { return &Trace{Ops: append([]Op(nil), t.Ops...)} }

const shapeBase = `0: M[0x10] := 1
0: M[0x14] == 2
0: sync
1: M[0x14] := 2
1: M[0x10] == 1
2: M[0x10] == 0
`

// TestShapeKeyIsComplete: the kept shape serves exactly the traces that differ
// from the one it was built from in load values and source positions. Any
// other difference — one op's thread, kind or address, one store's value, the
// op count, the op order — builds a new shape, and either way the binding (or
// the error) is the one a cold Bind returns.
func TestShapeKeyIsComplete(t *testing.T) {
	hitsRepeat := pinShapes(t)
	base := parseString(t, shapeBase)

	type mutation struct {
		name string
		hit  bool
		tr   *Trace
	}
	var muts []mutation
	add := func(name string, hit bool, edit func(tr *Trace)) {
		tr := clone(base)
		edit(tr)
		muts = append(muts, mutation{name, hit, tr})
	}
	for i, op := range base.Ops {
		add(fmt.Sprintf("thread of op %d", i), false, func(tr *Trace) { tr.Ops[i].Thread += 3 })
		for _, k := range []Kind{Load, Store, Fence, Kind(7)} {
			if k != op.Kind {
				add(fmt.Sprintf("kind of op %d to %v", i, k), false, func(tr *Trace) { tr.Ops[i].Kind = k })
			}
		}
		add(fmt.Sprintf("address of op %d", i), false, func(tr *Trace) { tr.Ops[i].Addr += 0x100 })
		switch op.Kind {
		case Store:
			add(fmt.Sprintf("value of store %d", i), false, func(tr *Trace) { tr.Ops[i].Value += 10 })
			add(fmt.Sprintf("store %d of the initial value", i), false, func(tr *Trace) { tr.Ops[i].Value = InitialValue })
		case Load:
			add(fmt.Sprintf("load %d reads the initial value", i), true, func(tr *Trace) { tr.Ops[i].Value = InitialValue })
			add(fmt.Sprintf("load %d reads a value never written", i), true, func(tr *Trace) { tr.Ops[i].Value = 99 })
		}
		add(fmt.Sprintf("op %d removed", i), false, func(tr *Trace) { tr.Ops = append(tr.Ops[:i], tr.Ops[i+1:]...) })
	}
	add("one op more", false, func(tr *Trace) { tr.Ops = append(tr.Ops, Op{Thread: 2, Kind: Fence}) })
	add("two ops swapped", false, func(tr *Trace) { tr.Ops[0], tr.Ops[3] = tr.Ops[3], tr.Ops[0] })
	add("duplicate store", false, func(tr *Trace) { tr.Ops[3] = Op{Thread: 1, Kind: Store, Addr: 0x10, Value: 1} })
	add("no ops", false, func(tr *Trace) { tr.Ops = nil })
	add("loads exchange values", true, func(tr *Trace) { tr.Ops[4].Value, tr.Ops[5].Value = tr.Ops[5].Value, tr.Ops[4].Value })
	add("constructed: no source lines", true, func(tr *Trace) {
		for i := range tr.Ops {
			tr.Ops[i].Line = 0
		}
	})
	add("a fence's unused fields", true, func(tr *Trace) { tr.Ops[2].Value = 5 })
	// resolve meets the fault first and the difference last: the pass it
	// abandons must leave nothing in the binding built after it.
	add("a value fault at the first load, the last op's address", false, func(tr *Trace) {
		tr.Ops[1].Value = 99
		tr.Ops[5].Addr += 0x100
	})
	muts = append(muts,
		mutation{"identical", true, parseString(t, shapeBase)},
		mutation{"comments and blank lines", true, parseString(t, "# header\n\n"+strings.ReplaceAll(shapeBase, "\n", " # c\n\n"))},
	)

	for _, m := range muts {
		cold := coldBind(m.tr)
		dropShapes()
		first := bind(base)
		warm := bind(m.tr)
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("%s: bound after the base trace %+v, cold %+v", m.name, warm, cold)
		}
		if hitsRepeat && warm.b != nil && (warm.b.Prog == first.b.Prog) != m.hit {
			t.Errorf("%s: shape reused = %v, want %v", m.name, !m.hit, m.hit)
		}
		if m.hit && warm.b == nil {
			t.Errorf("%s: %s", m.name, warm.err)
		}
	}
}

// TestShapeReuseKeepsPositions: what a reused shape says about a trace — value
// faults, their positions — is in that trace's own lines and values.
func TestShapeReuseKeepsPositions(t *testing.T) {
	hitsRepeat := pinShapes(t)
	first, err := parseString(t, shapeBase).Bind()
	if err != nil {
		t.Fatal(err)
	}
	moved := parseString(t, "\n\n\n"+strings.Replace(shapeBase, "== 2", "== 77", 1))
	b, err := moved.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if hitsRepeat && b.Prog != first.Prog {
		t.Error("shape was not reused")
	}
	const want = "trace: line 5: thread 0 load of 0x14 observed 77, a value never written to that address"
	if len(b.ValueFaults) != 1 || b.ValueFaults[0].Error() != want {
		t.Errorf("value faults = %v, want %q", b.ValueFaults, want)
	}
	if b.Trace != moved || b.AddrOfOp(1) != 0x14 {
		t.Errorf("binding does not refer to the trace it was made from")
	}
	if b.RF[1] != graph.NoObservation {
		t.Errorf("value-faulted load has a source: RF %v", b.RF)
	}
}

// TestShapeKeyIsPrivate: the caller owns Trace.Ops and may change it once Bind
// has returned; the kept shape must neither change with it nor vouch for it.
func TestShapeKeyIsPrivate(t *testing.T) {
	hitsRepeat := pinShapes(t)
	scribbled := parseString(t, shapeBase)
	first, err := scribbled.Bind()
	if err != nil {
		t.Fatal(err)
	}
	// The store the loads of 0x10 resolve to now writes elsewhere.
	scribbled.Ops[0].Addr, scribbled.Ops[0].Value = 0x40, 9

	fresh := parseString(t, shapeBase)
	warm := bind(fresh)
	if hitsRepeat && warm.b.Prog != first.Prog {
		t.Error("an unchanged trace no longer matches the kept shape")
	}
	if cold := coldBind(fresh); !reflect.DeepEqual(warm, cold) {
		t.Errorf("after the first trace was changed: bound %+v, cold %+v", warm, cold)
	}

	dropShapes()
	if _, err := parseString(t, shapeBase).Bind(); err != nil {
		t.Fatal(err)
	}
	warm = bind(scribbled)
	if cold := coldBind(scribbled); !reflect.DeepEqual(warm, cold) {
		t.Errorf("the changed trace: bound %+v, cold %+v", warm, cold)
	}
	if len(warm.b.ValueFaults) != 1 {
		t.Errorf("the changed trace has %d value faults, want the load of 0x10 that lost its store", len(warm.b.ValueFaults))
	}
}

// TestRFIsDense: RF is the checkers' dense row, one entry per program
// operation: the writer's op ID, -1 for the initial value, and NoObservation
// for a value-faulted load and for every operation that is not a load.
func TestRFIsDense(t *testing.T) {
	b, err := parseString(t, strings.Replace(shapeBase, "== 2", "== 77", 1)).Bind()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.RF) != b.Prog.NumOps() {
		t.Fatalf("RF has %d entries for %d ops", len(b.RF), b.Prog.NumOps())
	}
	// Thread 0's ops are 0..2, thread 1's 3 and 4, thread 2's 5.
	no := int32(graph.NoObservation)
	want := []int32{no, no, no, no, 0, -1}
	if !reflect.DeepEqual(b.RF, want) {
		t.Errorf("RF = %v, want %v", b.RF, want)
	}
	for id, src := range b.RF {
		if isLoad := b.Prog.OpByID(id).Kind == prog.Load; !isLoad && src != graph.NoObservation {
			t.Errorf("op %d is not a load and has source %d", id, src)
		}
	}
}
