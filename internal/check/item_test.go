package check

import (
	"strings"
	"testing"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
)

// TestNewItemShape: the constructor decides an item's shape from the
// builder's ws mode and from nothing else — a static-ws builder gets the row
// (once CheckRF accepts it), any other the edge list — and the installer
// refuses a sequence that mixes what it made.
func TestNewItemShape(t *testing.T) {
	// t0: st(0)=op0, ld(0)=op1; t1: st(0)=op2.
	p := prog.NewBuilder("t", 1, prog.DefaultLayout()).
		Thread().Store(0).Load(0).
		Thread().Store(0).
		MustBuild()
	static := graph.NewBuilder(p, mcm.TSO, graph.Options{})
	observed := graph.NewBuilder(p, mcm.TSO, graph.Options{WS: graph.WSObserved})
	ws := graph.WS{0: {0, 2}}
	made := map[string]Item{}
	for _, tc := range []struct {
		name    string
		b       *graph.Builder
		rf      []int32
		ws      graph.WS
		row     bool
		wantErr string
	}{
		{name: "static ws: the row", b: static, rf: []int32{0, 2, 0}, row: true},
		{name: "static ws ignores a recorded ws", b: static, rf: []int32{0, 0, 0}, ws: ws, row: true},
		{name: "static ws: CheckRF's error", b: static, rf: []int32{0, 1, 0}, wantErr: static.CheckRF([]int32{0, 1, 0}).Error()},
		{name: "static ws: short row", b: static, rf: []int32{0}, wantErr: "need 3"},
		{name: "observed ws: the list", b: observed, rf: []int32{0, 2, 0}, ws: ws},
		{name: "observed ws: bad source", b: observed, rf: []int32{0, 1, 0}, ws: ws, wantErr: "incompatible"},
	} {
		s := sig.New([]uint64{uint64(len(made))})
		it, err := NewItem(tc.b, s, tc.rf, tc.ws)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !it.Sig.Equal(s) || (it.Row != nil) != tc.row || (it.Row != nil) == (it.Edges != nil) {
			t.Errorf("%s: item %+v, want a row: %t", tc.name, it, tc.row)
		}
		if tc.row && &it.Row.(*literalRow).rf[0] != &tc.rf[0] {
			t.Errorf("%s: the row item does not keep the caller's row", tc.name)
		}
		if !tc.row {
			want, _ := tc.b.AppendDynamicEdges(nil, tc.rf, tc.ws)
			if len(want) == 0 || len(it.Edges) != len(want) {
				t.Errorf("%s: edges %v, want AppendDynamicEdges' %v", tc.name, it.Edges, want)
			}
		}
		made[tc.name] = it
	}
	mixed := []Item{made["static ws: the row"], made["observed ws: the list"]}
	for _, name := range []string{"collective", "incremental"} {
		for _, items := range [][]Item{mixed, {mixed[1], mixed[0]}} {
			items[0].Sig, items[1].Sig = sig.New([]uint64{1}), sig.New([]uint64{2})
			_, err := run(name, static, items)
			if err == nil || !strings.Contains(err.Error(), "item 1: items mix") {
				t.Errorf("%s: mixed shapes: err = %v, want the installer's refusal of item 1", name, err)
			}
		}
	}
	if _, err := run("collective", static, mixed[:1]); err != nil {
		t.Errorf("a row item alone: %v", err)
	}
}
