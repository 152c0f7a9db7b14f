package check

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/sig"
)

var update = flag.Bool("update", false, "rewrite testdata/effort.golden")

// effortSequence is a fixed item sequence that takes the order-maintaining
// checkers down every path of their loop: it opens on two cyclic graphs (no
// order to maintain yet, so each is a complete sort), runs through the bug
// set's rows around its first three cyclic ones (windows, repairs, cyclic
// graphs in mid-sequence that are rolled back) and closes on one valid row
// repeated (a run validated for free). Signatures are the positions: the
// checkers only compare them.
func effortSequence(t *testing.T, b *graph.Builder) rowSet {
	t.Helper()
	rs := bugRowSet(t)
	conv, err := run("conventional", b, rs.rowItems(b))
	if err != nil {
		t.Fatal(err)
	}
	cyclic := make(map[int]bool)
	for _, v := range conv.Violations {
		cyclic[v.Index] = true
	}
	if len(conv.Violations) < 3 {
		t.Fatalf("bug set has %d cyclic graphs, need 3", len(conv.Violations))
	}
	seq := rowSet{name: "effort", prog: rs.prog}
	add := func(i int) {
		seq.sigs = append(seq.sigs, sig.New([]uint64{uint64(len(seq.sigs))}))
		seq.rows = append(seq.rows, rs.rows[i])
	}
	add(conv.Violations[0].Index)
	add(conv.Violations[1].Index)
	lastValid := -1
	first, last := conv.Violations[0].Index, conv.Violations[2].Index
	for i := max(first-8, 0); i < min(last+8, len(rs.rows)); i++ {
		add(i)
		if !cyclic[i] {
			lastValid = i
		}
	}
	for k := 0; k < 4; k++ {
		add(lastValid)
	}
	return seq
}

func formatEffort(w *bytes.Buffer, title string, r *Result) {
	fmt.Fprintf(w, "%s: total %d, sorted vertices %d, backward edges %d, max window %d\n",
		title, r.Total, r.SortedVertices, r.BackwardEdges, r.MaxWindow)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  violation %d (%s): cycle %v\n", v.Index, v.Sig, v.Cycle)
	}
	for i, s := range r.PerGraph {
		fmt.Fprintf(w, "  graph %d: kind %d, affected %d\n", i, s.Kind, s.Affected)
	}
}

// oneItemRuns appends the effort of two one-item runs to got: the sequence's
// first item, which is cyclic, and its last, which is valid. A run's last item
// is sorted from scratch only when it is also its first valid one, and the
// sequence itself never gets there.
func oneItemRuns(t *testing.T, got *bytes.Buffer, backend, shape string, b *graph.Builder, items []Item) {
	t.Helper()
	title := backend + "/" + shape
	for _, one := range []struct {
		name   string
		item   Item
		cyclic bool
	}{{"one cyclic", items[0], true}, {"one valid", items[len(items)-1], false}} {
		res, err := run(backend, b, []Item{one.item})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) == 1 != one.cyclic || len(res.PerGraph) != 1 || res.PerGraph[0].Kind != KindComplete {
			t.Fatalf("%s, %s: %d violations, per graph %+v: want a complete sort that finds cyclic=%v",
				title, one.name, len(res.Violations), res.PerGraph, one.cyclic)
		}
		formatEffort(got, title+", "+one.name, res)
	}
}

// TestEffortGolden pins everything the order-maintaining checkers report —
// verdicts, witnesses, every PerGraph entry and effort counter — in both item
// shapes, byte for byte against a file captured before the loop they shared
// by copy became one driver.
func TestEffortGolden(t *testing.T) {
	b := graph.NewBuilder(bugRowSet(t).prog, mcm.TSO, graph.Options{Forwarding: true})
	seq := effortSequence(t, b)
	shapes := []struct {
		name  string
		items []Item
	}{{"rows", seq.rowItems(b)}, {"lists", seq.listItems(t, b)}}
	var got, ones bytes.Buffer // the one-item runs go last
	for _, name := range []string{"collective", "incremental"} {
		for _, shape := range shapes {
			res, err := run(name, b, shape.items)
			if err != nil {
				t.Fatal(err)
			}
			formatEffort(&got, name+"/"+shape.name, res)
			oneItemRuns(t, &ones, name, shape.name, b, shape.items)
			if name != "collective" || shape.name != "rows" {
				continue
			}
			// The sequence must hold what it is for.
			viol := violIndices(res)
			if len(viol) < 3 || viol[0] != 0 || viol[1] != 1 || viol[2] >= len(shape.items)-4 {
				t.Fatalf("violations at %v: want a cyclic first graph and a cyclic middle one", viol)
			}
			for _, s := range res.PerGraph[len(res.PerGraph)-4:] {
				if s.Kind != KindNoResort {
					t.Fatalf("closing run validated as %+v, want no-resort", s)
				}
			}
		}
	}
	got.Write(ones.Bytes())
	const path = "testdata/effort.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("effort differs from %s (captured on the parent commit):\n%s", path, got.Bytes())
	}
}
