// Package check implements MTraceCheck's violation checking (paper §4):
// the conventional baseline that topologically sorts every unique
// execution's constraint graph from scratch, and the collective checker
// that exploits structural similarity between graphs of adjacent sorted
// signatures, re-sorting only the window of vertices spanned by newly
// introduced backward edges (§4.2).
//
// Window correctness (the proof the paper omits for space): let pos be a
// valid topological order of the previous graph and let the window [lo, hi]
// span every new backward edge — lo is the minimum position among backward
// edge heads, hi the maximum among backward-edge tails. Any edge entering
// the window from a position above hi would have been a backward edge with
// its head inside the window (old edges are forward; new backward edges
// have tails at positions ≤ hi by construction), and any edge leaving the
// window to a position below lo would likewise contradict lo's minimality.
// Hence no constraint crosses into the window from above or out of it
// below: re-sorting the window's vertices among their own positions
// preserves validity, and any cycle must lie entirely within the window.
package check

import (
	"context"
	"fmt"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/sig"
)

// Item is one unique execution to check: its signature (for ordering and
// reporting) and its constraint graph's dynamic part, in exactly one of two
// shapes. Edges is the sorted edge list graph.Builder.DynamicEdges builds. RF
// is the dense reads-from row instrument.Meta.DecodeInto fills (indexed by op
// ID; see graph.Builder.AppendDynamicEdges), good for builders in the static
// ws mode, where the graph is a function of the row: its edge list is by
// definition AppendDynamicEdges(RF), and the order-maintaining checkers reach
// the same verdicts and effort counters without building it (workspace).
type Item struct {
	Sig   sig.Signature
	Edges []graph.Edge
	RF    []int32
}

// edges returns the item's dynamic edge list: Edges, or the list built from
// RF into *buf's storage (valid until the next call with that buffer).
func (it Item) edges(b *graph.Builder, buf *[]graph.Edge) ([]graph.Edge, error) {
	if it.RF == nil {
		return it.Edges, nil
	}
	edges, err := b.AppendDynamicEdges((*buf)[:0], it.RF, nil)
	if err == nil {
		*buf = edges
	}
	return edges, err
}

// graphOf assembles the item's whole constraint graph — for cycle witnesses
// and self-checks, off every hot path.
func graphOf(b *graph.Builder, it Item) (*graph.Graph, error) {
	var buf []graph.Edge
	edges, err := it.edges(b, &buf)
	if err != nil {
		return nil, err
	}
	return b.FromDynamic(edges), nil
}

// sequenceShape validates what the order-maintaining checkers need of their
// items — ascending signatures and one item shape throughout, since a
// workspace holds either a row or a list — and reports whether they carry
// reads-from rows.
func sequenceShape(items []Item) (rows bool, err error) {
	rows = len(items) > 0 && items[0].RF != nil
	for i := range items {
		if i > 0 && items[i-1].Sig.Compare(items[i].Sig) > 0 {
			return false, fmt.Errorf("check: items not in ascending signature order at %d", i)
		}
		if (items[i].RF != nil) != rows {
			return false, fmt.Errorf("check: items mix edge lists and reads-from rows at %d", i)
		}
	}
	return rows, nil
}

// Violation reports one failed graph.
type Violation struct {
	Index int           // position within the checked sequence
	Sig   sig.Signature // offending signature
	Cycle []int32       // one cyclic dependency (operation IDs)
}

// Kind classifies how a graph was validated by the collective checker
// (paper Fig. 14's breakdown).
type Kind uint8

const (
	// KindComplete is a full from-scratch topological sort.
	KindComplete Kind = iota
	// KindNoResort means no new backward edges: validated for free.
	KindNoResort
	// KindIncremental means a bounded window was re-sorted.
	KindIncremental
)

// GraphStat records the checking effort for one graph.
type GraphStat struct {
	Kind     Kind
	Affected int // vertices re-sorted (window size; N for complete)
}

// Result aggregates a checking run. Total and Violations are the verdict,
// identical across backends; the remaining fields are effort accounting and
// each backend populates only the counters its algorithm has a notion of.
type Result struct {
	Total      int
	Violations []Violation
	PerGraph   []GraphStat // order-maintaining checkers (collective, incremental) only
	// SortedVertices counts every vertex visited by a topological (re)sort —
	// the computation metric behind Fig. 9's speedup.
	SortedVertices int64
	// BackwardEdges counts new edges found backward against the maintained
	// order — the quantity whose span defines each re-sort window (§4.2).
	BackwardEdges int64
	// MaxWindow is the largest window re-sorted incrementally (0 when every
	// graph was validated by a complete sort or for free).
	MaxWindow int
	// ClockUpdates counts clock joins that changed a clock — the vector-clock
	// backend's effort metric (zero for the sorting backends).
	ClockUpdates int64
	// Propagations counts domain-bound tightenings performed by the
	// constraint-solver backend — its effort metric (zero elsewhere).
	Propagations int64
}

// violation records item i as cyclic, with one cycle of its graph as witness.
func (r *Result) violation(b *graph.Builder, i int, it Item) error {
	g, err := graphOf(b, it)
	if err != nil {
		return err
	}
	r.Violations = append(r.Violations, Violation{Index: i, Sig: it.Sig, Cycle: g.FindCycle()})
	return nil
}

// Counts tallies graphs per validation kind. Only the order-maintaining
// backends (collective, and incremental with its analogous repair kinds) keep
// PerGraph stats; all three counts are zero for the others.
func (r *Result) Counts() (complete, noResort, incremental int) {
	for _, s := range r.PerGraph {
		switch s.Kind {
		case KindComplete:
			complete++
		case KindNoResort:
			noResort++
		case KindIncremental:
			incremental++
		}
	}
	return
}

// debugValidate, when set (tests only), is invoked with each graph the
// collective checker validated incrementally and the full order it
// maintains, so tests can assert the order remains a valid topological sort.
var debugValidate func(g *graph.Graph, order []int32)

func validateOrder(b *graph.Builder, it Item, order []int32) {
	if debugValidate == nil {
		return
	}
	if g, err := graphOf(b, it); err == nil {
		debugValidate(g, order)
	}
}

// collective checks items in ascending-signature order using topological
// re-sorting (§4.2). Items must be sorted by signature (as produced by
// sig.Dedup) and it is an error otherwise, since the similarity assumption
// underpins the windowing.
func collective(ctx context.Context, b *graph.Builder, items []Item) (*Result, error) {
	res := &Result{Total: len(items)}
	if len(items) == 0 {
		return res, nil
	}
	rows, err := sequenceShape(items)
	if err != nil {
		return nil, err
	}

	n := b.NumOps()
	w := getWorkspace(b)
	defer wsPool.Put(w)
	pos := w.pos     // vertex -> position in current valid order
	order := w.order // position -> vertex
	havePos := false
	var base Item // the last valid graph; what "new edges" are relative to

	for i, it := range items {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// New edges relative to the last valid graph; removed edges only
		// relax constraints and are ignored (§4.2). A row is installed as it
		// arrives and its delta is against the installed row, which is base's:
		// a cyclic graph is rolled back. A list is installed when a sort needs
		// it.
		var added []graph.Edge
		if rows {
			if added, err = w.installRow(it.RF); err != nil {
				return nil, err
			}
		} else if havePos {
			w.edgeBuf = diffEdges(w.edgeBuf[:0], it.Edges, base.Edges)
			added = w.edgeBuf
		}
		if !havePos {
			// First graph (or recovery after a cyclic graph): complete sort.
			if !rows {
				w.setDyn(it.Edges)
			}
			if havePos = w.completeSort(res); havePos {
				base = it
			} else if err := res.violation(b, i, it); err != nil {
				return nil, err
			}
			continue
		}

		lo, hi := int32(-1), int32(-1)
		for _, e := range added {
			pu, pv := pos[e.U], pos[e.V]
			if pu > pv { // backward edge
				res.BackwardEdges++
				if lo < 0 || pv < lo {
					lo = pv
				}
				if pu > hi {
					hi = pu
				}
			}
		}
		if lo < 0 {
			// Every new edge is forward: the existing order already proves
			// this graph consistent.
			res.PerGraph = append(res.PerGraph, GraphStat{Kind: KindNoResort})
			base = it
			continue
		}

		window := int(hi - lo + 1)
		res.SortedVertices += int64(window)
		if window > res.MaxWindow {
			res.MaxWindow = window
		}
		res.PerGraph = append(res.PerGraph, GraphStat{Kind: KindIncremental, Affected: window})
		if !rows {
			w.setDyn(it.Edges)
		}
		// A window spanning almost the whole order is re-sorted from scratch:
		// cheaper than window bookkeeping and, since any cycle is confined to
		// the window, the same verdict.
		wholesale := window*4 >= n*3
		var sorted []int32
		var ok bool
		if wholesale {
			sorted, ok = w.fullSort(true)
		} else {
			sorted, ok = w.windowSort(order, pos, lo, hi)
		}
		if !ok {
			if err := res.violation(b, i, it); err != nil {
				return nil, err
			}
			// pos still describes the last valid graph; keep using it, and
			// put that graph's row back so the next delta is against it.
			if rows {
				if _, err := w.installRow(base.RF); err != nil {
					return nil, err
				}
			}
			continue
		}
		if wholesale {
			lo = 0
		}
		// Install the re-sorted window.
		for k, v := range sorted {
			p := lo + int32(k)
			order[p] = v
			pos[v] = p
		}
		base = it
		validateOrder(b, it, order)
	}
	return res, nil
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
