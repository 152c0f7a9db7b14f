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
// shapes. Edges is the sorted edge list graph.Builder.DynamicEdges builds. Row
// is where its reads-from row comes from, good for builders in the static ws
// mode, where the graph is a function of the row: its edge list is by
// definition AppendDynamicEdges of the row, and the order-maintaining checkers
// reach the same verdicts and effort counters without building it
// (workspace). A campaign's row items carry nothing but their signature: Row
// is the campaign's instrument.Meta, which the checker asks to decode the
// signature as it installs the item.
type Item struct {
	Sig   sig.Signature
	Edges []graph.Edge
	Row   RowSource
}

// RowSource is where a row item's reads-from row comes from. DecodeRow returns
// the row of the item with signature s — dense, indexed by op ID, as
// instrument.Meta.DecodeInto fills it — and, appended to loads, the loads
// whose entries in it are set. prev is the signature of an item of the same
// source whose row the caller holds, or the zero Signature: a load the source
// leaves out reads what it reads in prev's row. rf, as long as the program has
// ops, is the caller's scratch, which the source may fill and return. The
// installer compares sources, so an implementation must be comparable (a
// pointer).
type RowSource interface {
	DecodeRow(s, prev sig.Signature, rf, loads []int32) (row, set []int32, err error)
}

// literalRow is a row given rather than decoded — a trace's, an experiment's,
// a test's. It sets every load.
type literalRow struct{ rf, loads []int32 }

func (r *literalRow) DecodeRow(_, _ sig.Signature, _, _ []int32) ([]int32, []int32, error) {
	return r.rf, r.loads, nil
}

// NewItem builds the item of the execution with signature s, reads-from row rf
// (indexed by op ID, as instrument.Meta.DecodeInto fills it) and observed write
// serialization ws. It decides the item's shape by the builder's ws mode:
// under static ws the graph is a function of the row, so the row is the item
// once graph.Builder.CheckRF accepts it (the item keeps rf; ws plays no part);
// any other graph is the sorted edge list AppendDynamicEdges builds. A
// signature decoded by instrument.Meta needs no NewItem: Item{Sig: s, Row:
// meta} is its row item, and every source the analysis lists passes CheckRF.
func NewItem(b *graph.Builder, s sig.Signature, rf []int32, ws graph.WS) (Item, error) {
	if b.StaticWS() {
		if err := b.CheckRF(rf); err != nil {
			return Item{}, err
		}
		return Item{Sig: s, Row: &literalRow{rf: rf, loads: b.Loads()}}, nil
	}
	edges, err := b.AppendDynamicEdges(nil, rf, ws)
	if err != nil {
		return Item{}, err
	}
	return Item{Sig: s, Edges: edges}, nil
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
func (r *Result) violation(w *scratch, i int, it Item) error {
	g, err := w.graphOf(it)
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

// debugValidate, when set (tests only), is invoked with each graph an
// order-maintaining checker found valid and the full order it maintains, so
// tests can assert the order remains a valid topological sort.
var debugValidate func(g *graph.Graph, order []int32)

func validateOrder(w *scratch, it Item, order []int32) {
	if debugValidate == nil {
		return
	}
	if g, err := w.graphOf(it); err == nil {
		debugValidate(g, order)
	}
}

// repairFunc is the one thing that differs between the order-maintaining
// backends: given the edges the installed graph has and the last valid one
// lacks, it makes the maintained order (w.pos, w.order) a topological order of
// the installed graph, recording its effort in res — one PerGraph entry and its
// counters. It reports false, the order as it found it, when the graph is cyclic.
type repairFunc func(w *workspace, added []graph.Edge, res *Result) bool

// maintainOrder is the checking loop of the order-maintaining backends: items
// in ascending signature order (anything else is an error: the similarity of
// neighbours underpins the economy, §4.2) are installed in the workspace one by
// one, the first — and every one until some graph is valid — sorted from
// scratch (the run's last item without priorities: they serve only the repair
// of an item after it), each later one handed to repair with its new edges.
// New is relative to the last valid graph, which is what the maintained order
// sorts: a cyclic graph is recorded and rolled back. Removed edges only relax
// constraints.
func maintainOrder(repair repairFunc) func(context.Context, *graph.Builder, []Item) (*Result, error) {
	return func(ctx context.Context, b *graph.Builder, items []Item) (*Result, error) {
		res := &Result{Total: len(items)}
		w := getWorkspace(b)
		defer wsPool.Put(w)
		valid := -1 // the last valid graph's item; -1: no order yet
		for i, it := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if i > 0 && items[i-1].Sig.Compare(it.Sig) > 0 {
				return nil, fmt.Errorf("check: items not in ascending signature order at %d", i)
			}
			added, err := w.install(it)
			if err != nil {
				return nil, fmt.Errorf("check: item %d: %w", i, err)
			}
			var ok bool
			if valid < 0 {
				ok = w.completeSort(res, i < len(items)-1)
			} else {
				ok = repair(w, added, res)
			}
			if ok {
				valid = i
				validateOrder(&w.scratch, it, w.order)
				continue
			}
			if err := res.violation(&w.scratch, i, it); err != nil {
				return nil, err
			}
			if valid >= 0 {
				if _, err := w.install(items[valid]); err != nil {
					return nil, err
				}
			}
		}
		return res, nil
	}
}

// resortWindow is the collective checker's repair (§4.2): the window of the
// maintained order spanned by the new backward edges is re-sorted, and the
// rest of the order stands (the package comment has the proof).
func resortWindow(w *workspace, added []graph.Edge, res *Result) bool {
	pos, order := w.pos, w.order
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
		return true
	}

	window := int(hi - lo + 1)
	res.SortedVertices += int64(window)
	if window > res.MaxWindow {
		res.MaxWindow = window
	}
	res.PerGraph = append(res.PerGraph, GraphStat{Kind: KindIncremental, Affected: window})
	// A window spanning almost the whole order is re-sorted from scratch:
	// cheaper than window bookkeeping and, since any cycle is confined to
	// the window, the same verdict.
	var sorted []int32
	var ok bool
	if window*4 >= w.n*3 {
		sorted, ok = w.fullSort(true)
		lo = 0
	} else {
		sorted, ok = w.windowSort(order, pos, lo, hi)
	}
	if !ok {
		return false // the sorts write scratch only: pos still describes the last valid graph
	}
	// Install the re-sorted window.
	for k, v := range sorted {
		p := lo + int32(k)
		order[p] = v
		pos[v] = p
	}
	return true
}
