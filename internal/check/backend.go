package check

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/sig"
)

// Backend is one row of the checker table: a violation-checking algorithm
// under the name users pass to the CLIs' -checker flag. All backends agree on
// verdicts — the violation set over the same items is identical — and differ
// in the Result counters they fill and in how they print them.
type Backend struct {
	Name string
	// Check validates the items against b's constraint graphs. Items must be
	// in ascending signature order for the order-maintaining backends
	// (incremental, collective); the per-graph ones accept any order. The
	// context is polled between graphs: a cancelled check returns ctx.Err(),
	// never a partial verdict.
	Check func(ctx context.Context, b *graph.Builder, items []Item) (*Result, error)
	// Effort renders the counters this backend fills as the one line a report
	// prints about the checking effort; "" when there is nothing to say.
	Effort func(r *Result) string
}

// Backends is the checker table, in the order -h lists it; the first row is
// the default. A new algorithm is one more row.
//
// Pearce–Kelly order repair leads because it measured fastest on the
// benchmark's signature sets: its repairs touch a fraction of the vertices the
// windowed re-sort does. The paper's §4.2 checker stays as collective:
// Fig. 9, Fig. 14 and the ws ablation measure it by name.
var Backends = []Backend{
	{Name: "incremental", Check: maintainOrder(repairEdges), Effort: orderEffort("incremental")},
	{Name: "collective", Check: maintainOrder(resortWindow), Effort: orderEffort("collective")},
	{Name: "conventional", Check: perGraph(&wsPool, newWorkspace),
		Effort: func(r *Result) string {
			return fmt.Sprintf("conventional checking: %d graphs (%d vertices sorted)", r.Total, r.SortedVertices)
		}},
	{Name: "vectorclock", Check: perGraph(&vcPool, newVCWorkspace),
		Effort: func(r *Result) string {
			return fmt.Sprintf("vector-clock checking: %d graphs (%d clock updates)", r.Total, r.ClockUpdates)
		}},
	// The constraint solver is an oracle, not a contender.
	{Name: "constraints", Check: perGraph(&csPool, newCSWorkspace),
		Effort: func(r *Result) string {
			return fmt.Sprintf("constraint checking:  %d graphs (%d propagations)", r.Total, r.Propagations)
		}},
}

// orderEffort renders the line of an order-maintaining row, which records how
// each graph was validated, under the row's name.
func orderEffort(name string) func(*Result) string {
	label := name + " checking:"
	return func(r *Result) string {
		complete, noResort, incremental := r.Counts()
		if complete+noResort+incremental == 0 {
			return ""
		}
		return fmt.Sprintf("%-21s %d complete, %d no-resort, %d incremental (%d vertices sorted)",
			label, complete, noResort, incremental, r.SortedVertices)
	}
}

// Names lists the table's names in table order — the valid -checker values.
func Names() []string {
	names := make([]string, len(Backends))
	for i := range Backends {
		names[i] = Backends[i].Name
	}
	return names
}

// ForName returns the table row called name; the empty name is the default
// row. The error lists every valid name, so a flag error derived from it
// cannot drift from the implemented set.
func ForName(name string) (*Backend, error) {
	if name == "" {
		return &Backends[0], nil
	}
	for i := range Backends {
		if Backends[i].Name == name {
			return &Backends[i], nil
		}
	}
	return nil, fmt.Errorf("check: unknown checker %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// scratch is what every backend's recycled workspace starts with. The paper
// recycles vertex structures across graphs (§6.2); a workspace does so across
// checking runs too, through a sync.Pool, as long as the runs share a builder.
type scratch struct {
	owner   *graph.Builder // the builder the workspace was shaped for
	edgeBuf []graph.Edge   // edge-list scratch: a row item's built list, a list item's diff
	// A row item's decode scratch, RowSource's rf and loads, each as long as
	// the program has ops (setBuf empty, with that capacity: a program has
	// fewer loads, so what a source appends never moves): carved with the
	// workspace or made at its first row item. What comes back is not kept.
	rowBuf, setBuf []int32
}

func (s *scratch) base() *scratch { return s }

// edges returns the item's dynamic edge list: Edges, or the list built from
// its whole row into edgeBuf (valid until the next call).
func (s *scratch) edges(it Item) ([]graph.Edge, error) {
	if it.Row == nil {
		return it.Edges, nil
	}
	if s.rowBuf == nil {
		n := s.owner.NumOps()
		buf := make([]int32, 2*n)
		s.rowBuf, s.setBuf = buf[:n:n], buf[n:n]
	}
	row, _, err := it.Row.DecodeRow(it.Sig, sig.Signature{}, s.rowBuf, s.setBuf)
	if err != nil {
		return nil, err
	}
	edges, err := s.owner.AppendDynamicEdges(s.edgeBuf[:0], row, nil)
	if err == nil {
		s.edgeBuf = edges
	}
	return edges, err
}

// graphOf assembles the item's whole constraint graph — for cycle witnesses
// and self-checks, off every hot path. The graph holds edgeBuf.
func (s *scratch) graphOf(it Item) (*graph.Graph, error) {
	edges, err := s.edges(it)
	if err != nil {
		return nil, err
	}
	return s.owner.FromDynamic(edges), nil
}

// pooled takes a workspace shaped for b from pool, or builds one with fresh
// (which records b as the owner). A pooled workspace built against a
// different builder is dropped: its static adjacency, tables and buffer sizes
// belong to that builder's program. The caller puts the workspace back when
// its run ends.
func pooled[W interface{ base() *scratch }](pool *sync.Pool, b *graph.Builder, fresh func(*graph.Builder) W) W {
	if w, ok := pool.Get().(W); ok && w.base().owner == b {
		return w
	}
	return fresh(b)
}

// perGraph is the checking loop of the backends that judge every graph on its
// own (conventional, vectorclock, constraints): each item's dynamic edges go
// to the workspace's cyclic, which adds its effort to the result. No state
// crosses items, so any contiguous subrange checks alike and the effort
// counters do not depend on the sharding.
func perGraph[W interface {
	base() *scratch
	cyclic(dyn []graph.Edge, res *Result) bool
}](pool *sync.Pool, fresh func(*graph.Builder) W) func(context.Context, *graph.Builder, []Item) (*Result, error) {
	return func(ctx context.Context, b *graph.Builder, items []Item) (*Result, error) {
		res := &Result{Total: len(items)}
		w := pooled(pool, b, fresh)
		defer pool.Put(w)
		for i, it := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			dyn, err := w.base().edges(it)
			if err != nil {
				return nil, err
			}
			if w.cyclic(dyn, res) {
				if err := res.violation(w.base(), i, it); err != nil {
					return nil, err
				}
			}
		}
		return res, nil
	}
}

// Disagreement reports the first item on which two backends reached
// different verdicts — by construction a bug in at least one of them.
type Disagreement struct {
	A, B                 string // backend names
	Index                int    // position of the disputed item
	Sig                  sig.Signature
	AViolates, BViolates bool
}

func (d *Disagreement) String() string {
	return fmt.Sprintf("item %d (%s): %s violation=%t, %s violation=%t",
		d.Index, d.Sig, d.A, d.AViolates, d.B, d.BViolates)
}

// Differential races two backends over the same items concurrently and
// compares their verdicts: a nil Disagreement means the violation index sets
// matched exactly. Any disagreement is a checker bug finder for free — the
// backends implement independent algorithms, so they can only diverge when
// one of them is wrong. An error from either backend (including ctx
// cancellation) aborts the comparison.
func Differential(ctx context.Context, a, b *Backend, builder *graph.Builder, items []Item) (*Disagreement, error) {
	var ra, rb *Result
	var ea, eb error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ra, ea = a.Check(ctx, builder, items) }()
	go func() { defer wg.Done(); rb, eb = b.Check(ctx, builder, items) }()
	wg.Wait()
	if ea != nil {
		return nil, fmt.Errorf("check: differential: %s: %w", a.Name, ea)
	}
	if eb != nil {
		return nil, fmt.Errorf("check: differential: %s: %w", b.Name, eb)
	}
	// Violations are appended in ascending item order by every backend, so
	// the first membership difference falls out of one sorted-merge walk.
	va, vb := ra.Violations, rb.Violations
	for len(va) > 0 || len(vb) > 0 {
		switch {
		case len(vb) == 0 || (len(va) > 0 && va[0].Index < vb[0].Index):
			return &Disagreement{A: a.Name, B: b.Name, Index: va[0].Index,
				Sig: va[0].Sig, AViolates: true}, nil
		case len(va) == 0 || vb[0].Index < va[0].Index:
			return &Disagreement{A: a.Name, B: b.Name, Index: vb[0].Index,
				Sig: vb[0].Sig, BViolates: true}, nil
		default:
			va, vb = va[1:], vb[1:]
		}
	}
	return nil, nil
}
