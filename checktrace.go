package mtracecheck

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"mtracecheck/internal/check"
	"mtracecheck/internal/graph"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/trace"
)

// External-trace checking: the front door for executions this framework's
// simulator did not produce. An Axe-style text trace (see internal/trace)
// records what some memory subsystem — silicon, RTL simulation, another
// simulator — actually did; CheckTrace binds it onto the same constraint
// graphs and checking backends every campaign uses and returns an ordinary
// Report. The simulator is just one producer among many.

type (
	// ExecTrace is one externally observed execution: per-thread memory
	// requests/responses with values. (Named to avoid colliding with the
	// Trace observer, which writes Chrome trace-event output.)
	ExecTrace = trace.Trace
	// TraceOp is one observed operation of an ExecTrace.
	TraceOp = trace.Op
	// TraceBinding is a trace mapped onto the checking machinery — the
	// reconstructed Program, the reads-from relation as the checkers' dense
	// row (RF), and the address/thread/line provenance needed to render
	// verdicts in the trace's own terms. RF and ValueFaults belong to the
	// binding. Prog, Addrs, Threads and Source depend only on the trace's
	// shape (its operations less the values its loads observed) and are
	// shared with every other binding of a trace of that shape: read them,
	// never write them.
	TraceBinding = trace.Binding
)

// ParseTrace reads an external execution trace in the Axe-style text format
// (see internal/trace for the grammar):
//
//	<tid>: M[<addr>] := <val>     store request
//	<tid>: M[<addr>] == <val>     load response
//	<tid>: sync                   full memory barrier
func ParseTrace(r io.Reader) (*ExecTrace, error) { return trace.Parse(r) }

// FormatTrace writes a trace in the canonical text form ParseTrace accepts.
func FormatTrace(w io.Writer, t *ExecTrace) error { return trace.Format(w, t) }

// TraceModels lists the model names CheckTrace accepts, strongest first, in
// the lowercase spelling the -mcm flag documents (mcm.Parse accepts any
// case plus the x86/weak/arm aliases).
func TraceModels() []string {
	out := make([]string, len(mcm.Models))
	for i, m := range mcm.Models {
		out[i] = strings.ToLower(m.String())
	}
	return out
}

// CheckTraceContext checks one externally observed execution against the
// named memory consistency model ("sc", "tso", "pso", "rmo"; case-
// insensitive, mcm.Parse aliases accepted). The trace is bound onto a
// reconstructed Program plus reads-from relation, its constraint graph is
// built exactly as for a simulated execution — model program-order edges,
// rf, and fr, with store-to-load forwarding assumed on every model weaker
// than SC — and the graph is checked by the backend selected via
// opts.Checker. Of Options, only Checker, Workers, and Observer apply.
//
// The returned Report reads like a one-iteration campaign: a cyclic graph
// appears in Violations with its cycle witness (operation IDs of the bound
// Program; map them back through the Binding), and loads that observed a
// value no store wrote appear in AssertionFailures — such an observation is
// impossible under every model, the trace-mode analogue of the
// instrumentation's inline assertion failures. Failed() covers both. No
// platform ran and nothing was encoded: Platform is empty, SignatureBytes is 0
// and a violation's Sig is the zero signature — the execution is the trace. The
// Binding is always returned when binding succeeded, so callers can render
// verdicts in the trace's own addresses and line numbers.
//
// Executions of one test differ only in the values their loads observed, so
// consecutive calls share what does not depend on those: a trace with the
// shape of the one checked before it (the same operations in the same order,
// stores writing the same values) is resolved against that trace's validated
// store index and bound Program instead of being validated and bound again,
// and under the same model it reuses the graph builder and the checkers'
// workspace. Which of these a call reuses is decided by its input alone, is
// never visible in what it returns, and is safe under concurrent calls; all
// of it is held where the garbage collector can release it.
func CheckTraceContext(ctx context.Context, tr *ExecTrace, model string, opts Options) (*Report, *TraceBinding, error) {
	m, err := mcm.Parse(model)
	if err != nil {
		return nil, nil, err
	}
	bind, err := tr.Bind()
	if err != nil {
		return nil, nil, fmt.Errorf("mtracecheck: %w", err)
	}
	tb := traceBuilderFor(bind.Prog, m)
	defer traceBuilders.Put(tb)
	builder := tb.builder
	// The binding's dense reads-from row is the execution; a value-faulted
	// load has no source and carries the marker for that. A lone execution has
	// no neighbour to be told from, so its signature stays the zero one.
	item, err := check.NewItem(builder, sig.Signature{}, bind.RF, nil)
	if err != nil {
		return nil, bind, fmt.Errorf("mtracecheck: %w", err)
	}
	tb.items[0] = item
	defer func() { tb.items[0] = check.Item{} }()
	items := tb.items[:]

	// The observer surface is the campaign's — a trace check reads as a
	// one-iteration campaign — on no platform.
	began := time.Now()
	em := emitter{o: opts.Observer}
	em.campaignStart(bind.Prog, "", m, 1, opts.workerCount(), began)
	report := &Report{
		Program:          bind.Prog,
		Iterations:       1,
		UniqueSignatures: 1,
		AssertionFailures: append([]error(nil),
			bind.ValueFaults...),
	}
	if err := checkItems(ctx, opts.Checker, builder, items, opts.workerCount(), em, report); err != nil {
		em.campaignEnd(report, err, began)
		return nil, bind, err
	}
	em.campaignEnd(report, nil, began)
	return report, bind, nil
}

// traceBuilder is the constraint-graph builder of one bound program under one
// model. A builder is a function of nothing else, and bindings of one trace
// shape share their Program (see trace.Binding), so the builder of the last
// check is kept for the next one: executions of one test then share a builder
// and, because the checkers' workspace pool recycles per builder, a workspace.
type traceBuilder struct {
	prog    *Program
	model   mcm.Model
	builder *graph.Builder
	items   [1]check.Item // the call's one item, held while the call holds the builder
}

// traceBuilders holds the builders most recently used — one, unless checks run
// concurrently — where the collector can release them, as the trace package
// holds shapes.
var traceBuilders sync.Pool

func traceBuilderFor(p *Program, m mcm.Model) *traceBuilder {
	if tb, _ := traceBuilders.Get().(*traceBuilder); tb != nil && tb.prog == p && tb.model == m {
		return tb
	}
	return &traceBuilder{prog: p, model: m, builder: graph.NewBuilder(p, m, graph.Options{
		// SC is the one model with single-copy store atomicity; everything
		// weaker owns a store buffer and may forward (paper §8).
		Forwarding: m != mcm.SC,
		WS:         graph.WSStatic,
	})}
}
