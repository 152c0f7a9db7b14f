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
	"mtracecheck/internal/prog"
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
	// reconstructed Program, reads-from relation, and the address/thread/
	// line provenance needed to render verdicts in the trace's own terms.
	// RF, Row and ValueFaults belong to the binding. Prog, Addrs, Threads
	// and Source depend only on the trace's shape (its operations less the
	// values its loads observed) and are shared with every other binding of
	// a trace of that shape: read them, never write them.
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
// instrumentation's inline assertion failures. Failed() covers both. The
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
	backend, err := check.ForName(opts.Checker.String())
	if err != nil {
		return nil, nil, fmt.Errorf("mtracecheck: %w", err)
	}
	bind, err := tr.Bind()
	if err != nil {
		return nil, nil, fmt.Errorf("mtracecheck: %w", err)
	}
	tb := traceBuilderFor(bind.Prog, m)
	defer traceBuilders.Put(tb)
	builder := tb.builder
	// The checkers take the binding's dense reads-from row as it is; a
	// value-faulted load has no source and carries the marker for that.
	rf := bind.Row
	if err := builder.CheckRF(rf); err != nil {
		return nil, bind, fmt.Errorf("mtracecheck: %w", err)
	}
	items := []check.Item{{Sig: traceSignature(bind.Prog, rf), RF: rf}}

	// The observer surface is the campaign's: a trace check is a
	// one-iteration campaign on a pseudo-platform named for the front door.
	began := time.Now()
	em := emitter{o: opts.Observer}
	pseudo := opts
	pseudo.Platform = Platform{Name: "external-trace", Model: m}
	em.campaignStart(bind.Prog, pseudo, 1, opts.workerCount(), began)
	report := &Report{
		Program:          bind.Prog,
		Platform:         pseudo.Platform.Name,
		Iterations:       1,
		UniqueSignatures: 1,
		SignatureBytes:   items[0].Sig.Len() * 8,
		AssertionFailures: append([]error(nil),
			bind.ValueFaults...),
	}
	res, err := check.ShardedBackend(ctx, backend, builder, items,
		opts.workerCount(), em.checkShardFunc(backend.Name()))
	if err != nil {
		em.campaignEnd(report, err, began)
		return nil, bind, err
	}
	report.CheckStats = res
	report.Violations = res.Violations
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

// CheckTrace is CheckTraceContext with context.Background().
func CheckTrace(tr *ExecTrace, model string, opts Options) (*Report, *TraceBinding, error) {
	return CheckTraceContext(context.Background(), tr, model, opts)
}

// rfUnresolved is the dense reads-from entry of a load whose response value
// no store wrote: it contributes no edge.
const rfUnresolved = graph.NoObservation

// traceSignature synthesizes a signature for the trace's one execution so
// it can flow through Item/Violation reporting like any decoded signature:
// each load contributes its resolved reads-from source (+2, so the initial
// value and "no entry" stay distinct from store ID 0) as a 32-bit field,
// two fields per word, in load-ID order. Distinct observed interleavings of
// the same trace program therefore get distinct signatures, mirroring the
// instrumentation's 1:1 encoding.
func traceSignature(p *Program, rf []int32) sig.Signature {
	words := make([]uint64, 0, (len(rf)+1)/2) // room for every op being a load
	fields := 0
	for _, th := range p.Threads {
		for _, op := range th.Ops {
			if op.Kind != prog.Load {
				continue
			}
			if fields%2 == 0 {
				words = append(words, 0)
			}
			// An unresolved load (value fault) contributes field 0.
			words[fields/2] |= uint64(uint32(rf[op.ID]-rfUnresolved)) << (32 * uint(fields%2))
			fields++
		}
	}
	if fields == 0 {
		return sig.Zero(1)
	}
	return sig.New(words)
}
