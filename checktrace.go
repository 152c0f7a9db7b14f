package mtracecheck

import (
	"context"
	"fmt"
	"io"
	"strings"
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
	builder := graph.NewBuilder(bind.Prog, m, graph.Options{
		// SC is the one model with single-copy store atomicity; everything
		// weaker owns a store buffer and may forward (paper §8).
		Forwarding: m != mcm.SC,
		WS:         graph.WSStatic,
	})
	// The dense reads-from row the checkers take as it is; a value-faulted
	// load has no source and keeps the marker for that.
	rf := make([]int32, bind.Prog.NumOps())
	for i := range rf {
		rf[i] = rfUnresolved
	}
	for load, store := range bind.RF {
		rf[load] = int32(store)
	}
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
