package mtracecheck

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mtracecheck/internal/check"
	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/testgen"
	"mtracecheck/internal/trace"
)

// loadGoldenTrace parses one of internal/trace's golden files.
func loadGoldenTrace(t *testing.T, name string) *ExecTrace {
	t.Helper()
	f, err := os.Open(filepath.Join("internal", "trace", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := ParseTrace(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return tr
}

// TestCheckTraceGoldenVerdicts pins the verdict of every golden trace under
// every model and every checker backend: the litmus outcomes are classical
// (store buffering, message passing, load buffering, fenced store
// buffering), so a verdict flip here means the trace front door, the graph
// construction, or a backend regressed.
func TestCheckTraceGoldenVerdicts(t *testing.T) {
	cases := []struct {
		file string
		fail map[string]bool // model → expect a finding
	}{
		// SB, both loads see the stores: allowed everywhere.
		{"sc_valid.trace", map[string]bool{"sc": false, "tso": false, "pso": false, "rmo": false}},
		// SB, both loads 0: the classic TSO outcome SC forbids.
		{"sc_violation.trace", map[string]bool{"sc": true, "tso": false, "pso": false, "rmo": false}},
		{"tso_valid.trace", map[string]bool{"sc": true, "tso": false, "pso": false, "rmo": false}},
		// MP, flag seen but data stale: PSO's relaxed st→st order allows it.
		{"tso_violation.trace", map[string]bool{"sc": true, "tso": true, "pso": false, "rmo": false}},
		{"pso_valid.trace", map[string]bool{"sc": true, "tso": true, "pso": false, "rmo": false}},
		// LB, both loads see the other thread's later store: RMO only.
		{"pso_violation.trace", map[string]bool{"sc": true, "tso": true, "pso": true, "rmo": false}},
		{"rmo_valid.trace", map[string]bool{"sc": true, "tso": true, "pso": true, "rmo": false}},
		// Fenced SB, both loads 0: forbidden under every model.
		{"rmo_violation.trace", map[string]bool{"sc": true, "tso": true, "pso": true, "rmo": true}},
	}
	for _, c := range cases {
		tr := loadGoldenTrace(t, c.file)
		for _, model := range TraceModels() {
			want, ok := c.fail[model]
			if !ok {
				t.Fatalf("%s: golden table lacks model %q", c.file, model)
			}
			for _, checker := range CheckerNames() {
				ck, err := ParseChecker(checker)
				if err != nil {
					t.Fatal(err)
				}
				report, bind, err := CheckTrace(tr, model, Options{Checker: ck})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", c.file, model, checker, err)
				}
				if got := report.Failed(); got != want {
					t.Errorf("%s under %s (%s): failed=%v, want %v (violations %v)",
						c.file, model, checker, got, want, report.Violations)
				}
				if len(bind.ValueFaults) != 0 {
					t.Errorf("%s: unexpected value faults %v", c.file, bind.ValueFaults)
				}
				if want && len(report.Violations) > 0 && len(report.Violations[0].Cycle) < 2 {
					t.Errorf("%s under %s (%s): degenerate cycle %v",
						c.file, model, checker, report.Violations[0].Cycle)
				}
			}
		}
	}
}

// TestCheckTraceValueFault: a load observing a value no store wrote is
// impossible under every model and must surface as an assertion failure —
// Failed() even when the constraint graph itself is acyclic.
func TestCheckTraceValueFault(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader("0: M[0x10] := 1\n1: M[0x10] == 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	report, bind, err := CheckTrace(tr, "sc", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.AssertionFailures) != 1 || len(bind.ValueFaults) != 1 {
		t.Fatalf("value fault not surfaced: report %v, binding %v",
			report.AssertionFailures, bind.ValueFaults)
	}
	if !report.Failed() {
		t.Error("report with a value fault did not Fail()")
	}
	if len(report.Violations) != 0 {
		t.Errorf("acyclic trace reported graph violations %v", report.Violations)
	}
}

// TestCheckTraceRejects: unknown models and unbindable traces are errors,
// not verdicts.
func TestCheckTraceRejects(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader("0: M[0x10] := 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CheckTrace(tr, "ptx", Options{}); err == nil {
		t.Error("unknown model accepted")
	}
	// Duplicate store values to one address defeat reads-from resolution and
	// must be rejected structurally.
	dup := &ExecTrace{Ops: []TraceOp{
		{Thread: 0, Kind: trace.Store, Addr: 0x10, Value: 1},
		{Thread: 1, Kind: trace.Store, Addr: 0x10, Value: 1},
	}}
	if _, _, err := CheckTrace(dup, "sc", Options{}); err == nil {
		t.Error("ambiguous store values accepted")
	}
}

// TestTraceModels pins the front door's model list to the mcm registry.
func TestTraceModels(t *testing.T) {
	got := TraceModels()
	want := []string{"sc", "tso", "pso", "rmo"}
	if len(got) != len(want) {
		t.Fatalf("TraceModels() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TraceModels() = %v, want %v", got, want)
		}
	}
}

// TestCheckTraceObserver: trace checking reuses the campaign observer
// surface — a metrics observer must see the one-iteration campaign.
func TestCheckTraceObserver(t *testing.T) {
	tr := loadGoldenTrace(t, "sc_valid.trace")
	m := NewMetrics()
	if _, _, err := CheckTrace(tr, "sc", Options{Observer: m}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mtracecheck_campaigns_total 1", "mtracecheck_graphs_checked_total 1"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics snapshot missing %q:\n%s", want, sb.String())
		}
	}
}

// TestConstraintsDifferentialAgainstFastBackends is the oracle's acceptance
// gate: on a full campaign's decoded signature set, the constraints solver
// must agree verdict-for-verdict with every fast backend under the
// differential harness, on both the strong and the weak platform.
func TestConstraintsDifferentialAgainstFastBackends(t *testing.T) {
	cons, err := check.ForName("constraints")
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func() Platform{PlatformX86, PlatformARM} {
		plat := mk()
		cfg := TestConfig{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 11}
		p, err := testgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := withDefaults(Options{Platform: plat, Iterations: 300, Seed: 7})
		uniques, err := CollectSignatures(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
		if err != nil {
			t.Fatal(err)
		}
		builder := graph.NewBuilder(p, plat.Model, graph.Options{
			Forwarding: plat.Atomicity.AllowsForwarding(),
			WS:         graph.WSStatic,
		})
		items, _, err := decodeItems(context.Background(), meta, builder, uniques, nil, runtime.GOMAXPROCS(0), true, emitter{})
		if err != nil {
			t.Fatal(err)
		}
		if len(items) < 2 {
			t.Fatalf("%s: only %d unique items — campaign too deterministic to exercise the oracle", plat.Name, len(items))
		}
		for _, name := range []string{"collective", "conventional", "incremental", "vectorclock"} {
			fast, err := check.ForName(name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := check.Differential(context.Background(), cons, fast, builder, items)
			if err != nil {
				t.Fatalf("%s vs %s: %v", plat.Name, name, err)
			}
			if d != nil {
				t.Errorf("%s: constraints disagrees with %s: %+v", plat.Name, name, d)
			}
		}
	}
}
