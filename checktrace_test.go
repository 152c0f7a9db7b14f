package mtracecheck

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"mtracecheck/internal/check"
	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/oracle"
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
				report, bind, err := CheckTraceContext(context.Background(), tr, model, Options{Checker: checker})
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
	report, bind, err := CheckTraceContext(context.Background(), tr, "sc", Options{})
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

// TestCheckTraceOwnLaterStore: a load reading its own thread's later store
// is forbidden under every model — forwarding relaxes the rf edge of a read
// from an earlier own store only — so every backend must report a cycle, and
// no execution the oracle allows may have the load read that store.
func TestCheckTraceOwnLaterStore(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader("0: M[0x10] == 1\n0: M[0x10] := 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range TraceModels() {
		for _, checker := range CheckerNames() {
			report, _, err := CheckTraceContext(context.Background(), tr, model, Options{Checker: checker})
			if err != nil {
				t.Fatalf("%s (%s): %v", model, checker, err)
			}
			if len(report.Violations) == 0 {
				t.Errorf("%s (%s): own later store read passed", model, checker)
			}
		}
		bind, err := tr.Bind()
		if err != nil {
			t.Fatal(err)
		}
		allowed, err := oracle.Allowed(bind.Prog, strings.ToUpper(model))
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range allowed {
			if ex.RF[0] == bind.RF[0] {
				t.Errorf("%s: the oracle allows the load to read store %d", model, bind.RF[0])
			}
		}
	}
}

// TestCheckTraceRejects: unknown models and unbindable traces are errors,
// not verdicts.
func TestCheckTraceRejects(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader("0: M[0x10] := 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CheckTraceContext(context.Background(), tr, "ptx", Options{}); err == nil {
		t.Error("unknown model accepted")
	}
	// Duplicate store values to one address defeat reads-from resolution and
	// must be rejected structurally.
	dup := &ExecTrace{Ops: []TraceOp{
		{Thread: 0, Kind: trace.Store, Addr: 0x10, Value: 1},
		{Thread: 1, Kind: trace.Store, Addr: 0x10, Value: 1},
	}}
	if _, _, err := CheckTraceContext(context.Background(), dup, "sc", Options{}); err == nil {
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
	if _, _, err := CheckTraceContext(context.Background(), tr, "sc", Options{Observer: m}); err != nil {
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
		items, _, err := decodeItems(context.Background(), meta, uniques, true, emitter{})
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

// sequentialTrace renders a single-thread trace of n random loads and stores
// over the given number of addresses — or, with addrs 0, each to an address
// of its own — in which every load observes its thread's latest store (or the
// initial value): legal under every model.
func sequentialTrace(t *testing.T, n, addrs int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	last := make([]uint64, max(addrs, n))
	tr := &ExecTrace{Ops: make([]TraceOp, n)}
	for i := range tr.Ops {
		a := i
		if addrs > 0 {
			a = rng.Intn(addrs)
		}
		op := TraceOp{Kind: trace.Load, Addr: 0x1000 + 4*uint64(a), Value: last[a]}
		if rng.Intn(2) == 0 {
			last[a] = uint64(i + 1)
			op.Kind, op.Value = trace.Store, last[a]
		}
		tr.Ops[i] = op
	}
	var buf bytes.Buffer
	if err := FormatTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckTraceScaling holds the trace front door to its cost model (DESIGN
// §5, §16): parse, bind, the static graph and the dynamic edges are linear in
// the trace under SC and TSO, and under PSO and RMO as long as addresses
// recur; only PSO/RMO traces whose addresses never recur pay the program-order
// reduction's quadratic worst case. A long single-thread trace is the input
// that separates these: one thread owns every program-order pair.
//
// Each size's time is the fastest of five runs, the two sizes taking turns so
// that a busy phase of the host hits both, and a bound has three attempts to
// hold: other tests share the CPUs, and noise only ever adds time.
func TestCheckTraceScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	check := func(text []byte, model string) time.Duration {
		t.Helper()
		start := time.Now()
		tr, err := ParseTrace(bytes.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		report, _, err := CheckTraceContext(context.Background(), tr, model, Options{Workers: 1})
		if err != nil || report.Failed() {
			t.Fatalf("%s: err %v, report %+v", model, err, report)
		}
		return time.Since(start)
	}
	cases := []struct {
		name      string
		model     string
		ops       int           // the smaller trace; the larger has twice as many
		addrs     int           // distinct addresses drawn from; 0 = one per op
		limit     time.Duration // on the smaller trace
		maxGrowth float64       // larger ÷ smaller
	}{
		{"tso", "tso", 20000, 64, time.Second, 3},
		{"rmo", "rmo", 20000, 64, time.Second, 5},
		// Every address distinct: each op's scan for a same-word successor
		// runs to the end of the thread. Quadratic growth is 4.
		{"rmo-no-recurrence", "rmo", 5000, 0, time.Second, 6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			smallText, largeText := sequentialTrace(t, c.ops, c.addrs), sequentialTrace(t, 2*c.ops, c.addrs)
			for attempt := 1; ; attempt++ {
				small, large := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
				for round := 0; round < 5; round++ {
					small = min(small, check(smallText, c.model))
					large = min(large, check(largeText, c.model))
				}
				growth := float64(large) / float64(small)
				t.Logf("%d ops: %v, %d ops: %v (x%.2f, exponent %.2f)",
					c.ops, small, 2*c.ops, large, growth, math.Log2(growth))
				if small <= c.limit && growth <= c.maxGrowth {
					return
				}
				if attempt == 3 {
					t.Fatalf("%d ops took %v (limit %v) and twice the ops x%.2f (limit x%.1f)",
						c.ops, small, c.limit, growth, c.maxGrowth)
				}
			}
		})
	}
}

// pinPools makes what the pools behind CheckTrace hand back repeatable for the
// rest of the test: one P, so one slot per pool, and no collection to age it.
// Under the race detector sync.Pool drops a quarter of all Puts at random, so
// results must still be equal there but reuse cannot be demanded, and pinPools
// reports false.
func pinPools(t *testing.T) (reuseRepeats bool) {
	t.Helper()
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return false
		}
	}
	return true
}

// traceChecked is everything one CheckTrace call returned, plus the builder it
// left behind for the next call.
type traceChecked struct {
	report  *Report
	bind    *TraceBinding
	err     error
	builder *graph.Builder
}

func checkTraceKept(tr *ExecTrace, model string, o Options) traceChecked {
	report, bind, err := CheckTraceContext(context.Background(), tr, model, o)
	c := traceChecked{report: report, bind: bind, err: err}
	if tb, _ := traceBuilders.Get().(*traceBuilder); tb != nil {
		c.builder = tb.builder
		traceBuilders.Put(tb)
	}
	return c
}

// checkTraceCold is checkTraceKept with nothing to reuse: the check of a
// throwaway trace of another shape first replaces whatever shape, builder and
// workspace the calls before left behind.
func checkTraceCold(t *testing.T, tr *ExecTrace, model string, o Options) traceChecked {
	t.Helper()
	other := &ExecTrace{Ops: []TraceOp{{Thread: 63, Kind: trace.Fence}, {Thread: 62, Kind: trace.Fence}}}
	if _, _, err := CheckTraceContext(context.Background(), other, model, o); err != nil {
		t.Fatal(err)
	}
	return checkTraceKept(tr, model, o)
}

// sameTraceOutcome reports whether two calls returned deep-equal reports, bindings
// and errors (which builder served them is not part of the outcome).
func sameTraceOutcome(a, b traceChecked) bool {
	a.builder, b.builder = nil, nil
	return reflect.DeepEqual(a, b)
}

// reuseTraces are the inputs of the reuse tests: every golden, plus a trace
// with a value fault, one with fences only on one side, and the empty trace.
func reuseTraces(t *testing.T) map[string]*ExecTrace {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("internal", "trace", "testdata", "*.trace"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden traces found: %v", err)
	}
	traces := map[string]*ExecTrace{}
	for _, path := range files {
		traces[filepath.Base(path)] = loadGoldenTrace(t, filepath.Base(path))
	}
	for name, text := range map[string]string{
		"value fault": "0: M[0x10] := 1\n0: M[0x14] == 0\n1: M[0x14] := 2\n1: M[0x10] == 7\n",
		"fenced":      "0: M[0x10] := 1\n0: sync\n0: M[0x14] == 0\n1: M[0x14] := 2\n1: M[0x10] == 0\n",
		"empty":       "# nothing happened\n",
	} {
		tr, err := ParseTrace(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		traces[name] = tr
	}
	return traces
}

// TestCheckTraceReuseEquivalence: what a check reuses from the one before — the
// trace's shape, the graph builder, the checking workspace — never shows in
// what it returns. For every reuse trace, model and backend, a check that
// follows one of the same trace (everything reused), one under another model
// (shape reused, builder not) and one of another trace (nothing reused)
// returns what a cold check returns.
func TestCheckTraceReuseEquivalence(t *testing.T) {
	reuseRepeats := pinPools(t)
	traces := reuseTraces(t)
	others := map[string]string{"sc": "tso", "tso": "sc", "pso": "rmo", "rmo": "pso"}
	for name, a := range traces {
		b := traces["tso_violation.trace"]
		if a == b {
			b = traces["fenced"]
		}
		for _, model := range TraceModels() {
			for _, checker := range CheckerNames() {
				o := Options{Checker: checker}
				id := fmt.Sprintf("%s/%s/%s", name, model, checker)
				coldA, coldB := checkTraceCold(t, a, model, o), checkTraceCold(t, b, model, o)
				if coldA.err != nil || coldB.err != nil {
					t.Fatalf("%s: %v, %v", id, coldA.err, coldB.err)
				}

				// A A: the second check reuses all of the first.
				first, second := checkTraceCold(t, a, model, o), checkTraceKept(a, model, o)
				if !sameTraceOutcome(second, coldA) || !sameTraceOutcome(first, coldA) {
					t.Errorf("%s: the same trace twice: %+v then %+v, cold %+v", id, first.report, second.report, coldA.report)
				}
				if reuseRepeats && (second.bind.Prog != first.bind.Prog || second.builder != first.builder) {
					t.Errorf("%s: the same trace twice: nothing was reused", id)
				}

				// sc -> tso -> sc: the builder belongs to one model.
				under, back := checkTraceKept(a, others[model], o), checkTraceKept(a, model, o)
				if cold := checkTraceCold(t, a, others[model], o); !sameTraceOutcome(under, cold) {
					t.Errorf("%s: then under %s: %+v, cold %+v", id, others[model], under.report, cold.report)
				}
				if !sameTraceOutcome(back, coldA) {
					t.Errorf("%s: and back: %+v, cold %+v", id, back.report, coldA.report)
				}
				if reuseRepeats && (under.bind.Prog != first.bind.Prog || under.builder == first.builder || back.builder == under.builder) {
					t.Errorf("%s: a change of model must keep the shape and replace the builder", id)
				}

				// A B A B: each check replaces what the one before left.
				for i, got := range []traceChecked{
					checkTraceKept(a, model, o), checkTraceKept(b, model, o), checkTraceKept(a, model, o), checkTraceKept(b, model, o),
				} {
					if want := []traceChecked{coldA, coldB}[i%2]; !sameTraceOutcome(got, want) {
						t.Errorf("%s: alternating with another trace, call %d: %+v, cold %+v", id, i, got.report, want.report)
					}
				}
			}
		}
	}
}

// TestCheckTraceAfterCallerMutation: a checked trace's Ops are the caller's to
// change; the next trace's verdict must not depend on it.
func TestCheckTraceAfterCallerMutation(t *testing.T) {
	pinPools(t)
	text := "0: M[0x10] := 1\n0: M[0x14] == 0\n1: M[0x14] := 2\n1: M[0x10] == 0\n" // store buffering
	parse := func() *ExecTrace {
		tr, err := ParseTrace(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	scribbled := parse()
	if c := checkTraceKept(scribbled, "sc", Options{}); c.err != nil || !c.report.Failed() {
		t.Fatalf("store buffering under sc: %v, %+v", c.err, c.report)
	}
	// Thread 1 now loads what thread 0 stored: no longer a violation, and no
	// longer the trace the kept shape was built from.
	scribbled.Ops[3].Value = 1

	fresh := parse()
	if got, cold := checkTraceKept(fresh, "sc", Options{}), checkTraceCold(t, fresh, "sc", Options{}); !sameTraceOutcome(got, cold) || !got.report.Failed() {
		t.Errorf("the unchanged text after the scribble: %+v, cold %+v", got.report, cold.report)
	}
	if got, cold := checkTraceKept(scribbled, "sc", Options{}), checkTraceCold(t, scribbled, "sc", Options{}); !sameTraceOutcome(got, cold) || got.report.Failed() {
		t.Errorf("the scribbled trace: %+v, cold %+v", got.report, cold.report)
	}
}

// TestCheckTraceConcurrent: concurrent checks share the kept shape and builder
// only by taking them in turn; every report equals the serial one. (The race
// pass of `make verify` is what makes this test bite.)
func TestCheckTraceConcurrent(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("internal", "trace", "testdata", "tso_violation.trace"))
	if err != nil {
		t.Fatal(err)
	}
	texts := [][]byte{renderedTrace(t), golden}
	check := func(text []byte) (*Report, error) {
		tr, err := ParseTrace(bytes.NewReader(text))
		if err != nil {
			return nil, err
		}
		report, _, err := CheckTraceContext(context.Background(), tr, "tso", Options{Workers: 1})
		return report, err
	}
	var want [2]*Report
	for i, text := range texts {
		if want[i], err = check(text); err != nil {
			t.Fatal(err)
		}
	}
	if want[0].Failed() || !want[1].Failed() {
		t.Fatalf("serial verdicts: rendered failed=%v, golden failed=%v", want[0].Failed(), want[1].Failed())
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				// Runs of one shape, of different lengths per goroutine, so that
				// hits, misses and both at once all happen.
				shape := i / (g + 1) % 2
				if got, err := check(texts[shape]); err != nil || !reflect.DeepEqual(got, want[shape]) {
					t.Errorf("goroutine %d, call %d: %+v, %v; serial %+v", g, i, got, err, want[shape])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCheckTraceReleasesMemory: what a check keeps for the next one is held
// where the collector can take it; one long trace must not stay resident.
func TestCheckTraceReleasesMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("checks a 262,144-op trace")
	}
	text := sequentialTrace(t, 1<<18, 64)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // a pool's content survives one collection
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	tr, err := ParseTrace(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	report, bind, err := CheckTraceContext(context.Background(), tr, "tso", Options{Workers: 1})
	if err != nil || report.Failed() || bind.Prog.NumOps() != 1<<18 {
		t.Fatalf("err %v, report %+v", err, report)
	}
	tr, report, bind = nil, nil, nil
	if after := heap(); after > before+1<<20 {
		t.Errorf("heap holds %d KiB more than before the check", (after-before)>>10)
	}
}
