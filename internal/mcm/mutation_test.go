package mcm_test

import (
	"context"
	"fmt"
	"testing"

	"mtracecheck/internal/check"
	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/oracle"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sim"
	"mtracecheck/internal/testgen"
)

// mustGenerate is testgen.Generate, panicking on error.
func mustGenerate(cfg testgen.Config) *prog.Program {
	p, err := testgen.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// The simulator and the checkers both read Model.Ordered, so a wrong entry
// in its table misleads both at once: the simulator produces what the
// checkers then accept. These tests hold both halves to internal/oracle,
// which computes what each model allows without reading mcm.

var kinds = []prog.OpKind{prog.Load, prog.Store}

// soundness runs every litmus test on the default x86 platform under model
// m and returns the first execution — load values and coherence order — the
// oracle does not allow, or "".
func soundness(t *testing.T, m mcm.Model) string {
	for _, l := range testgen.LitmusTests() {
		allowed := map[string]bool{}
		for _, e := range allowedUnder(t, l.Prog, m) {
			allowed[fmt.Sprint(e.Values, e.WS)] = true
		}
		plat := sim.PlatformX86()
		plat.Model = m
		r, err := sim.NewRunner(plat, l.Prog, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			ex, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !allowed[fmt.Sprint(ex.LoadValues, ex.WS)] {
				return fmt.Sprintf("the simulator produces %v, ws %v of %s", ex.LoadValues, ex.WS, l.Name)
			}
		}
	}
	return ""
}

// exactness feeds every reads-from candidate of every subject through the
// instrumentation and check.NewItem to each backend under model m, and
// returns the first candidate the pipeline rejects though the oracle allows
// it, or accepts though the oracle forbids it, or "". A candidate outside a
// load's static candidate set cannot be encoded: the assertion chain rejects
// it inline. With at most one store per word the static write serialization
// is exact, so every backend must reject a candidate if and only if the
// oracle forbids it.
func exactness(t *testing.T, m mcm.Model) string {
	for _, p := range subjects() {
		allowed := map[string]bool{}
		for _, e := range allowedUnder(t, p, m) {
			allowed[fmt.Sprint(e.RF)] = true
		}
		meta, err := instrument.Analyze(p, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := graph.NewBuilder(p, m, graph.Options{Forwarding: true})
		for _, rf := range candidates(p) {
			forbidden := !allowed[fmt.Sprint(rf)]
			vals := make([]uint32, len(rf))
			for id, src := range rf {
				if src >= 0 {
					vals[id] = p.OpByID(int(src)).Value
				}
			}
			s, err := meta.EncodeValues(vals)
			if err != nil {
				if !forbidden {
					return fmt.Sprintf("the instrumentation cannot encode the allowed rf %v of %s: %v", rf, p.Name, err)
				}
				continue
			}
			item, err := check.NewItem(b, s, rf, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, be := range check.Backends {
				res, err := be.Check(context.Background(), b, []check.Item{item})
				if err != nil {
					t.Fatal(err)
				}
				if rejected := len(res.Violations) > 0; rejected != forbidden {
					return fmt.Sprintf("%s rejects=%v the rf %v of %s; the oracle forbids=%v",
						be.Name, rejected, rf, p.Name, forbidden)
				}
			}
		}
	}
	return ""
}

func allowedUnder(t *testing.T, p *prog.Program, m mcm.Model) []oracle.Execution {
	execs, err := oracle.Allowed(p, m.String())
	if err != nil {
		t.Fatal(err)
	}
	return execs
}

// subjects are the litmus library and generated programs of 2 threads × up
// to 4 loads, stores and fences with at most one store per word.
func subjects() []*prog.Program {
	var ps []*prog.Program
	for _, l := range testgen.LitmusTests() {
		ps = append(ps, l.Prog)
	}
	for seed := int64(0); len(ps) < 150; seed++ {
		p := mustGenerate(testgen.Config{Threads: 2, OpsPerThread: 2 + int(seed%3), Words: 2 + int(seed%2),
			FenceProb: 0.4, Seed: seed})
		p.Name = fmt.Sprintf("generated %d", seed)
		single := true
		for w := 0; w < p.NumWords; w++ {
			single = single && len(p.StoresToWord(w)) <= 1
		}
		if single {
			ps = append(ps, p)
		}
	}
	return ps
}

// candidates lists every reads-from row of p: each load reads the initial
// value or any store to its word.
func candidates(p *prog.Program) [][]int32 {
	rows := [][]int32{make([]int32, p.NumOps())}
	for i := range rows[0] {
		rows[0][i] = -1
	}
	for _, ld := range p.Ops() {
		if ld.Kind != prog.Load {
			continue
		}
		var next [][]int32
		for _, row := range rows {
			next = append(next, row)
			for _, st := range p.StoresToWord(ld.Word) {
				alt := append([]int32(nil), row...)
				alt[ld.ID] = int32(st.ID)
				next = append(next, alt)
			}
		}
		rows = next
	}
	return rows
}

// TestOrderedFlipsCaught flips each of the 16 load/store entries of the
// Ordered table in turn: each must make the simulator produce an execution
// the oracle forbids, or a checker disagree with the oracle. The engine
// never reads load→store, so only the checker arm can catch those flips.
func TestOrderedFlipsCaught(t *testing.T) {
	for _, m := range mcm.Models {
		if d := soundness(t, m) + exactness(t, m); d != "" {
			t.Fatalf("%v with the table unflipped: %s", m, d)
		}
	}
	for _, m := range mcm.Models {
		for _, first := range kinds {
			for _, second := range kinds {
				restore := mcm.FlipOrdered(m, first, second)
				sound, exact := soundness(t, m), exactness(t, m)
				restore()
				if sound == "" && exact == "" {
					t.Errorf("flipping %v %v→%v goes unnoticed", m, first, second)
				}
				t.Logf("%v %v→%v: soundness %q; exactness %q", m, first, second, sound, exact)
			}
		}
	}
}
