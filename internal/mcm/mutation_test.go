package mcm_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
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
			s, err := meta.EncodeValues(loadValues(p, rf))
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

// staticWSAccepted pins, per model, how many forbidden reads-from rows of the
// multi-store subjects reach the checkers and pass a backend under static ws,
// which orders only same-thread stores to a word: cross-thread coherence
// (CoWW, CoWR, CoRW, 2+2W) is the blind spot. Every backend accepts exactly
// these. A change that closes part of the blind spot lowers a count; one that
// raises a count, or rejects an allowed row, is a regression.
var staticWSAccepted = map[mcm.Model]int{mcm.SC: 12586, mcm.TSO: 12215, mcm.PSO: 12339, mcm.RMO: 13307}

// TestStaticWSBaseline judges every reads-from row of the litmus library and
// of 300 generated programs with several stores to a word by the oracle and
// by each backend under static ws. No backend may reject a row the oracle
// allows; the forbidden rows they accept are the static-ws blind spot, pinned
// by staticWSAccepted and logged as a share of the forbidden rows that reach
// the checkers (the rest the instrumentation's assertion chain or
// graph.Builder.CheckRF rejects first).
func TestStaticWSBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("judges every row of 310 programs under four models")
	}
	ps := multiStoreSubjects()
	for _, m := range mcm.Models {
		var rows, forbidden, reached int
		accepted := make([]int, len(check.Backends))
		for _, p := range ps {
			allowed := map[string]bool{}
			for _, e := range allowedUnder(t, p, m) {
				allowed[rowKey(e.RF)] = true
			}
			meta, err := instrument.Analyze(p, 64, nil)
			if err != nil {
				t.Fatal(err)
			}
			b := graph.NewBuilder(p, m, graph.Options{Forwarding: true})
			type row struct {
				item      check.Item
				forbidden bool
			}
			var judged []row // the rows that reach the checkers
			for _, rf := range candidates(p) {
				rows++
				bad := !allowed[rowKey(rf)]
				if bad {
					forbidden++
				}
				s, err := meta.EncodeValues(loadValues(p, rf))
				if err == nil {
					var item check.Item
					if item, err = check.NewItem(b, s, rf, nil); err == nil {
						judged = append(judged, row{item, bad})
						if bad {
							reached++
						}
						continue
					}
				}
				if !bad {
					t.Fatalf("%v: the allowed rf %v of %s never reaches the checkers: %v", m, rf, p.Name, err)
				}
			}
			slices.SortFunc(judged, func(x, y row) int { return x.item.Sig.Compare(y.item.Sig) })
			items := make([]check.Item, len(judged))
			for i := range judged {
				items[i] = judged[i].item
			}
			for bi, be := range check.Backends {
				res, err := be.Check(context.Background(), b, items)
				if err != nil {
					t.Fatal(err)
				}
				rejected := make([]bool, len(items))
				for _, v := range res.Violations {
					rejected[v.Index] = true
				}
				for i, r := range judged {
					switch {
					case rejected[i] && !r.forbidden:
						t.Fatalf("%v: %s rejects an allowed rf of %s (signature %v)", m, be.Name, p.Name, r.item.Sig)
					case !rejected[i] && r.forbidden:
						accepted[bi]++
					}
				}
			}
		}
		for bi, be := range check.Backends {
			if accepted[bi] != staticWSAccepted[m] {
				t.Errorf("%v: %s accepts %d forbidden rows under static ws, pinned %d", m, be.Name, accepted[bi], staticWSAccepted[m])
			}
		}
		t.Logf("%v: %d rows, %d forbidden, %d of them reach the checkers, %d accepted (%.1f %%)",
			m, rows, forbidden, reached, staticWSAccepted[m], 100*float64(staticWSAccepted[m])/float64(max(reached, 1)))
	}
}

// loadValues returns the value each load reads under the reads-from row rf.
func loadValues(p *prog.Program, rf []int32) []uint32 {
	vals := make([]uint32, len(rf))
	for id, src := range rf {
		if src >= 0 {
			vals[id] = p.OpByID(int(src)).Value
		}
	}
	return vals
}

// rowKey is a reads-from row as a map key.
func rowKey(rf []int32) string {
	b := make([]byte, 0, 4*len(rf))
	for _, src := range rf {
		b = binary.LittleEndian.AppendUint32(b, uint32(src))
	}
	return string(b)
}

// multiStoreSubjects are the litmus library and 300 generated programs of 2–3
// threads × 3–4 accesses over two words, each with at least one word that
// several stores write: where static ws is not the whole coherence order.
func multiStoreSubjects() []*prog.Program {
	var ps []*prog.Program
	for _, l := range testgen.LitmusTests() {
		ps = append(ps, l.Prog)
	}
	for seed, generated := int64(0), 0; generated < 300; seed++ {
		p := mustGenerate(testgen.Config{Threads: 2 + int(seed%2), OpsPerThread: 3 + int(seed/2%2), Words: 2,
			FenceProb: 0.3, Seed: seed})
		p.Name = fmt.Sprintf("generated %d", seed)
		for w := 0; w < p.NumWords; w++ {
			if len(p.StoresToWord(w)) >= 2 {
				ps = append(ps, p)
				generated++
				break
			}
		}
	}
	return ps
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
