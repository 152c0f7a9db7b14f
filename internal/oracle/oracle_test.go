package oracle_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mtracecheck/internal/oracle"
	"mtracecheck/internal/prog"
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

var models = []string{"SC", "TSO", "PSO", "RMO"}

// outcomes maps an execution's identity — its reads-from row and coherence
// orders, one byte per op ID — to the execution.
type outcomes map[string]oracle.Execution

func (o outcomes) add(rf []int32, ws [][]int) {
	o[string(appendKey(nil, rf, ws))] = oracle.Execution{RF: rf, WS: ws}
}

// has reports whether o holds e.
func (o outcomes) has(e oracle.Execution) bool {
	_, ok := o[string(appendKey(nil, e.RF, e.WS))]
	return ok
}

func appendKey(b []byte, rf []int32, ws [][]int) []byte {
	for _, v := range rf {
		b = append(b, byte(v+1))
	}
	for _, stores := range ws {
		b = append(b, 0xff)
		for _, id := range stores {
			b = append(b, byte(id))
		}
	}
	return b
}

func allowed(t testing.TB, p *prog.Program, model string) outcomes {
	t.Helper()
	execs, err := oracle.Allowed(p, model)
	if err != nil {
		t.Fatalf("%s under %s: %v", p.Name, model, err)
	}
	out := make(outcomes, len(execs))
	for _, e := range execs {
		out.add(e.RF, e.WS)
	}
	return out
}

// generated returns n programs of 2–3 threads × 1–4 loads and stores over
// 1–3 words, every other block of 24 with fences.
func generated(n int) []*prog.Program {
	ps := make([]*prog.Program, n)
	for i := range ps {
		ps[i] = mustGenerate(testgen.Config{
			Threads: 2 + i%2, OpsPerThread: 1 + i/2%4, Words: 1 + i/8%3,
			FenceProb: 0.25 * float64(i/24%2), Seed: int64(i),
		})
	}
	return ps
}

// walkAll enumerates every execution Walk can produce, depth first over its
// picks: each run replays a prefix of choices among the threads with work
// left, then takes the first; the next prefix advances the deepest choice
// that has an alternative. An operation that conflicts with nothing the other
// threads have left — a fence, or an access to a word none of them stores to
// (or, for a store, accesses) — commutes with all of it, so it is taken as
// soon as it is next, without branching.
func walkAll(p *prog.Program) outcomes {
	out := outcomes{}
	for prefix := []int{}; prefix != nil; {
		var path, ways []int // per step: the index picked among the ready threads, and how many were ready
		pos := make([]int, p.NumThreads())
		private := func(t int) bool {
			op := p.Threads[t].Ops[pos[t]]
			for u, th := range p.Threads {
				for _, o := range th.Ops[pos[u]:] {
					if u != t && o.IsMemory() && o.Word == op.Word && (o.Kind == prog.Store || op.Kind == prog.Store) {
						return false
					}
				}
			}
			return true
		}
		var buf [4]int
		e := oracle.Walk(p, func(int) int {
			ready := buf[:0]
			for t, th := range p.Threads {
				if pos[t] < len(th.Ops) {
					if private(t) {
						ready = append(buf[:0], t)
						break
					}
					ready = append(ready, t)
				}
			}
			i := 0
			if len(path) < len(prefix) {
				i = prefix[len(path)]
			}
			path, ways = append(path, i), append(ways, len(ready))
			pos[ready[i]]++
			return ready[i]
		})
		out.add(e.RF, e.WS)
		prefix = nil
		for k := len(path) - 1; k >= 0 && prefix == nil; k-- {
			if path[k]+1 < ways[k] {
				prefix = append(path[:k:k], path[k]+1)
			}
		}
	}
	return out
}

// tsoAll enumerates every execution of p on the x86-TSO abstract machine
// (Abdulla et al.'s operational model): each thread issues its operations in
// order, a store enters the thread's FIFO store buffer, a load reads its own
// youngest buffered store to the word or else memory, a fence waits for an
// empty buffer, and at any time a buffer's oldest store may drain to memory —
// the coherence order is the drain order. Depth first, with visited states
// hashed.
func tsoAll(p *prog.Program) outcomes {
	out, seen := outcomes{}, map[string]bool{}
	var state []byte
	var visit func(pc []int, buf [][]int, mem []int, rf []int32, ws [][]int)
	visit = func(pc []int, buf [][]int, mem []int, rf []int32, ws [][]int) {
		state = appendKey(state[:0], rf, ws)
		for t := range pc {
			state = append(state, 0xfe, byte(pc[t]))
			for _, id := range buf[t] {
				state = append(state, byte(id))
			}
		}
		for _, st := range mem {
			state = append(state, byte(st+1))
		}
		if seen[string(state)] {
			return
		}
		seen[string(state)] = true
		done := true
		for t, th := range p.Threads {
			if len(buf[t]) > 0 {
				done = false
				st := p.OpByID(buf[t][0])
				buf2, mem2, ws2 := slices.Clone(buf), slices.Clone(mem), slices.Clone(ws)
				buf2[t], mem2[st.Word] = buf[t][1:], st.ID
				ws2[st.Word] = append(slices.Clone(ws[st.Word]), st.ID)
				visit(pc, buf2, mem2, rf, ws2)
			}
			if pc[t] == len(th.Ops) {
				continue
			}
			done = false
			op, pc2 := th.Ops[pc[t]], slices.Clone(pc)
			pc2[t]++
			switch op.Kind {
			case prog.Store:
				buf2 := slices.Clone(buf)
				buf2[t] = append(slices.Clone(buf[t]), op.ID)
				visit(pc2, buf2, mem, rf, ws)
			case prog.Load:
				rf2 := slices.Clone(rf)
				rf2[op.ID] = int32(mem[op.Word])
				for _, id := range buf[t] {
					if p.OpByID(id).Word == op.Word {
						rf2[op.ID] = int32(id)
					}
				}
				visit(pc2, buf, mem, rf2, ws)
			case prog.Fence:
				if len(buf[t]) == 0 {
					visit(pc2, buf, mem, rf, ws)
				}
			}
		}
		if done {
			out.add(rf, ws)
		}
	}
	mem, rf := make([]int, p.NumWords), make([]int32, p.NumOps())
	for i := range mem {
		mem[i] = -1
	}
	for i := range rf {
		rf[i] = -1
	}
	visit(make([]int, p.NumThreads()), make([][]int, p.NumThreads()), mem, rf, make([][]int, p.NumWords))
	return out
}

// sameSets reports the first difference between the axiomatic and an
// operational outcome set.
func sameSets(axiomatic, operational outcomes) error {
	for _, e := range operational {
		if !axiomatic.has(e) {
			return fmt.Errorf("the machine reaches %v %v, which Allowed forbids", e.RF, e.WS)
		}
	}
	for _, e := range axiomatic {
		if !operational.has(e) {
			return fmt.Errorf("Allowed admits %v %v, which the machine never reaches", e.RF, e.WS)
		}
	}
	return nil
}

// agree checks Allowed against the SC walk and the TSO machine.
func agree(t *testing.T, p *prog.Program) {
	t.Helper()
	if err := sameSets(allowed(t, p, "SC"), walkAll(p)); err != nil {
		t.Fatalf("SC, %v\n%s", err, p)
	}
	if err := sameSets(allowed(t, p, "TSO"), tsoAll(p)); err != nil {
		t.Fatalf("TSO, %v\n%s", err, p)
	}
}

// TestOperationalMatchesAxiomatic: the two styles of model definition give
// exactly the same executions, under SC and TSO, on the litmus library and
// on generated programs.
func TestOperationalMatchesAxiomatic(t *testing.T) {
	for _, l := range testgen.LitmusTests() {
		agree(t, l.Prog)
	}
	n := 1000
	if testing.Short() {
		n = 200
	}
	for _, p := range generated(n) {
		agree(t, p)
	}
}

// forbidden is the oracle's label: whether no execution the model allows
// shows the litmus test's interesting outcome.
func forbidden(t *testing.T, l testgen.Litmus, model string) bool {
	execs, err := oracle.Allowed(l.Prog, model)
	if err != nil {
		t.Fatal(err)
	}
	return !slices.ContainsFunc(execs, func(e oracle.Execution) bool { return l.Interesting.MatchesValues(e.Values) })
}

// TestLitmusExpectations: the computed labels are the published catalog's —
// the models under which each test's interesting outcome is forbidden with
// multi-copy atomic stores.
func TestLitmusExpectations(t *testing.T) {
	catalog := map[string][]string{
		"SB": {"SC"}, "SB+F": models,
		"MP": {"SC", "TSO"}, "MP+F": models,
		"LB": {"SC", "TSO", "PSO"}, "LB+F": models,
		"CoRR": models,
		"WRC":  {"SC", "TSO", "PSO"},
		"IRIW": {"SC", "TSO", "PSO"}, "IRIW+F": models,
	}
	tests := testgen.LitmusTests()
	if len(tests) != len(catalog) {
		t.Fatalf("%d litmus tests, %d catalog entries", len(tests), len(catalog))
	}
	for _, l := range tests {
		for _, m := range models {
			if got, want := forbidden(t, l, m), slices.Contains(catalog[l.Name], m); got != want {
				t.Errorf("%s under %s: forbidden %v, the catalog says %v", l.Name, m, got, want)
			}
		}
	}
}

// TestAllowedMonotone: a weaker model allows everything a stronger one does,
// SC ⊆ TSO ⊆ PSO ⊆ RMO.
func TestAllowedMonotone(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 200
	}
	for _, p := range generated(n) {
		stronger := allowed(t, p, models[0])
		for i, m := range models[1:] {
			weaker := allowed(t, p, m)
			for _, e := range stronger {
				if !weaker.has(e) {
					t.Fatalf("%s allows %v %v, which the weaker %s forbids\n%s", models[i], e.RF, e.WS, m, p)
				}
			}
			stronger = weaker
		}
	}
}

// TestWalkIsTheReferenceInterpreter: Walk driven by a seeded random pick is
// reproducible, and every execution it returns is SC.
func TestWalkIsTheReferenceInterpreter(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 3, OpsPerThread: 4, Words: 2, FenceProb: 0.2, Seed: 9})
	sc := allowed(t, p, "SC")
	a, b := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		e, again := oracle.Walk(p, a.Intn), oracle.Walk(p, b.Intn)
		if !slices.Equal(e.RF, again.RF) || fmt.Sprint(e.WS) != fmt.Sprint(again.WS) {
			t.Fatal("the same picks gave two executions")
		}
		if !sc.has(e) {
			t.Fatalf("Walk produced %v %v, which SC forbids", e.RF, e.WS)
		}
		for _, op := range p.Ops() {
			if op.Kind != prog.Load {
				continue
			}
			want := prog.InitialValue
			if src := e.RF[op.ID]; src >= 0 {
				want = p.OpByID(int(src)).Value
			}
			if e.Values[op.ID] != want {
				t.Fatalf("load %d reads store %d but returns %d", op.ID, e.RF[op.ID], e.Values[op.ID])
			}
		}
	}
}

func TestAllowedRefuses(t *testing.T) {
	sb, _ := testgen.LitmusByName("SB")
	if _, err := oracle.Allowed(sb.Prog, "ARM"); err == nil {
		t.Error("an unknown model name was accepted")
	}
	for _, cfg := range []testgen.Config{
		{Threads: 5, OpsPerThread: 1, Words: 1},
		{Threads: 2, OpsPerThread: 5, Words: 2},
	} {
		if _, err := oracle.Allowed(mustGenerate(cfg), "SC"); err == nil {
			t.Errorf("a %d×%d program was enumerated", cfg.Threads, cfg.OpsPerThread)
		}
	}
}

// FuzzOracle: on fuzz-chosen programs of up to 3 threads × 4 operations the
// axiomatic and operational enumerators agree under SC and TSO. Each byte
// after the first is an operation (kind and word); a thread ends after four
// or at a byte above 0xf0.
func FuzzOracle(f *testing.F) {
	f.Add([]byte{2, 3, 1, 0xf1, 4, 0})
	f.Add([]byte{3, 1, 2, 4, 0xf1, 5, 6, 0xf1, 0, 7, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		b := prog.NewBuilder("fuzz", 3, prog.DefaultLayout())
		threads, ops := 1, 0
		b.Thread()
		for _, c := range data[1:] {
			if c > 0xf0 || ops == 4 {
				if threads == 1+int(data[0])%3 {
					break
				}
				b.Thread()
				threads, ops = threads+1, 0
				if c > 0xf0 {
					continue
				}
			}
			switch word := int(c/3) % 3; c % 3 {
			case 0:
				b.Load(word)
			case 1:
				b.Store(word)
			default:
				b.Fence()
			}
			ops++
		}
		agree(t, b.MustBuild())
	})
}
