package sim

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mtracecheck/internal/eventq"

	"mtracecheck/internal/mcm"
	"mtracecheck/internal/mem"
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

// platFor returns a platform with the given model, based on x86 timing.
// seedTable materializes the first n per-iteration seeds of a campaign seed.
func seedTable(seed int64, n int) []int64 {
	t := make([]int64, n)
	NewSeedStream(seed).FillFrom(0, t)
	return t
}

// TestSeedStreamFillFrom: whatever order ranges are asked for in — forward,
// across a gap, below the cursor (the restart) — a range holds the seeds Next
// draws at those positions.
func TestSeedStreamFillFrom(t *testing.T) {
	want := make([]int64, 300)
	next := NewSeedStream(5)
	for i := range want {
		want[i] = next.Next()
	}
	s := NewSeedStream(5)
	got := make([]int64, 64)
	for _, start := range []int{0, 64, 200, 128, 0, 236} {
		s.FillFrom(start, got)
		if !slices.Equal(got, want[start:start+64]) {
			t.Errorf("FillFrom(%d) differs from the stream's seeds at [%d,%d)", start, start, start+64)
		}
	}
}

func platFor(model mcm.Model, cores int) Platform {
	p := PlatformX86()
	p.Model = model
	p.Cores = cores
	p.AllocOrder = nil
	p.Mem = mem.DefaultConfig(cores)
	return p
}

func mustRun(t *testing.T, plat Platform, p *prog.Program, seed int64, iters int) []*Execution {
	t.Helper()
	r, err := NewRunner(plat, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	exs := make([]*Execution, iters)
	for i := range exs {
		ex, err := r.Run()
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		exs[i] = ex.Clone() // the runner's execution is scratch, overwritten next iteration
	}
	return exs
}

// storeByValue returns the store writing v, or false when v is the initial
// value or no store writes it: stores write their op ID plus one.
func storeByValue(p *prog.Program, v uint32) (prog.Op, bool) {
	id := int(v) - 1
	if v == prog.InitialValue || id >= p.NumOps() {
		return prog.Op{}, false
	}
	op := p.OpByID(id)
	return op, op.Kind == prog.Store
}

// checkExecutionSanity verifies universal invariants of one execution:
// every load has a value from its candidate set, and WS covers every store
// exactly once per word in a per-thread-order-respecting sequence.
func checkExecutionSanity(t *testing.T, p *prog.Program, ex *Execution) {
	t.Helper()
	for _, op := range p.Ops() {
		switch op.Kind {
		case prog.Load:
			v := ex.LoadValues[op.ID]
			if v == prog.InitialValue {
				continue
			}
			src, ok := storeByValue(p, v)
			if !ok {
				t.Fatalf("load %d read %d, which no store wrote", op.ID, v)
			}
			if src.Word != op.Word {
				t.Fatalf("load %d (word %d) read store %d of word %d",
					op.ID, op.Word, src.ID, src.Word)
			}
		case prog.Store:
			found := 0
			for _, id := range ex.WS[op.Word] {
				if id == op.ID {
					found++
				}
			}
			if found != 1 {
				t.Fatalf("store %d appears %d times in WS[%d]", op.ID, found, op.Word)
			}
		}
	}
	// Same-thread same-word stores must respect program order in WS.
	for word, ids := range ex.WS {
		lastIdx := map[int]int{} // thread -> last op index seen
		for _, id := range ids {
			op := p.OpByID(id)
			if op.Word != word {
				t.Fatalf("WS[%d] contains store %d of word %d", word, id, op.Word)
			}
			if prev, ok := lastIdx[op.Thread]; ok && prev > op.Index {
				t.Fatalf("WS[%d] reorders same-thread stores", word)
			}
			lastIdx[op.Thread] = op.Index
		}
	}
}

func TestSingleThreadSequentialSemantics(t *testing.T) {
	// One thread: every load reads the latest preceding same-word store.
	p := prog.NewBuilder("seq", 2, prog.DefaultLayout()).
		Thread().Store(0).Load(0).Store(1).Store(0).Load(0).Load(1).
		MustBuild()
	for _, model := range mcm.Models {
		exs := mustRun(t, platFor(model, 1), p, 42, 10)
		for _, ex := range exs {
			checkExecutionSanity(t, p, ex)
			ops := p.Threads[0].Ops
			if got := ex.LoadValues[ops[1].ID]; got != ops[0].Value {
				t.Errorf("%v: load after store read %d, want %d", model, got, ops[0].Value)
			}
			if got := ex.LoadValues[ops[4].ID]; got != ops[3].Value {
				t.Errorf("%v: second load read %d, want %d", model, got, ops[3].Value)
			}
			if got := ex.LoadValues[ops[5].ID]; got != ops[2].Value {
				t.Errorf("%v: word-1 load read %d, want %d", model, got, ops[2].Value)
			}
		}
	}
}

// TestObservedOutcomesAllowed: on a clean platform every execution — what
// each load read and each word's coherence order — is one the model allows,
// as internal/oracle computes it from the model definitions rather than from
// mcm's table. Over the litmus library and generated programs of 2–3 threads
// × 1–4 loads and stores, under all four models, on three clean platforms:
// the default one, the gem5 preset (tiny L1, bugs off) and OS scheduling
// with migration.
func TestObservedOutcomesAllowed(t *testing.T) {
	var programs []*prog.Program
	for _, l := range testgen.LitmusTests() {
		programs = append(programs, l.Prog)
	}
	n := 1000
	if testing.Short() {
		n = 150
	}
	for i := 0; i < n; i++ {
		programs = append(programs, mustGenerate(testgen.Config{
			Threads: 2 + i%2, OpsPerThread: 1 + i/2%4, Words: 1 + i/8%3,
			FenceProb: 0.25 * float64(i/24%2), Seed: int64(i),
		}))
	}
	platforms := []struct {
		name string
		plat func(model mcm.Model, cores int) Platform
	}{
		{"default", platFor},
		{"gem5", func(model mcm.Model, _ int) Platform {
			p := PlatformGem5(mem.Bugs{}, Bugs{})
			p.Model = model
			return p
		}},
		{"os-migrate", func(model mcm.Model, cores int) Platform {
			p := platFor(model, cores)
			p.OS = OSConfig{Enabled: true, Quantum: 400, QuantumJitter: 120, Migrate: true}
			return p
		}},
	}
	var key []byte
	for _, model := range mcm.Models {
		for pi, p := range programs {
			execs, err := oracle.Allowed(p, model.String())
			if err != nil {
				t.Fatal(err)
			}
			allowed := make(map[string]bool, len(execs))
			for _, e := range execs {
				key = outcomeKey(key[:0], e.Values, e.WS)
				allowed[string(key)] = true
			}
			iters := 16
			if pi < len(testgen.LitmusTests()) {
				iters = 300
			}
			for _, pl := range platforms {
				plat := pl.plat(model, max(p.NumThreads(), 2))
				for i, ex := range mustRun(t, plat, p, int64(pi), iters) {
					checkExecutionSanity(t, p, ex)
					if key = outcomeKey(key[:0], ex.LoadValues, ex.WS); !allowed[string(key)] {
						t.Fatalf("%s %v, iteration %d: values %v, coherence %v are not allowed\n%s",
							pl.name, model, i, ex.LoadValues, ex.WS, p)
					}
				}
			}
		}
	}
}

// outcomeKey appends one execution's outcome — each load's value, then each
// word's coherence order — to buf, as a map key.
func outcomeKey(buf []byte, values []uint32, ws [][]int) []byte {
	for _, v := range values {
		buf = strconv.AppendUint(buf, uint64(v), 10)
		buf = append(buf, ' ')
	}
	for _, order := range ws {
		buf = append(buf, '|')
		for _, id := range order {
			buf = strconv.AppendInt(buf, int64(id), 10)
			buf = append(buf, ' ')
		}
	}
	return buf
}

// TestLitmusAllowedObservable checks the engine actually produces the
// classic relaxed outcomes the hardware mechanisms enable: SB under TSO
// (store buffering) and MP under PSO/RMO (out-of-order drains).
func TestLitmusAllowedObservable(t *testing.T) {
	cases := []struct {
		litmus string
		model  mcm.Model
	}{
		{"SB", mcm.TSO},
		{"SB", mcm.RMO},
		{"MP", mcm.PSO},
		{"MP", mcm.RMO},
	}
	for _, c := range cases {
		l, err := testgen.LitmusByName(c.litmus)
		if err != nil {
			t.Fatal(err)
		}
		plat := platFor(c.model, 2)
		exs := mustRun(t, plat, l.Prog, 11, 400)
		seen := false
		for _, ex := range exs {
			if l.Interesting.MatchesValues(ex.LoadValues) {
				seen = true
				break
			}
		}
		if !seen {
			t.Errorf("%s under %v: allowed outcome never observed in %d iterations",
				c.litmus, c.model, len(exs))
		}
	}
}

func TestForwardingObserved(t *testing.T) {
	// st x; ld x under TSO: the load should (at least sometimes) forward
	// from the store buffer and always read the own store's value.
	p := prog.NewBuilder("fwd", 1, prog.DefaultLayout()).
		Thread().Store(0).Load(0).
		MustBuild()
	exs := mustRun(t, platFor(mcm.TSO, 1), p, 3, 50)
	ld := p.Threads[0].Ops[1]
	st := p.Threads[0].Ops[0]
	forwarded := 0
	for _, ex := range exs {
		if ex.LoadValues[ld.ID] != st.Value {
			t.Fatalf("load read %d, want own store %d", ex.LoadValues[ld.ID], st.Value)
		}
		if ex.Forwarded[ld.ID] {
			forwarded++
		}
	}
	if forwarded == 0 {
		t.Error("store-to-load forwarding never observed")
	}
}

func TestSingleCopyAtomicityDisablesForwarding(t *testing.T) {
	p := prog.NewBuilder("fwd", 1, prog.DefaultLayout()).
		Thread().Store(0).Load(0).
		MustBuild()
	plat := platFor(mcm.TSO, 1)
	plat.Atomicity = mcm.SingleCopy
	exs := mustRun(t, plat, p, 3, 30)
	for _, ex := range exs {
		if slices.Contains(ex.Forwarded, true) {
			t.Fatal("forwarding observed under single-copy atomicity")
		}
	}
}

func TestRandomProgramsSanityAllModels(t *testing.T) {
	cfg := testgen.Config{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 5}
	p := mustGenerate(cfg)
	for _, model := range mcm.Models {
		exs := mustRun(t, platFor(model, 4), p, 13, 30)
		for _, ex := range exs {
			checkExecutionSanity(t, p, ex)
		}
	}
}

func TestFencedProgramsComplete(t *testing.T) {
	cfg := testgen.Config{Threads: 3, OpsPerThread: 30, Words: 4, FenceProb: 0.2, Seed: 9}
	p := mustGenerate(cfg)
	for _, model := range mcm.Models {
		exs := mustRun(t, platFor(model, 3), p, 17, 10)
		for _, ex := range exs {
			checkExecutionSanity(t, p, ex)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testgen.Config{Threads: 2, OpsPerThread: 30, Words: 4, Seed: 21}
	p := mustGenerate(cfg)
	render := func() string {
		exs := mustRun(t, platFor(mcm.TSO, 2), p, 99, 5)
		s := ""
		for _, ex := range exs {
			s += fmt.Sprint(ex.LoadValues) + "|"
		}
		return s
	}
	if render() != render() {
		t.Error("same seed produced different executions")
	}
}

func TestThreadsExceedCoresRequiresOS(t *testing.T) {
	cfg := testgen.Config{Threads: 7, OpsPerThread: 10, Words: 4, Seed: 1}
	p := mustGenerate(cfg)
	plat := platFor(mcm.TSO, 4)
	if _, err := NewRunner(plat, p, 1); err == nil {
		t.Error("7 threads on 4 cores accepted without OS scheduling")
	}
	plat.OS = OSConfig{Enabled: true, Quantum: 300, QuantumJitter: 50, Migrate: true}
	exs := mustRun(t, plat, p, 1, 5)
	for _, ex := range exs {
		checkExecutionSanity(t, p, ex)
	}
}

func TestOSModeForbiddenStillForbidden(t *testing.T) {
	// OS preemption must not break the MCM: forbidden outcomes stay
	// forbidden (paper runs the same tests under Linux).
	l, err := testgen.LitmusByName("MP")
	if err != nil {
		t.Fatal(err)
	}
	plat := platFor(mcm.TSO, 2)
	plat.OS = OSConfig{Enabled: true, Quantum: 150, QuantumJitter: 80, Migrate: true}
	exs := mustRun(t, plat, l.Prog, 23, 300)
	for _, ex := range exs {
		checkExecutionSanity(t, l.Prog, ex)
		if l.Interesting.MatchesValues(ex.LoadValues) {
			t.Fatal("MP outcome observed under TSO with OS scheduling")
		}
	}
}

// corrViolation reports whether an execution contains a same-word ld→ld
// coherence violation: a younger load reading a WS-older value than an
// older same-thread load.
func corrViolation(p *prog.Program, ex *Execution) bool {
	pos := func(word int, v uint32) int {
		if v == prog.InitialValue {
			return -1
		}
		st, ok := storeByValue(p, v)
		if !ok {
			return -2
		}
		for i, id := range ex.WS[word] {
			if id == st.ID {
				return i
			}
		}
		return -2
	}
	for _, th := range p.Threads {
		lastPos := map[int]int{} // word -> ws position of last load's value
		for _, op := range th.Ops {
			if op.Kind != prog.Load {
				continue
			}
			v := ex.LoadValues[op.ID]
			pp := pos(op.Word, v)
			if prev, ok := lastPos[op.Word]; ok && pp < prev {
				return true
			}
			lastPos[op.Word] = pp
		}
	}
	return false
}

// contentionProg builds a program with heavy same-word traffic to provoke
// invalidation races.
func contentionProg(threads, ops int) *prog.Program {
	return mustGenerate(testgen.Config{
		Threads: threads, OpsPerThread: ops, Words: 2, Seed: 77,
	})
}

// corrHammer builds a writer/reader pair on one word: the reader's
// speculative loads constantly race the writer's invalidations — the
// densest trigger for the ld→ld squash machinery.
func corrHammer() *prog.Program {
	b := prog.NewBuilder("hammer", 1, prog.DefaultLayout())
	b.Thread()
	for i := 0; i < 20; i++ {
		b.Store(0)
	}
	b.Thread()
	for i := 0; i < 20; i++ {
		b.Load(0)
	}
	return b.MustBuild()
}

func TestBug2ProducesCoherenceViolations(t *testing.T) {
	p := corrHammer()
	run := func(bug bool) int {
		plat := platFor(mcm.TSO, 2)
		plat.Bugs.LQSquashSkip = bug
		violations := 0
		exs := mustRun(t, plat, p, 31, 150)
		for _, ex := range exs {
			if corrViolation(p, ex) {
				violations++
			}
		}
		return violations
	}
	if v := run(false); v != 0 {
		t.Fatalf("bug-free platform produced %d coherence violations", v)
	}
	if v := run(true); v == 0 {
		t.Error("bug 2 produced no coherence violations in 150 iterations")
	}
}

func TestBug1ProducesCoherenceViolations(t *testing.T) {
	// The paper's bug-1 recipe (Table 3): x86-4-50-8 with 4 words per cache
	// line, so upgrade (S→M) transients on a line race invalidations while
	// speculative loads to the line's other words are outstanding.
	p := mustGenerate(testgen.Config{
		Threads: 4, OpsPerThread: 50, Words: 8, WordsPerLine: 4, Seed: 1,
	})
	run := func(bug bool) int {
		plat := PlatformGem5(mem.Bugs{StaleSMInv: bug}, Bugs{})
		r, err := NewRunner(plat, p, 41)
		if err != nil {
			t.Fatal(err)
		}
		violations := 0
		for i := 0; i < 200; i++ {
			ex, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if corrViolation(p, ex) {
				violations++
			}
		}
		return violations
	}
	if v := run(false); v != 0 {
		t.Fatalf("bug-free platform produced %d coherence violations", v)
	}
	if v := run(true); v == 0 {
		t.Error("bug 1 produced no coherence violations in 200 iterations")
	}
}

func TestBug3Crashes(t *testing.T) {
	// Line-contended stores with a tiny cache: the writeback race deadlocks.
	p := mustGenerate(testgen.Config{
		Threads: 7, OpsPerThread: 60, Words: 64, LoadRatio: 0.3, Seed: 3,
	})
	plat := PlatformGem5(mem.Bugs{WBRaceDeadlock: true}, Bugs{})
	r, err := NewRunner(plat, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	crashed := false
	for i := 0; i < 60 && !crashed; i++ {
		if _, err := r.Run(); err != nil {
			if !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrLivelock) {
				t.Fatalf("unexpected error: %v", err)
			}
			crashed = true
		}
	}
	if !crashed {
		t.Error("bug 3 never crashed in 60 iterations")
	}
}

// TestBug3DeadlockPinned pins where bug 3 strikes — iteration index and the
// simulated cycle at which the event queue ran dry — for the configuration
// TestEngineGoldenSignatures' gem5_wb_race case runs. The numbers were
// captured when the directory began to act on cache responses at their
// arrival time, with the engine goldens; an engine that pops the
// same events in the same order with the same RNG draws deadlocks in exactly
// the same place.
func TestBug3DeadlockPinned(t *testing.T) {
	const wantIter, wantCycle = 0, eventq.Time(4216)
	p := mustGenerate(testgen.Config{Threads: 7, OpsPerThread: 60, Words: 40, Seed: 3})
	r, err := NewRunner(PlatformGem5(mem.Bugs{WBRaceDeadlock: true}, Bugs{}), p, 31)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= wantIter; i++ {
		_, err := r.Run()
		if i < wantIter {
			if err != nil {
				t.Fatalf("iteration %d: %v, want the deadlock at iteration %d", i, err, wantIter)
			}
			continue
		}
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("iteration %d: err = %v, want ErrDeadlock", i, err)
		}
		if now := r.q.Now(); now != wantCycle {
			t.Errorf("deadlock at cycle %d, want %d", now, wantCycle)
		}
	}
	// The runner resets its platform from the deadlocked state: the next
	// iteration equals the same iteration on a runner that never crashed.
	fresh, err := NewRunner(r.plat, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := fresh.RunSeeded(seedTable(31, wantIter+2)[wantIter+1])
	got, gotErr := r.Run()
	if !errors.Is(gotErr, wantErr) {
		t.Fatalf("run after a deadlock: err = %v, fresh runner: %v", gotErr, wantErr)
	}
	if gotErr == nil && (got.Cycles != want.Cycles || !reflect.DeepEqual(got.LoadValues, want.LoadValues)) {
		t.Errorf("run after a deadlock differs from a fresh runner's (cycles %d vs %d)", got.Cycles, want.Cycles)
	}
}

// TestRunAfterLivelock: an iteration cut off by its event budget leaves the
// platform mid-flight, and the runner resets it from there: the next
// iteration equals the same iteration on a runner that was never cut off.
func TestRunAfterLivelock(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 4, OpsPerThread: 50, Words: 16, Seed: 7})
	seeds := seedTable(3, 2)
	newRunner := func() *Runner {
		r, err := NewRunner(PlatformX86(), p, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	full, err := newRunner().RunSeeded(seeds[0])
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner()
	r.MaxEvents = full.Events / 2
	if _, err := r.RunSeeded(seeds[0]); !errors.Is(err, ErrLivelock) {
		t.Fatalf("iteration on half its events: err = %v, want ErrLivelock", err)
	}
	r.MaxEvents = 0
	got, err := r.RunSeeded(seeds[1])
	if err != nil {
		t.Fatal(err)
	}
	want, err := newRunner().RunSeeded(seeds[1])
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Events != want.Events || got.Squashes != want.Squashes ||
		got.MemStats != want.MemStats || !reflect.DeepEqual(got.LoadValues, want.LoadValues) ||
		!reflect.DeepEqual(got.WSByWord(), want.WSByWord()) {
		t.Errorf("run after a livelock differs from a fresh runner's: %d cycles, %d events, %+v; want %d, %d, %+v",
			got.Cycles, got.Events, got.MemStats, want.Cycles, want.Events, want.MemStats)
	}
}

func TestPlatformValidate(t *testing.T) {
	good := []Platform{PlatformX86(), PlatformARM(), PlatformGem5(mem.Bugs{}, Bugs{})}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	bad := PlatformX86()
	bad.AllocOrder = []int{0, 0, 1, 2}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate alloc order accepted")
	}
	bad = PlatformX86()
	bad.RegWidthBits = 16
	if err := bad.Validate(); err == nil {
		t.Error("16-bit registers accepted")
	}
}

func TestForISA(t *testing.T) {
	arm, err := forISA("ARM")
	if err != nil || arm.Model != mcm.RMO {
		t.Errorf("forISA(ARM) = %v, %v", arm.Model, err)
	}
	x86, err := forISA("x86")
	if err != nil || x86.Model != mcm.TSO {
		t.Errorf("forISA(x86) = %v, %v", x86.Model, err)
	}
	if _, err := forISA("mips"); err == nil {
		t.Error("ForISA accepted mips")
	}
}

func TestExecutionCyclesPositive(t *testing.T) {
	p := contentionProg(2, 20)
	exs := mustRun(t, platFor(mcm.TSO, 2), p, 1, 3)
	for _, ex := range exs {
		if ex.Cycles <= 0 {
			t.Errorf("Cycles = %d", ex.Cycles)
		}
		if ex.MemStats.Stores == 0 {
			t.Error("memory stats empty")
		}
	}
}

// TestTinyStoreBufferCompletes stresses the commit-stall path: with a
// single-entry store buffer every store serializes against the previous
// drain, and executions must still complete under every model.
func TestTinyStoreBufferCompletes(t *testing.T) {
	cfg := testgen.Config{Threads: 3, OpsPerThread: 30, Words: 4, Seed: 12}
	p := mustGenerate(cfg)
	for _, model := range mcm.Models {
		plat := platFor(model, 3)
		plat.SBDepth = 1
		exs := mustRun(t, plat, p, 19, 10)
		for _, ex := range exs {
			checkExecutionSanity(t, p, ex)
		}
	}
}

// TestInOrderWindowCompletes: a single-slot issue window makes the core
// fully in-order; everything must still complete and stay sane.
func TestInOrderWindowCompletes(t *testing.T) {
	cfg := testgen.Config{Threads: 2, OpsPerThread: 25, Words: 4, Seed: 13}
	p := mustGenerate(cfg)
	for _, model := range mcm.Models {
		plat := platFor(model, 2)
		plat.Window = 1
		exs := mustRun(t, plat, p, 29, 10)
		for _, ex := range exs {
			checkExecutionSanity(t, p, ex)
			if model == mcm.SC && ex.Squashes != 0 {
				t.Errorf("SC in-order core squashed %d loads", ex.Squashes)
			}
		}
	}
}

// TestForbiddenStaysForbiddenUnderStress: litmus forbidden outcomes must
// not appear even with aggressive timing noise and tiny structures.
func TestForbiddenStaysForbiddenUnderStress(t *testing.T) {
	l, err := testgen.LitmusByName("CoRR")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range mcm.Models {
		plat := platFor(model, 2)
		plat.SBDepth = 1
		plat.Window = 2
		plat.LateLoadProb = 0.5
		plat.LateLoadMax = 500
		plat.Mem = mem.TinyCacheConfig(2)
		exs := mustRun(t, plat, l.Prog, 37, 200)
		for _, ex := range exs {
			if l.Interesting.MatchesValues(ex.LoadValues) {
				t.Fatalf("%v: CoRR violation on a clean stressed platform", model)
			}
		}
	}
}

func TestTraceTimeline(t *testing.T) {
	p := contentionProg(2, 20)
	r, err := NewRunner(platFor(mcm.TSO, 2), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Trace = true
	ex, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Timeline) != p.NumOps() {
		t.Fatalf("timeline has %d events, want %d", len(ex.Timeline), p.NumOps())
	}
	for i, ev := range ex.Timeline {
		if ev.OpID != i {
			t.Fatalf("timeline[%d].OpID = %d", i, ev.OpID)
		}
		op := p.OpByID(ev.OpID)
		if op.IsMemory() && ev.Performed == 0 {
			t.Errorf("op %d never performed", ev.OpID)
		}
		if ev.Committed == 0 {
			t.Errorf("op %d never committed", ev.OpID)
		}
		if op.Kind == prog.Load {
			if got := ex.LoadValues[ev.OpID]; got != ev.Value {
				t.Errorf("op %d: timeline value %d, LoadValues %d", ev.OpID, ev.Value, got)
			}
		}
	}
	// Same-thread commits are monotone (in-order retirement).
	last := map[int]eventq.Time{}
	for _, ev := range ex.Timeline {
		op := p.OpByID(ev.OpID)
		if prev, ok := last[op.Thread]; ok && ev.Committed < prev {
			t.Errorf("thread %d committed op %d before its predecessor", op.Thread, ev.OpID)
		}
		last[op.Thread] = ev.Committed
	}
	var sb strings.Builder
	if err := FormatTimeline(&sb, p, ex); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "performed\tcommitted") {
		t.Error("timeline header missing")
	}

	// Without Trace, no timeline (and FormatTimeline refuses).
	r2, _ := NewRunner(platFor(mcm.TSO, 2), p, 1)
	ex2, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ex2.Timeline) != 0 {
		t.Error("timeline recorded without Trace")
	}
	if err := FormatTimeline(&sb, p, ex2); err == nil {
		t.Error("FormatTimeline accepted traceless execution")
	}
}

// TestSeedStreamSkipMatchesSequentialRuns: a fresh runner executing iteration
// n under the seed FillFrom skips ahead to must produce exactly iteration n of
// one runner reused for n+1 iterations — reuse leaves nothing behind and
// skipping draws what stepping does, the invariant behind the streaming
// pipeline's worker-invariant results and checkpoint resume. Both runs go
// through the one seed path (Run draws from the same SeedStream), so this
// compares runner states, not two ways of seeding.
func TestSeedStreamSkipMatchesSequentialRuns(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 4, OpsPerThread: 20, Words: 8, Seed: 2})
	plat := PlatformX86()
	full := mustRun(t, plat, p, 7, 20)
	for _, skip := range []int{0, 1, 7, 19} {
		r, err := NewRunner(plat, p, 7)
		if err != nil {
			t.Fatal(err)
		}
		var seed [1]int64
		NewSeedStream(7).FillFrom(skip, seed[:])
		ex, err := r.RunSeeded(seed[0])
		if err != nil {
			t.Fatal(err)
		}
		want := full[skip]
		if ex.Cycles != want.Cycles {
			t.Errorf("skip %d: cycles %d, sequential %d", skip, ex.Cycles, want.Cycles)
		}
		if ex.Events != want.Events || ex.Events == 0 {
			t.Errorf("skip %d: %d events, sequential %d", skip, ex.Events, want.Events)
		}
		for id, v := range want.LoadValues {
			if ex.LoadValues[id] != v {
				t.Errorf("skip %d: load %d = %d, sequential %d", skip, id, ex.LoadValues[id], v)
			}
		}
	}
}

// TestPumpOfUnchangedThreadsIsNoOp checks, directly, the property the
// per-thread pump rests on: after any event, every thread the event did not
// change — and, since a pump leaves its thread at a fixpoint, every thread it
// did — has nothing left to start. Stepping 200 iterations one event at a
// time, an all-thread pump after each event must push no event, draw no
// random number and change no op record (a forward it performed would), the
// O(1) done check must agree with a walk over every thread's ops, and every
// thread's ready set must hold exactly the ops the predicate it stands for,
// recomputed from the op records, selects. The stepped iteration must also
// equal a plain RunSeeded's.
func TestPumpOfUnchangedThreadsIsNoOp(t *testing.T) {
	osMigrate := PlatformX86()
	osMigrate.OS = OSConfig{Enabled: true, Quantum: 1500, QuantumJitter: 200, Migrate: true}
	cases := []struct {
		name    string
		plat    Platform
		threads int
	}{
		{"x86", PlatformX86(), 4},
		{"arm", PlatformARM(), 7},
		{"os-migrate", osMigrate, 7},
		{"gem5", PlatformGem5(mem.Bugs{}, Bugs{}), 7},
		{"gem5-bug2", PlatformGem5(mem.Bugs{}, Bugs{LQSquashSkip: true}), 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := mustGenerate(testgen.Config{Threads: c.threads, OpsPerThread: 40, Words: 8, Seed: 5})
			r, err := NewRunner(c.plat, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewRunner(c.plat, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			e := &r.eng
			before := make([][]opRec, len(e.threads))
			for it, seed := range seedTable(9, 200) {
				r.begin(seed)
				events := 0
				checkReadySets(t, e, it, events)
				for !e.done() {
					if !r.q.Step() {
						t.Fatalf("iteration %d: queue ran dry after %d events", it, events)
					}
					events++
					checkReadySets(t, e, it, events)
					if walked := allRetired(e); walked != e.done() {
						t.Fatalf("iteration %d event %d: done() = %v, walking the ops says %v",
							it, events, e.done(), walked)
					}
					// The engine and the memory system draw from r.rng: a
					// draw changes its source.
					pending, src := r.q.Len(), r.rng.source
					for i, th := range e.threads {
						before[i] = append(before[i][:0], th.ops...)
					}
					e.pump()
					if r.q.Len() != pending || r.rng.source != src {
						t.Fatalf("iteration %d event %d: all-thread pump pushed %d events or drew a number",
							it, events, r.q.Len()-pending)
					}
					for i, th := range e.threads {
						if !slices.Equal(before[i], th.ops) {
							t.Fatalf("iteration %d event %d: all-thread pump changed thread %d's op records",
								it, events, i)
						}
					}
				}
				cycles := r.q.Now()
				want, err := ref.RunSeeded(seed)
				if err != nil {
					t.Fatal(err)
				}
				if cycles != want.Cycles || events != want.Events ||
					!reflect.DeepEqual(e.exec.LoadValues, want.LoadValues) {
					t.Fatalf("iteration %d: stepped run (%d cycles, %d events) differs from RunSeeded (%d, %d)",
						it, cycles, events, want.Cycles, want.Events)
				}
			}
		})
	}
}

// checkReadySets fails unless every thread's ready bit for op i is set
// exactly when op i is issued, not in flight, not performed, and a load or a
// buffered store the model's store order lets drain: the FIFO head under
// st→st order, else one whose older same-word stores have all drained.
func checkReadySets(t *testing.T, e *engine, it, events int) {
	t.Helper()
	for _, th := range e.threads {
		olderStores, olderSameWord := 0, make([]int, len(th.drainedByWord))
		for i := range th.ops {
			o := &th.ops[i]
			drainable := false
			if o.op.Kind == prog.Store {
				if e.stStOrdered {
					drainable = th.drainedStores == olderStores
				} else {
					drainable = th.drainedByWord[o.op.Word] == olderSameWord[o.op.Word]
				}
				olderStores++
				olderSameWord[o.op.Word]++
			}
			want := o.issued && !o.inFlight && !o.performed &&
				(o.op.Kind == prog.Load || o.op.Kind == prog.Store && o.buffered && drainable)
			if got := th.ready[i>>6]&(1<<(i&63)) != 0; got != want {
				t.Fatalf("iteration %d event %d: thread %d op %d ready bit %v, op record says %v",
					it, events, th.slot, i, got, want)
			}
		}
	}
}

// allRetired is the engine's former done check: every op of every thread
// committed, every store drained, every memory op performed.
func allRetired(e *engine) bool {
	for _, t := range e.threads {
		if t.commit < len(t.ops) || t.sbUsed > 0 {
			return false
		}
		for i := range t.ops {
			if !t.ops[i].performed && t.ops[i].op.IsMemory() {
				return false
			}
		}
	}
	return true
}

// TestRunnerRejectsConcurrentRun: a Runner is owned by one goroutine; a
// second concurrent Run must fail rather than corrupt the seed stream.
func TestRunnerRejectsConcurrentRun(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 2})
	r, err := NewRunner(PlatformX86(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	const grs = 4
	errs := make(chan error, grs)
	for g := 0; g < grs; g++ {
		go func() {
			var firstErr error
			for i := 0; i < 50; i++ {
				if _, err := r.Run(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			errs <- firstErr
		}()
	}
	sawReject := false
	for g := 0; g < grs; g++ {
		if err := <-errs; err != nil {
			if !strings.Contains(err.Error(), "concurrent") {
				t.Fatalf("unexpected error: %v", err)
			}
			sawReject = true
		}
	}
	if !sawReject {
		t.Log("no overlap provoked; ownership guard not exercised this run")
	}
}

// TestForwardPerformedInline: a load that forwards from its thread's store
// buffer is performed inside the pump that starts it — at the current cycle,
// pushing no event — on its first try and on its replay after an OS context
// switch flushed it. Thread 0 runs st w0; ld w1; ld w0: its start event
// buffers the store and forwards it to ld w0 while ld w1's access is still
// to be issued, so ld w0 is performed but not committed.
func TestForwardPerformedInline(t *testing.T) {
	b := prog.NewBuilder("fwd-inline", 2, prog.DefaultLayout())
	b.Thread().Store(0).Load(1).Load(0)
	b.Thread().Load(1)
	p := b.MustBuild()
	plat := PlatformX86()
	plat.OS = OSConfig{Enabled: true, Quantum: 1 << 20} // no quantum fires on its own
	r, err := NewRunner(plat, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := &r.eng
	for it, seed := range seedTable(5, 20) {
		r.begin(seed)
		th := e.threads[0]
		for !th.started {
			if !r.q.Step() {
				t.Fatalf("iteration %d: queue ran dry before thread 0 started", it)
			}
		}
		fwd := &th.ops[2]
		inline := func(when string, squashes int) {
			t.Helper()
			if !fwd.performed || !fwd.forwarded || fwd.performedAt != r.q.Now() || fwd.squashes != squashes {
				t.Fatalf("iteration %d, %s: ld w0 performed %v, forwarded %v at cycle %d, %d squashes; want a forward at cycle %d, %d squashes",
					it, when, fwd.performed, fwd.forwarded, fwd.performedAt, fwd.squashes, r.q.Now(), squashes)
			}
			if fwd.committed || th.ops[1].performed {
				t.Fatalf("iteration %d, %s: ld w1 performed %v, ld w0 committed %v; want ld w1's access outstanding",
					it, when, th.ops[1].performed, fwd.committed)
			}
		}
		inline("at thread start", 0)
		// The first quantum pauses thread 0 and flushes ld w0, the second
		// resumes it.
		pending := r.q.Len()
		e.rotate()
		if fwd.performed {
			t.Fatalf("iteration %d: ld w0 still performed after its thread's pipeline flush", it)
		}
		e.rotate()
		inline("after a pipeline flush", 1)
		if r.q.Len() != pending {
			t.Fatalf("iteration %d: the two quanta pushed %d events", it, r.q.Len()-pending)
		}
		for !e.done() {
			if !r.q.Step() {
				t.Fatalf("iteration %d: queue ran dry", it)
			}
		}
		if v := e.exec.LoadValues[fwd.op.ID]; v != th.ops[0].op.Value || !e.exec.Forwarded[fwd.op.ID] {
			t.Errorf("iteration %d: ld w0 read %d (forwarded %v), want its thread's store %d",
				it, v, e.exec.Forwarded[fwd.op.ID], th.ops[0].op.Value)
		}
	}
}
