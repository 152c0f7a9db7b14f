package mtracecheck

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mtracecheck/internal/instrument"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
)

// Allocation budgets for the hot loop (DESIGN.md "Performance"): the
// execute → encode → dedup path must not allocate proportionally to
// iterations. Since the typed-event engine replaced per-event closures
// (every deferred action is an inline eventq.Event dispatched by kind, and
// the memory system's messages, buffers, MSHRs, and replays are pooled),
// every stage of the path is allocation-free at steady state.
const (
	runAllocBudget = 0 // the typed-event engine schedules no closures
	encAllocBudget = 0
	addAllocBudget = 0
)

// A new unique costs its entry's copy of the words through AddWords and
// nothing through AddUnique, which shares the caller's signature; the entry
// list, the collision chain and the hash index grow by doubling, which
// addMissGrowthAllowance bounds per unique (the set stores no key string).
const (
	addMissAllocBudget     = 1
	addMissGrowthAllowance = 0.05
)

// The trace budgets bound one parse + check of the rendered 200-op reference
// execution, the trace benchmarks' unit. Warm, the trace has the shape of the
// one checked before it, so what is allocated is what the call returns or
// consumes once: the Trace and its Ops (24 bytes an op), the Binding with its
// reads-from row, the report and the checker's result (no signature: the item
// is the row). The read buffer is the previous Parse's, the model name is
// matched in place, and a one-shard check moves nothing to the heap. Cold, it
// also builds the shape (store index, bound program, address, thread and
// source tables, the key), one graph builder (whose tables and adjacency are a
// handful of slices, not one per vertex) and the checker's workspace (one
// array) — what every check allocated before shapes were kept. The cold budget
// holds under the race detector too, where sync.Pool drops Puts: a dropped
// read buffer costs at most two allocations.
const (
	checkTraceWarmAllocBudget = 9
	checkTraceWarmBytesBudget = 7 << 10
	checkTraceColdAllocBudget = 57
)

// offlineAllocBudget bounds one offline-check rep (load a stored signature
// set, validate it, NewCampaign, Check) per unique signature. Nothing in the
// rep allocates per unique: signatures are read into shared word arrays, rows
// are decoded into one array per checking shard, and the workspace edits its
// adjacency in place; what is left is the rep's fixed cost (instrument.Analyze
// above all) and amortized growth, well under one allocation per unique. The
// budget is the issue's; the list-building pipeline it replaced took 19.5.
// Bytes are bounded too: an item is its signature, decoded only as the checker
// installs it, so no rep holds a row per unique (a slab of them took 1.09 KiB
// per unique here).
const (
	offlineAllocBudget = 3
	offlineBytesBudget = 512 // per unique
)

func allocProbeSetup(t *testing.T) (*sim.Runner, *instrument.Meta) {
	t.Helper()
	p := mustGenerate(TestConfig{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 5})
	plat := sim.PlatformX86()
	r, err := sim.NewRunner(plat, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r, meta
}

func TestRunnerRunAllocBudget(t *testing.T) {
	r, _ := allocProbeSetup(t)
	for i := 0; i < 3; i++ { // warm the reusable workspaces
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > runAllocBudget {
		t.Errorf("Runner.Run steady state: %.0f allocs/run, budget %d", allocs, runAllocBudget)
	}
}

// TestRunSeededAllocBudget pins the streaming pipeline's entry point to the
// same zero-allocation steady state: a warm Runner executing an explicit
// per-iteration seed must not allocate at all.
func TestRunSeededAllocBudget(t *testing.T) {
	r, _ := allocProbeSetup(t)
	seeds := make([]int64, 24)
	sim.NewSeedStream(7).FillFrom(0, seeds)
	for _, s := range seeds[:4] { // warm the reusable workspaces
		if _, err := r.RunSeeded(s); err != nil {
			t.Fatal(err)
		}
	}
	i := 4
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.RunSeeded(seeds[i%len(seeds)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > runAllocBudget {
		t.Errorf("Runner.RunSeeded steady state: %.0f allocs/run, budget %d", allocs, runAllocBudget)
	}
}

func TestEncodeExecutionIntoAllocBudget(t *testing.T) {
	r, meta := allocProbeSetup(t)
	ex, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := meta.EncodeExecutionInto(nil, ex.LoadValues)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var e error
		buf, e = meta.EncodeExecutionInto(buf[:0], ex.LoadValues)
		if e != nil {
			t.Fatal(e)
		}
	})
	if allocs > encAllocBudget {
		t.Errorf("EncodeExecutionInto steady state: %.0f allocs/run, budget %d", allocs, encAllocBudget)
	}
}

func TestSetAddAllocBudget(t *testing.T) {
	r, meta := allocProbeSetup(t)
	ex, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := meta.EncodeExecutionInto(nil, ex.LoadValues)
	if err != nil {
		t.Fatal(err)
	}
	set := sig.NewSet()
	set.AddWords(buf) // first observation pays for the retained entry
	allocs := testing.AllocsPerRun(100, func() { set.AddWords(buf) })
	if allocs > addAllocBudget {
		t.Errorf("Set.AddWords hit path: %.0f allocs/run, budget %d", allocs, addAllocBudget)
	}
	if set.Len() != 1 || set.Total() != 102 {
		t.Errorf("Set after probe: Len %d Total %d, want 1 and 102", set.Len(), set.Total())
	}
}

func TestSetAddMissAllocBudget(t *testing.T) {
	const n = 4096
	words := make([][]uint64, n)
	owned := make([]sig.Unique, n)
	for i := range words {
		words[i] = []uint64{uint64(i), uint64(i) * 0x9e3779b97f4a7c15, 3}
		owned[i] = sig.Unique{Sig: sig.New(words[i]), Count: 1}
	}
	fill := func(add func(*sig.Set, int) bool) func() {
		return func() {
			set := sig.NewSet()
			for i := range n {
				if !add(set, i) {
					t.Fatalf("unique %d reported seen", i)
				}
			}
		}
	}
	// The set itself (its header and empty index) is a fixed cost, not a
	// unique's.
	byWords := testing.AllocsPerRun(5, fill(func(s *sig.Set, i int) bool { return s.AddWords(words[i]) })) / n
	byUnique := testing.AllocsPerRun(5, fill(func(s *sig.Set, i int) bool { return s.AddUnique(owned[i]) })) / n
	if byWords > addMissAllocBudget+addMissGrowthAllowance {
		t.Errorf("Set.AddWords miss path: %.3f allocs per new unique, budget %d + %.2f growth",
			byWords, addMissAllocBudget, addMissGrowthAllowance)
	}
	if byUnique > addMissGrowthAllowance {
		t.Errorf("Set.AddUnique miss path: %.3f allocs per new unique, budget 0 + %.2f growth",
			byUnique, addMissGrowthAllowance)
	}
	t.Logf("allocs per new unique: AddWords %.3f, AddUnique %.3f", byWords, byUnique)
}

func TestCheckTraceAllocBudget(t *testing.T) {
	reuseRepeats := pinPools(t)
	text := renderedTrace(t)
	other := otherShape(t, text)
	check := func(text []byte) {
		if parseAndCheck(t, text).Failed() {
			t.Fatal("clean trace failed")
		}
	}
	warm := testing.AllocsPerRun(20, func() { check(text) })
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		check(text)
	}
	runtime.ReadMemStats(&after)
	warmBytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if !reuseRepeats {
		t.Logf("warm: %.0f allocs, %d bytes; not held to the budget under the race detector, where sync.Pool drops Puts", warm, warmBytes)
	} else {
		if warm > checkTraceWarmAllocBudget {
			t.Errorf("ParseTrace + CheckTrace of a 200-op trace of the kept shape: %.0f allocs, budget %d", warm, checkTraceWarmAllocBudget)
		}
		if warmBytes > checkTraceWarmBytesBudget {
			t.Errorf("ParseTrace + CheckTrace of a 200-op trace of the kept shape: %d bytes, budget %d", warmBytes, checkTraceWarmBytesBudget)
		}
		t.Logf("warm: %.0f allocs, %d bytes", warm, warmBytes)
	}
	// Two shapes taking turns: every check is a cold one.
	cold := testing.AllocsPerRun(10, func() { check(other); check(text) }) / 2
	if cold > checkTraceColdAllocBudget {
		t.Errorf("ParseTrace + CheckTrace of a 200-op trace of a new shape: %.1f allocs, budget %d", cold, checkTraceColdAllocBudget)
	}
}

func TestOfflineCheckAllocBudget(t *testing.T) {
	p, opts, file, uniques := offlineSet(t, contended, PlatformX86(), 2048)
	offlineCheck(t, p, opts, file) // warm the workspace pool
	allocs := testing.AllocsPerRun(3, func() { offlineCheck(t, p, opts, file) })
	if perUnique := allocs / float64(uniques); perUnique > offlineAllocBudget {
		t.Errorf("offline check of %d uniques: %.0f allocs, %.2f per unique, budget %d",
			uniques, allocs, perUnique, offlineAllocBudget)
	} else {
		t.Logf("offline check of %d uniques: %.0f allocs, %.2f per unique", uniques, allocs, perUnique)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		offlineCheck(t, p, opts, file)
	}
	runtime.ReadMemStats(&after)
	if perUnique := (after.TotalAlloc - before.TotalAlloc) / runs / uint64(uniques); perUnique > offlineBytesBudget {
		t.Errorf("offline check of %d uniques: %d bytes per unique, budget %d", uniques, perUnique, offlineBytesBudget)
	} else {
		t.Logf("offline check of %d uniques: %d bytes per unique", uniques, perUnique)
	}
}

// TestReportBitIdenticalAcrossWorkers: the dense-buffer pipeline must keep
// the PR-1 invariant — every worker count produces the same report, down to
// the individual signature bits.
func TestReportBitIdenticalAcrossWorkers(t *testing.T) {
	p := mustGenerate(TestConfig{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 5})
	type result struct {
		report  *Report
		uniques []sig.Unique
	}
	results := map[int]result{}
	for _, workers := range []int{1, 3, 4} {
		opts := Options{Platform: PlatformX86(), Iterations: 150, Seed: 11, Workers: workers}
		report, err := RunProgram(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		uniques, err := CollectSignatures(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		results[workers] = result{report, uniques}
	}
	base := results[1]
	for _, workers := range []int{3, 4} {
		got := results[workers]
		if got.report.Iterations != base.report.Iterations ||
			got.report.UniqueSignatures != base.report.UniqueSignatures ||
			got.report.TotalCycles != base.report.TotalCycles ||
			got.report.Squashes != base.report.Squashes {
			t.Errorf("workers %d: report stats diverge from workers 1", workers)
		}
		if len(got.report.Violations) != len(base.report.Violations) {
			t.Errorf("workers %d: %d violations, workers 1 has %d",
				workers, len(got.report.Violations), len(base.report.Violations))
		}
		if len(got.uniques) != len(base.uniques) {
			t.Fatalf("workers %d: %d uniques, workers 1 has %d",
				workers, len(got.uniques), len(base.uniques))
		}
		for i, u := range base.uniques {
			g := got.uniques[i]
			if !g.Sig.Equal(u.Sig) || g.Count != u.Count {
				t.Fatalf("workers %d: unique %d = (%v, %d), workers 1 (%v, %d)",
					workers, i, g.Sig, g.Count, u.Sig, u.Count)
			}
		}
	}
}

// TestChunkRunnerSeedCost: what a chunk costs in seeds does not depend on
// where the chunk is. A runner's seed stream moves forward with the chunks it
// is handed, so Run allocates on late chunks of a 65,536-iteration campaign
// what it allocates on early ones — and never a random source (4.9 KB), which
// a fresh skip-ahead stream per chunk used to cost beside 2.6 ns per skipped
// iteration. Indices handed out of order take the restart path and must give
// the results ascending order gives.
func TestChunkRunnerSeedCost(t *testing.T) {
	// One thread: every iteration yields the same signature, so what a chunk
	// allocates does not depend on what it observed.
	p := mustGenerate(TestConfig{Threads: 1, OpsPerThread: 8, Words: 2, Seed: 1})
	c, err := NewCampaign(p, Options{Iterations: 65536, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := c.NewChunkRunner()
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	measure := func(first int) (allocs float64, bytes uint64) {
		idx := first
		run := func() {
			if _, err := cr.Run(context.Background(), idx); err != nil {
				t.Fatal(err)
			}
			idx++
		}
		allocs = testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	earlyAllocs, earlyBytes := measure(0)
	lateAllocs, lateBytes := measure(c.NumChunks() - 2*runs - 1)
	t.Logf("Run: %.0f allocs / %d bytes on early chunks, %.0f / %d on late ones", earlyAllocs, earlyBytes, lateAllocs, lateBytes)
	if earlyAllocs != lateAllocs {
		t.Errorf("Run allocates %.0f times on an early chunk, %.0f on a late one", earlyAllocs, lateAllocs)
	}
	const randSource = 607 * 8 // math/rand's rngSource
	if earlyBytes >= randSource || lateBytes >= randSource {
		t.Errorf("Run allocates %d bytes on an early chunk and %d on a late one: a random source (%d) per chunk?",
			earlyBytes, lateBytes, randSource)
	}

	// Where the seeds matter: a racy program, ten chunks.
	racy, err := NewProgramBuilderFromConfig(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	if c, err = NewCampaign(racy, Options{Iterations: 640, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	ascending := chunkResults(t, c)
	n := len(ascending)
	descending := make([]int, n)
	for i := range descending {
		descending[i] = n - 1 - i
	}
	for name, order := range map[string][]int{"descending": descending, "shuffled": rand.New(rand.NewSource(5)).Perm(n)} {
		cr, err := c.NewChunkRunner()
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range order {
			got, err := cr.Run(context.Background(), idx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ascending[idx]) {
				t.Errorf("%s order: chunk %d differs from the ascending run's:\ngot  %+v\nwant %+v", name, idx, got, ascending[idx])
			}
		}
	}
}
