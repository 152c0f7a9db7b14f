// Benchmarks regenerating the computational kernels behind every table and
// figure of the paper's evaluation. Each benchmark names the experiment it
// backs; cmd/mtc-experiments produces the full tables, these measure the
// hot paths (checking, signature encode/decode, simulation, clustering).
package mtracecheck

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"mtracecheck/internal/check"
	"mtracecheck/internal/experiments/cluster"
	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/isa"
	"mtracecheck/internal/mem"
	"mtracecheck/internal/oracle"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
	"mtracecheck/internal/testgen"
	"mtracecheck/internal/trace"
	"mtracecheck/internal/vm"
)

// fixture bundles a program with collected unique signatures and checkable
// items, shared by the checking benchmarks.
type fixture struct {
	prog    *Program
	meta    *instrument.Meta
	builder *graph.Builder
	items   []check.Item
	sigs    []sig.Signature
	vals    [][]uint32
}

// buildFixture collects n SC-reference executions of the given config.
func buildFixture(b *testing.B, tc TestConfig, n int) *fixture {
	b.Helper()
	p, err := testgen.Generate(tc)
	if err != nil {
		b.Fatal(err)
	}
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		b.Fatal(err)
	}
	builder := graph.NewBuilder(p, sim.PlatformX86().Model, graph.Options{Forwarding: true})
	rng := rand.New(rand.NewSource(1))
	type raw struct {
		s     sig.Signature
		edges []graph.Edge
	}
	byKey := map[string]raw{}
	f := &fixture{prog: p, meta: meta, builder: builder}
	for i := 0; i < n; i++ {
		e := oracle.Walk(p, rng.Intn)
		f.vals = append(f.vals, e.Values)
		s, err := meta.EncodeValues(e.Values)
		if err != nil {
			b.Fatal(err)
		}
		f.sigs = append(f.sigs, s)
		edges, err := builder.AppendDynamicEdges(nil, e.RF, nil)
		if err != nil {
			b.Fatal(err)
		}
		byKey[s.Key()] = raw{s: s, edges: edges}
	}
	uniq := make([]sig.Signature, 0, len(byKey))
	for _, r := range byKey {
		uniq = append(uniq, r.s)
	}
	sig.Sort(uniq)
	for _, s := range uniq {
		f.items = append(f.items, check.Item{Sig: s, Edges: byKey[s.Key()].edges})
	}
	return f
}

var benchCfg = TestConfig{Threads: 4, OpsPerThread: 50, Words: 32, Seed: 1}

// runBackend checks the items with the named row of check's table.
func runBackend(name string, b *graph.Builder, items []check.Item) (*check.Result, error) {
	be, err := check.ForName(name)
	if err != nil {
		return nil, err
	}
	return be.Check(context.Background(), b, items)
}

// BenchmarkFig9ConventionalCheck: the per-graph full topological sorting
// baseline of Fig. 9.
func BenchmarkFig9ConventionalCheck(b *testing.B) {
	f := buildFixture(b, benchCfg, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := runBackend("conventional", f.builder, f.items)
		if len(res.Violations) != 0 {
			b.Fatal("unexpected violations")
		}
	}
	b.ReportMetric(float64(len(f.items)), "graphs/op")
}

// BenchmarkFig9CollectiveCheck: MTraceCheck's collective re-sorting checker
// on the same graphs — the headline 81% computation reduction.
func BenchmarkFig9CollectiveCheck(b *testing.B) {
	f := buildFixture(b, benchCfg, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runBackend("collective", f.builder, f.items)
		if err != nil || len(res.Violations) != 0 {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(f.items)), "graphs/op")
}

// BenchmarkFig14WindowStats exercises the checker while collecting the
// Fig. 14 breakdown counters.
func BenchmarkFig14WindowStats(b *testing.B) {
	f := buildFixture(b, benchCfg, 1000)
	b.ResetTimer()
	var affected int64
	for i := 0; i < b.N; i++ {
		res, err := runBackend("collective", f.builder, f.items)
		if err != nil {
			b.Fatal(err)
		}
		for _, gs := range res.PerGraph {
			affected += int64(gs.Affected)
		}
	}
	_ = affected
}

// BenchmarkFig8UniqueInterleavings: one simulated platform iteration plus
// signature collection — the production rate of Fig. 8's data.
func BenchmarkFig8UniqueInterleavings(b *testing.B) {
	p, err := testgen.Generate(benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	plat := sim.PlatformX86()
	meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := sim.NewRunner(plat, p, 1)
	if err != nil {
		b.Fatal(err)
	}
	set := sig.NewSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := runner.Run()
		if err != nil {
			b.Fatal(err)
		}
		s, err := meta.EncodeValues(ex.LoadValues)
		if err != nil {
			b.Fatal(err)
		}
		set.Add(s)
	}
	b.ReportMetric(float64(set.Len())/float64(b.N), "unique/iter")
}

// BenchmarkFig10SignatureComputation: interpreting the instrumented code
// (signature branch/add chains) for one execution — the overhead component
// of Fig. 10.
func BenchmarkFig10SignatureComputation(b *testing.B) {
	f := buildFixture(b, benchCfg, 50)
	gp, err := instrument.Generate(f.meta, isa.EncodingRISC)
	if err != nil {
		b.Fatal(err)
	}
	threads := make([]*vm.Thread, len(gp.Instrumented))
	for ti := range threads {
		threads[ti] = vm.NewThread(gp.Instrumented[ti], vm.DefaultCostModel())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals := f.vals[i%len(f.vals)]
		lookup := func(id int) (uint32, error) { return vals[id], nil }
		for _, th := range threads {
			if _, err := th.Run(lookup, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig10SignatureSorting: host-side sorting of the collected
// signatures (the third component of Fig. 10).
func BenchmarkFig10SignatureSorting(b *testing.B) {
	f := buildFixture(b, benchCfg, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sigs := make([]sig.Signature, len(f.sigs))
		copy(sigs, f.sigs)
		b.StartTimer()
		sig.Sort(sigs)
	}
}

// BenchmarkFig11InstrumentationAnalysis: the static analysis producing the
// candidate sets, weights, and signature layout behind Fig. 11's
// intrusiveness numbers.
func BenchmarkFig11InstrumentationAnalysis(b *testing.B) {
	p, err := testgen.Generate(TestConfig{Threads: 7, OpsPerThread: 200, Words: 64, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := instrument.Analyze(p, 32, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12CodeGeneration: emitting the instrumented and baseline code
// variants measured in Fig. 12.
func BenchmarkFig12CodeGeneration(b *testing.B) {
	p, err := testgen.Generate(TestConfig{Threads: 7, OpsPerThread: 200, Words: 64, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	meta, err := instrument.Analyze(p, 32, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gp, err := instrument.Generate(meta, isa.EncodingRISC)
		if err != nil {
			b.Fatal(err)
		}
		if o, n, _ := gp.CodeSizes(); n <= o {
			b.Fatal("instrumented not larger")
		}
	}
}

// BenchmarkAlg1SignatureDecode: the paper's Algorithm 1 — reconstructing
// reads-from relations from a signature.
func BenchmarkAlg1SignatureDecode(b *testing.B) {
	f := buildFixture(b, benchCfg, 200)
	rf := make([]int32, f.prog.NumOps())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.meta.DecodeInto(f.sigs[i%len(f.sigs)], rf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6KMedoids: the k-medoids limit study kernel.
func BenchmarkFig6KMedoids(b *testing.B) {
	p, err := testgen.Generate(TestConfig{Threads: 2, OpsPerThread: 50, Words: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	seen := map[string]bool{}
	var pts []cluster.Point
	for i := 0; i < 400; i++ {
		rf := oracle.Walk(p, rng.Intn).RF
		if key := fmt.Sprint(rf); !seen[key] {
			seen[key] = true
			pt := cluster.Point{} // non-load entries are -1 in every point: no distance
			for id, src := range rf {
				pt[id] = int(src)
			}
			pts = append(pts, pt)
		}
	}
	dist := cluster.DistanceMatrix(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMedoids(dist, 10, rng, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3BugDetection: one buggy-platform iteration with signature
// collection — the detection loop of the §7 case studies.
func BenchmarkTable3BugDetection(b *testing.B) {
	tc := TestConfig{Threads: 4, OpsPerThread: 50, Words: 8, WordsPerLine: 4, Seed: 1}
	p, err := testgen.Generate(tc)
	if err != nil {
		b.Fatal(err)
	}
	plat := sim.PlatformGem5(mem.Bugs{StaleSMInv: true}, sim.Bugs{})
	meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := sim.NewRunner(plat, p, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := runner.Run()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := meta.EncodeValues(ex.LoadValues); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunProgramWorkers1 / Workers4: serial vs sharded end-to-end
// pipeline (execute / decode / check) on the paper-scale
// 4-thread/50-ops/2048-iteration config. Results are identical for every
// worker count (shards skip ahead within one seed stream), so the only
// difference is wall clock; on a multi-core host Workers=4 approaches a 4×
// speedup of the embarrassingly parallel execution stage, while on a
// single-core host the two measure the same work plus negligible shard
// bookkeeping.
func BenchmarkRunProgramWorkers1(b *testing.B) { benchRunProgramWorkers(b, 1) }

func BenchmarkRunProgramWorkers4(b *testing.B) { benchRunProgramWorkers(b, 4) }

func benchRunProgramWorkers(b *testing.B, workers int) {
	b.Helper()
	p, err := testgen.Generate(TestConfig{Threads: 4, OpsPerThread: 50, Words: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := RunProgram(p, Options{
			Platform:   sim.PlatformX86(),
			Iterations: 2048,
			Seed:       1,
			Workers:    workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if report.Failed() {
			b.Fatal("clean platform reported violations")
		}
		b.ReportMetric(float64(report.UniqueSignatures), "uniques/op")
	}
}

// BenchmarkCampaignColdCorpus / WarmCorpus: the signature-corpus pair.
// Cold runs the full end-to-end campaign against an empty corpus (all
// uniques decoded, checked, and appended); warm reruns the identical
// campaign against the corpus the setup grew, so every unique skips
// decode+check as a hit. The gap between the two is the cross-campaign
// memoization payoff on repeat interleavings.
func BenchmarkCampaignColdCorpus(b *testing.B) { benchCampaignCorpus(b, false) }

func BenchmarkCampaignWarmCorpus(b *testing.B) { benchCampaignCorpus(b, true) }

func benchCampaignCorpus(b *testing.B, warm bool) {
	b.Helper()
	p, err := testgen.Generate(TestConfig{Threads: 4, OpsPerThread: 50, Words: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "corpus.mtc")
	opts := Options{Platform: sim.PlatformX86(), Iterations: 2048, Seed: 1}
	if warm {
		// Grow the corpus once, outside the measured region.
		store, err := OpenCorpus(path)
		if err != nil {
			b.Fatal(err)
		}
		o := opts
		o.Corpus = store
		if _, err := RunProgram(p, o); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if !warm {
			os.Remove(path) // every cold iteration starts from an empty corpus
		}
		store, err := OpenCorpus(path)
		if err != nil {
			b.Fatal(err)
		}
		o := opts
		o.Corpus = store
		b.StartTimer()
		report, err := RunProgram(p, o)
		if err != nil {
			b.Fatal(err)
		}
		if report.Failed() {
			b.Fatal("clean platform reported violations")
		}
		if warm && report.CorpusHits != report.UniqueSignatures {
			b.Fatalf("warm run only hit %d of %d uniques", report.CorpusHits, report.UniqueSignatures)
		}
		b.ReportMetric(float64(report.CorpusHits), "hits/op")
	}
}

// BenchmarkSimIterationARM / X86: raw platform iteration throughput — the
// "tests execution" stage of Fig. 1 — with the derived units that say whether
// a change did less work (events/iter) or the same work cheaper (ns/event,
// ns/simcycle).
func BenchmarkSimIterationARM(b *testing.B) { benchSim(b, benchCfg, sim.PlatformARM()) }

// BenchmarkSimIterationX86 measures the TSO platform.
func BenchmarkSimIterationX86(b *testing.B) { benchSim(b, benchCfg, sim.PlatformX86()) }

// BenchmarkSimWorkload times one iteration of each campaign workload's
// program (bench/mtbench's campaign-x86, campaign-x86-contended and
// campaign-arm-par, testgen seed 1) on its platform: the simulator share of
// what the repository's benchmark measures. SimIteration's 4×50×32 program
// is not one of them, and a change can move the two by different amounts.
func BenchmarkSimWorkload(b *testing.B) {
	for _, w := range []struct {
		name string
		cfg  TestConfig
		plat sim.Platform
	}{
		{"campaign-x86", TestConfig{Threads: 4, OpsPerThread: 50, Words: 64, Seed: 1}, sim.PlatformX86()},
		{"campaign-x86-contended", TestConfig{Threads: 4, OpsPerThread: 50, Words: 8, WordsPerLine: 4, Seed: 1}, sim.PlatformX86()},
		{"campaign-arm-par", TestConfig{Threads: 7, OpsPerThread: 200, Words: 64, Seed: 1}, sim.PlatformARM()},
	} {
		b.Run(w.name, func(b *testing.B) { benchSim(b, w.cfg, w.plat) })
	}
}

func benchSim(b *testing.B, cfg TestConfig, plat sim.Platform) {
	b.Helper()
	p, err := testgen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := sim.NewRunner(plat, p, 1)
	if err != nil {
		b.Fatal(err)
	}
	var events, cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := runner.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += int64(ex.Events)
		cycles += int64(ex.Cycles)
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(float64(events)/float64(b.N), "events/iter")
	b.ReportMetric(ns/float64(events), "ns/event")
	b.ReportMetric(ns/float64(cycles), "ns/simcycle")
}

// simFixture collects real simulated executions (unlike buildFixture's
// uniform-random SC reference, which is the adversarial maximally-diverse
// case): real platform timing clusters executions, which is the regime the
// collective checker exploits.
func simFixture(b *testing.B, tc TestConfig, plat sim.Platform, iters int) *fixture {
	b.Helper()
	p, err := testgen.Generate(tc)
	if err != nil {
		b.Fatal(err)
	}
	meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
	if err != nil {
		b.Fatal(err)
	}
	builder := graph.NewBuilder(p, plat.Model, graph.Options{
		Forwarding: true, WS: graph.WSStatic,
	})
	runner, err := sim.NewRunner(plat, p, 3)
	if err != nil {
		b.Fatal(err)
	}
	type raw struct {
		s     sig.Signature
		edges []graph.Edge
	}
	byKey := map[string]raw{}
	f := &fixture{prog: p, meta: meta, builder: builder}
	rf := make([]int32, p.NumOps())
	for i := 0; i < iters; i++ {
		ex, err := runner.Run()
		if err != nil {
			b.Fatal(err)
		}
		s, err := meta.EncodeValues(ex.LoadValues)
		if err != nil {
			b.Fatal(err)
		}
		if _, seen := byKey[s.Key()]; seen {
			continue
		}
		if err := meta.DecodeInto(s, rf); err != nil {
			b.Fatal(err)
		}
		edges, err := builder.AppendDynamicEdges(nil, rf, nil)
		if err != nil {
			b.Fatal(err)
		}
		byKey[s.Key()] = raw{s: s, edges: edges}
	}
	uniq := make([]sig.Signature, 0, len(byKey))
	for _, r := range byKey {
		uniq = append(uniq, r.s)
	}
	sig.Sort(uniq)
	for _, s := range uniq {
		f.items = append(f.items, check.Item{Sig: s, Edges: byKey[s.Key()].edges})
	}
	return f
}

// BenchmarkFig9ConventionalCheckSimData / CollectiveCheckSimData: the Fig. 9
// comparison on realistic (platform-clustered) execution sets, where the
// similarity assumption holds — the representative regime.
func BenchmarkFig9ConventionalCheckSimData(b *testing.B) {
	f := simFixture(b, TestConfig{Threads: 4, OpsPerThread: 50, Words: 64, Seed: 1},
		sim.PlatformX86(), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBackend("conventional", f.builder, f.items)
	}
	b.ReportMetric(float64(len(f.items)), "graphs/op")
}

func BenchmarkFig9CollectiveCheckSimData(b *testing.B) {
	f := simFixture(b, TestConfig{Threads: 4, OpsPerThread: 50, Words: 64, Seed: 1},
		sim.PlatformX86(), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runBackend("collective", f.builder, f.items); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(f.items)), "graphs/op")
}

// BenchmarkAblationObservedWSCheck: collective checking with observed-ws
// graphs (larger diffs than the static default).
func BenchmarkAblationObservedWSCheck(b *testing.B) {
	p, err := testgen.Generate(benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		b.Fatal(err)
	}
	builder := graph.NewBuilder(p, sim.PlatformX86().Model, graph.Options{
		Forwarding: true, WS: graph.WSObserved,
	})
	rng := rand.New(rand.NewSource(1))
	type raw struct {
		s     sig.Signature
		edges []graph.Edge
	}
	byKey := map[string]raw{}
	for i := 0; i < 1000; i++ {
		e := oracle.Walk(p, rng.Intn)
		s, err := meta.EncodeValues(e.Values)
		if err != nil {
			b.Fatal(err)
		}
		ws := graph.WS{}
		for w, stores := range e.WS {
			ws[w] = stores
		}
		edges, err := builder.AppendDynamicEdges(nil, e.RF, ws)
		if err != nil {
			b.Fatal(err)
		}
		byKey[s.Key()] = raw{s: s, edges: edges}
	}
	uniq := make([]sig.Signature, 0, len(byKey))
	for _, r := range byKey {
		uniq = append(uniq, r.s)
	}
	sig.Sort(uniq)
	items := make([]check.Item, 0, len(uniq))
	for _, s := range uniq {
		items = append(items, check.Item{Sig: s, Edges: byKey[s.Key()].edges})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runBackend("collective", builder, items); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPrunedAnalysis: §8 static pruning cost/benefit at
// analysis time.
func BenchmarkAblationPrunedAnalysis(b *testing.B) {
	p, err := testgen.Generate(TestConfig{Threads: 7, OpsPerThread: 200, Words: 64, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	pruner := instrument.SkewPruner(p, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := instrument.Analyze(p, 32, pruner); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPKIncrementalCheck: the Pearce–Kelly extension on the adversarial
// high-diversity fixture.
func BenchmarkPKIncrementalCheck(b *testing.B) {
	f := buildFixture(b, benchCfg, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runBackend("incremental", f.builder, f.items); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(f.items)), "graphs/op")
}

// BenchmarkPKIncrementalCheckSimData: the same on realistic platform data.
func BenchmarkPKIncrementalCheckSimData(b *testing.B) {
	f := simFixture(b, TestConfig{Threads: 4, OpsPerThread: 50, Words: 64, Seed: 1},
		sim.PlatformX86(), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runBackend("incremental", f.builder, f.items); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(f.items)), "graphs/op")
}

// BenchmarkVectorClockCheck: the TSOtool-style vector-clock closure on the
// adversarial high-diversity fixture — same graphs as the Fig. 9 sorting
// benchmarks, so the race against collective/conventional falls out of one
// bench run.
func BenchmarkVectorClockCheck(b *testing.B) {
	f := buildFixture(b, benchCfg, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runBackend("vectorclock", f.builder, f.items)
		if err != nil || len(res.Violations) != 0 {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(f.items)), "graphs/op")
}

// BenchmarkVectorClockCheckSimData: the same on realistic platform data.
func BenchmarkVectorClockCheckSimData(b *testing.B) {
	f := simFixture(b, TestConfig{Threads: 4, OpsPerThread: 50, Words: 64, Seed: 1},
		sim.PlatformX86(), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runBackend("vectorclock", f.builder, f.items); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(f.items)), "graphs/op")
}

// BenchmarkNewBuilderX86 / ARM: the static half of a constraint graph — the
// per-call fixed cost of a trace check (one builder per trace) and a
// campaign's one-off set-up — on the reference TSO configuration and on the
// paper's largest RMO one.
func BenchmarkNewBuilderX86(b *testing.B) {
	benchNewBuilder(b, TestConfig{Threads: 4, OpsPerThread: 50, Words: 64, Seed: 1}, sim.PlatformX86())
}

func BenchmarkNewBuilderARM(b *testing.B) {
	benchNewBuilder(b, TestConfig{Threads: 7, OpsPerThread: 200, Words: 64, Seed: 1}, sim.PlatformARM())
}

func benchNewBuilder(b *testing.B, tc TestConfig, plat sim.Platform) {
	b.Helper()
	p, err := testgen.Generate(tc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	edges := 0
	for i := 0; i < b.N; i++ {
		edges = graph.NewBuilder(p, plat.Model, graph.Options{Forwarding: true, WS: graph.WSStatic}).StaticEdgeCount()
	}
	b.ReportMetric(float64(edges), "edges")
}

// traceProgram is the reference 4×50 program over 64 words (testgen seed 1) and
// a runner for it on the x86 platform: the trace-check workload's source of
// executions.
func traceProgram(tb testing.TB) (*Program, *sim.Runner) {
	tb.Helper()
	p, err := testgen.Generate(TestConfig{Threads: 4, OpsPerThread: 50, Words: 64, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	runner, err := sim.NewRunner(sim.PlatformX86(), p, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return p, runner
}

// renderExecution renders one execution of p in the external-trace text
// format: per-thread program order, stores with their unique values, loads with
// the value observed.
func renderExecution(tb testing.TB, p *Program, loadValues []uint32) []byte {
	tb.Helper()
	tr := &ExecTrace{}
	for ti, th := range p.Threads {
		for _, op := range th.Ops {
			top := TraceOp{Thread: uint16(ti), Kind: trace.Fence}
			switch op.Kind {
			case prog.Store:
				top = TraceOp{Thread: uint16(ti), Kind: trace.Store, Addr: p.Layout.AddrOf(op.Word), Value: uint64(op.Value)}
			case prog.Load:
				top = TraceOp{Thread: uint16(ti), Kind: trace.Load, Addr: p.Layout.AddrOf(op.Word), Value: uint64(loadValues[op.ID])}
			}
			tr.Ops = append(tr.Ops, top)
		}
	}
	var buf bytes.Buffer
	if err := FormatTrace(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// renderedTrace runs the reference program once and renders the execution.
func renderedTrace(tb testing.TB) []byte {
	tb.Helper()
	p, runner := traceProgram(tb)
	ex, err := runner.Run()
	if err != nil {
		tb.Fatal(err)
	}
	return renderExecution(tb, p, ex.LoadValues)
}

// otherShape renders the same execution as issued by threads 1..4 instead of
// 0..3: as long, as costly to check, and of a different shape.
func otherShape(tb testing.TB, text []byte) []byte {
	tb.Helper()
	tr, err := ParseTrace(bytes.NewReader(text))
	if err != nil {
		tb.Fatal(err)
	}
	for i := range tr.Ops {
		tr.Ops[i].Thread++
	}
	var buf bytes.Buffer
	if err := FormatTrace(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// parseAndCheck is one op of the trace benchmarks and of the trace-check
// workload: one rendered execution parsed and checked under TSO.
func parseAndCheck(tb testing.TB, text []byte) *Report {
	tr, err := ParseTrace(bytes.NewReader(text))
	if err != nil {
		tb.Fatal(err)
	}
	report, _, err := CheckTraceContext(context.Background(), tr, "tso", Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return report
}

// BenchmarkCheckTrace: the external-trace front door end to end — parse,
// resolve against the kept shape, and the collective check on the kept builder
// and workspace — on one rendered 200-op TSO execution over and over.
func BenchmarkCheckTrace(b *testing.B) {
	text := renderedTrace(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if parseAndCheck(b, text).Failed() {
			b.Fatal("clean trace failed")
		}
	}
}

// BenchmarkCheckTraceShapeMiss: the same with nothing to reuse — two shapes
// take turns, so every check validates, binds and builds a graph builder and a
// workspace from scratch, and pays for the shape's key besides. This is what
// BenchmarkCheckTrace measured before shapes were kept.
func BenchmarkCheckTraceShapeMiss(b *testing.B) {
	texts := [2][]byte{renderedTrace(b)}
	texts[1] = otherShape(b, texts[0])
	b.ReportAllocs()
	b.SetBytes(int64(len(texts[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if parseAndCheck(b, texts[i%2]).Failed() {
			b.Fatal("clean trace failed")
		}
	}
}

// BenchmarkCheckTraceWorkload mirrors one rep of the mtbench trace-check
// workload: 1,024 simulated executions of the reference program rendered as
// text, every 16th with its first load rewritten to a value no store wrote,
// parsed and checked one by one (`make trace-profile` shows where the time
// goes).
func BenchmarkCheckTraceWorkload(b *testing.B) {
	texts := traceWorkload.get(struct{}{}, func() [][]byte {
		p, runner := traceProgram(b)
		seeds := sim.NewSeedStream(1)
		texts := make([][]byte, 1024)
		for i := range texts {
			ex, err := runner.RunSeeded(seeds.Next())
			if err != nil {
				b.Fatal(err)
			}
			values := ex.LoadValues
			if i%16 == 15 {
				values = slices.Clone(values)
				for _, op := range p.Threads[0].Ops {
					if op.Kind == prog.Load {
						values[op.ID] = uint32(p.NumOps() + 1000) // store values are op ID + 1
						break
					}
				}
			}
			texts[i] = renderExecution(b, p, values)
		}
		return texts
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, text := range texts {
			if failed := parseAndCheck(b, text).Failed(); failed != (j%16 == 15) {
				b.Fatalf("trace %d: failed = %v", j, failed)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(texts)), "ns/trace")
}

// memo keeps set-up that a benchmark's b.N probes, each of which runs the
// benchmark function again, would otherwise redo: one value per key per
// process, so a CPU profile sees the timed reps and the set-up once.
type memo[K comparable, V any] struct {
	mu   sync.Mutex
	vals map[K]V
}

// get returns key's value, made by build on the first call for it. A build
// that stops its test (tb.Fatal) stores nothing.
func (m *memo[K, V]) get(key K, build func() V) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.vals[key]; ok {
		return v
	}
	v := build()
	if m.vals == nil {
		m.vals = map[K]V{}
	}
	m.vals[key] = v
	return v
}

var traceWorkload memo[struct{}, [][]byte]

// storedSet is what offlineSet returns.
type storedSet struct {
	p       *Program
	opts    Options
	file    []byte
	uniques int
}

type storedSetKey struct {
	cfg        TestConfig
	platform   string // the whole Platform, printed: it holds slices
	iterations int
}

var storedSets memo[storedSetKey, storedSet]

// offlineSet collects cfg's signature set on plat and stores it the way
// SaveSignatures does, once per process for each cfg, platform and iteration
// count; callers only read what it returns. The contended 4×50×8 program on
// x86 is the mtbench offline-check workload's input.
func offlineSet(tb testing.TB, cfg TestConfig, plat Platform, iterations int) (p *Program, opts Options, file []byte, uniques int) {
	tb.Helper()
	set := storedSets.get(storedSetKey{cfg, fmt.Sprintf("%+v", plat), iterations}, func() storedSet {
		p, err := testgen.Generate(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		opts := Options{Platform: plat, Iterations: iterations, Seed: 1, Workers: 1}
		set, err := CollectSignatures(p, opts)
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		id := &Report{Program: p, Seed: opts.Seed, Platform: opts.Platform.Name}
		if err := SaveSignatures(&buf, id, set); err != nil {
			tb.Fatal(err)
		}
		return storedSet{p, opts, buf.Bytes(), len(set)}
	})
	return set.p, set.opts, set.file, set.uniques
}

// offlineCheck is one rep of the offline-check workload: load the stored
// set, validate its provenance, and check it on a fresh campaign.
func offlineCheck(tb testing.TB, p *Program, opts Options, file []byte) *Report {
	uniques, meta, err := LoadSignaturesMeta(bytes.NewReader(file))
	if err != nil {
		tb.Fatal(err)
	}
	if err := ValidateSignatureMeta(meta, p, opts); err != nil {
		tb.Fatal(err)
	}
	c, err := NewCampaign(p, opts)
	if err != nil {
		tb.Fatal(err)
	}
	report, err := c.Check(context.Background(), uniques)
	if err != nil || report.Failed() {
		tb.Fatalf("clean set: err %v, report %v", err, report)
	}
	return report
}

// contended is the mtbench offline-check workload's program.
var contended = TestConfig{Threads: 4, OpsPerThread: 50, Words: 8, WordsPerLine: 4, Seed: 1}

// BenchmarkOfflineCheck: the paper's post-silicon regime, mirroring the
// mtbench offline-check rep — a stored 4,096-iteration signature set is
// loaded, validated and checked with no simulator time (`make
// offline-profile` shows where it goes).
func BenchmarkOfflineCheck(b *testing.B) {
	benchOfflineCheck(b, contended, PlatformX86(), 4096)
}

// BenchmarkOfflineCheckARM is the same rep on the paper's largest
// configuration, ARM RMO 7×200 ops over 64 words, at 256 iterations, every one
// unique: the large-graph regime, 1,400-vertex graphs of which adjacent ones
// differ in 38 % of their loads' sources.
func BenchmarkOfflineCheckARM(b *testing.B) {
	const iterations = 256
	uniques := benchOfflineCheck(b, TestConfig{Threads: 7, OpsPerThread: 200, Words: 64, Seed: 1}, PlatformARM(), iterations)
	if uniques != iterations {
		b.Fatalf("%d uniques of %d iterations", uniques, iterations)
	}
}

func benchOfflineCheck(b *testing.B, cfg TestConfig, plat Platform, iterations int) (uniques int) {
	p, opts, file, uniques := offlineSet(b, cfg, plat, iterations)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offlineCheck(b, p, opts, file)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*uniques), "ns/unique")
	return uniques
}
