package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	mtc "mtracecheck"
	"mtracecheck/internal/check"
	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/mem"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
	"mtracecheck/internal/testgen"
)

// The traced pass replays a workload's pipeline layer by layer through the
// layers' public functions, recording a span around every call, and derives
// the per-layer metrics from the spans' self times and the layers' own
// counts. It runs after (and never during) the untraced pass, so the
// end-to-end numbers carry no tracing cost; the difference between a traced
// and an untraced rep is reported as campaign.tracing_overhead_frac.

// traced is one workload's traced pass.
type traced struct {
	w   *workload
	cfg *config
	in  *instance
	rec *recorder
	out *results
	ctx context.Context

	plain      []sample      // every untraced rep: the untraced pass's, then reps' own
	calib      *calibration  // the untraced pass's host calibration, continued by reps
	rp         *replay       // the last replay, for the sections after replays
	wholeWall  time.Duration // the last bracket's mean: what the replay is compared with
	oneVerdict verdict       // the observed Workers: 1 campaign run's report
	attempted  int
	failed     int
	notes      []string // determinism and gate failures, for the report
}

// fail records a failed correctness check: the traced pass's ops all fail,
// so a number measured on a different program is never reported as good.
func (t *traced) fail(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// span runs f inside a span and returns the span's duration.
func (t *traced) span(name string, parent int, f func() error) (time.Duration, error) {
	id := t.rec.begin(name, parent)
	err := f()
	return t.rec.end(id), err
}

// runTraced makes the traced pass over a set-up instance; u is the untraced
// pass made on it.
func runTraced(ctx context.Context, in *instance, u *untraced, out *results) (*traced, error) {
	t := &traced{
		w: in.w, cfg: in.cfg, in: in, out: out, ctx: ctx,
		rec: newRecorder(in.w.Name), plain: u.samples, calib: &u.calib,
	}
	root := t.rec.begin("traced", -1)
	steps := []func(root int) error{
		t.construction, t.reps, t.replays, t.campaignAPI, t.micro, t.backends,
	}
	for _, step := range steps {
		if err := step(root); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", in.w.Name, err)
		}
	}
	t.rec.end(root)

	var walls []float64 // the untraced reps' wall times
	gcs := 0.0
	for _, s := range t.plain {
		walls = append(walls, s.wall.Seconds())
		gcs += float64(s.gcCycles)
	}
	s := summarize(walls)
	out.put("harness.ref_kernel_ms", durations(t.calib.samples, ms)...)
	out.put("harness.rep_spread", ratio(s.P75-s.P25, s.Median))
	out.put("harness.reps", float64(len(walls)))
	out.put("harness.workers", float64(t.cfg.workers))
	out.put("harness.gc_cycles_per_rep", gcs/float64(len(walls)))

	if len(t.notes) > 0 {
		t.failed = t.attempted
	}
	return t, t.rec.writeTrace(filepath.Join(t.cfg.outDir, t.w.Name+".trace.json"))
}

// construction times the objects a campaign builds before its first
// iteration, five times each on fresh values.
func (t *traced) construction(root int) error {
	const n = 5
	p, plat := t.in.prog, t.in.opts.Platform
	model := plat.Model
	steps := []struct {
		metric string
		span   string
		conv   func(time.Duration) float64
		f      func() error
	}{
		{"testgen.generate_ms", "testgen.generate", ms, func() error {
			_, err := testgen.Generate(t.w.program)
			return err
		}},
		{"instrument.analyze_ms", "instrument.analyze", ms, func() error {
			_, err := instrument.Analyze(p, plat.RegWidthBits, nil)
			return err
		}},
		{"sim.runner_setup_ms", "sim.new_runner", ms, func() error {
			_, err := sim.NewRunner(plat, p, t.cfg.seed)
			return err
		}},
		{"graph.builder_setup_us", "graph.new_builder", us, func() error {
			graph.NewBuilder(p, model, graph.Options{Forwarding: plat.Atomicity.AllowsForwarding(), WS: graph.WSStatic})
			return nil
		}},
		{"campaign.new_campaign_us", "campaign.new", us, func() error {
			_, err := mtc.NewCampaign(p, t.in.opts)
			return err
		}},
	}
	parent := t.rec.begin("construction", root)
	for _, s := range steps {
		var ds []time.Duration
		for i := 0; i < n; i++ {
			d, err := t.span(s.span, parent, s.f)
			if err != nil {
				return err
			}
			ds = append(ds, d)
		}
		t.out.put(s.metric, durations(ds, s.conv)...)
	}
	t.rec.end(parent)
	return nil
}

// replay is what the layer-by-layer replay of a campaign leaves behind for
// the later sections.
type replay struct {
	root    int // the "replay" span
	builder *graph.Builder
	chunks  []*sig.Set   // per-chunk signature sets, as a campaign's workers build them
	sorted  []sig.Unique // the merged, sorted unique set
	items   []check.Item // decoded, in sorted order
	values  []uint32     // every iteration's load values, numOps apiece
	numOps  int

	simTimes  []time.Duration // every RunSeeded
	simTime   time.Duration   // their sum
	cycles    int64
	memops    int64
	squashes  int
	mem       mem.Stats
	edgeTotal int
	result    *check.Result // the collective check's
}

func (r *replay) loadValues(iter int) []uint32 {
	return r.values[iter*r.numOps : (iter+1)*r.numOps]
}

// layers replays the campaign stage by stage — sim, encode, set insertion,
// merge, decode, edge building, sort, check — in the campaign's own chunk
// grid, on one goroutine.
func (t *traced) layers(root int) (*replay, error) {
	p, opts := t.in.prog, t.in.opts
	plat := opts.Platform
	n := opts.Iterations
	rec := t.rec
	meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
	if err != nil {
		return nil, err
	}
	backend, err := check.ForName("collective")
	if err != nil {
		return nil, err
	}
	rp := &replay{numOps: p.NumOps(), simTimes: make([]time.Duration, 0, n)}
	rp.values = make([]uint32, n*rp.numOps)
	width := meta.TotalWords()
	words := make([]uint64, mtc.ChunkSize*width)
	rfs := make([]int32, mtc.ChunkSize*rp.numOps)

	rp.root = rec.begin("replay", root)
	var runner *sim.Runner
	if _, err := t.span("sim.new_runner", rp.root, func() (err error) {
		runner, err = sim.NewRunner(plat, p, opts.Seed)
		return err
	}); err != nil {
		return nil, err
	}
	t.span("graph.new_builder", rp.root, func() error {
		rp.builder = graph.NewBuilder(p, plat.Model, graph.Options{
			Forwarding: plat.Atomicity.AllowsForwarding(), WS: graph.WSStatic,
		})
		return nil
	})

	seeds := sim.NewSeedStream(opts.Seed)
	acc := sig.NewSet()
	edgesOf := make(map[string][]graph.Edge)
	var fresh []sig.Signature
	var keyBuf []byte
	for start := 0; start < n; start += mtc.ChunkSize {
		count := min(mtc.ChunkSize, n-start)
		chunk := rec.begin("replay.chunk", rp.root)
		for i := start; i < start+count; i++ {
			seed := seeds.Next()
			id := rec.begin("sim.run", chunk)
			ex, err := runner.RunSeeded(seed)
			d := rec.end(id)
			if err != nil {
				return nil, err
			}
			rp.simTimes = append(rp.simTimes, d)
			rp.simTime += d
			rp.cycles += int64(ex.Cycles)
			rp.squashes += ex.Squashes
			rp.memops += ex.MemStats.Loads + ex.MemStats.Stores
			rp.mem.Hits += ex.MemStats.Hits
			rp.mem.Misses += ex.MemStats.Misses
			rp.mem.Messages += ex.MemStats.Messages
			rp.mem.Invalidations += ex.MemStats.Invalidations
			rp.mem.Writebacks += ex.MemStats.Writebacks
			rp.mem.Stalls += ex.MemStats.Stalls
			copy(rp.loadValues(i), ex.LoadValues)
		}
		if _, err := t.span("instrument.encode", chunk, func() error {
			for i := 0; i < count; i++ {
				dst := words[i*width : i*width : (i+1)*width]
				if _, err := meta.EncodeExecutionInto(dst, rp.loadValues(start+i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		set := sig.NewSet()
		t.span("sig.add", chunk, func() error {
			for i := 0; i < count; i++ {
				set.AddWords(words[i*width : (i+1)*width])
			}
			return nil
		})
		rp.chunks = append(rp.chunks, set)
		fresh = fresh[:0]
		t.span("sig.absorb", chunk, func() error {
			for _, u := range set.Entries() {
				if acc.AddUnique(u) {
					fresh = append(fresh, u.Sig)
				}
			}
			return nil
		})
		if _, err := t.span("instrument.decode", chunk, func() error {
			for j, s := range fresh {
				if err := meta.DecodeInto(s, rfs[j*rp.numOps:(j+1)*rp.numOps]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		built := make([][]graph.Edge, len(fresh))
		if _, err := t.span("graph.edges", chunk, func() (err error) {
			for j := range fresh {
				if built[j], err = rp.builder.AppendDynamicEdges(nil, rfs[j*rp.numOps:(j+1)*rp.numOps], nil); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		for j, s := range fresh {
			keyBuf = s.AppendBinary(keyBuf[:0])
			edgesOf[string(keyBuf)] = built[j]
		}
		rec.end(chunk)
	}
	t.span("sig.sort", rp.root, func() error {
		rp.sorted = acc.Sorted()
		return nil
	})
	rp.items = make([]check.Item, len(rp.sorted))
	for i, u := range rp.sorted {
		keyBuf = u.Sig.AppendBinary(keyBuf[:0])
		rp.items[i] = check.Item{Sig: u.Sig, Edges: edgesOf[string(keyBuf)]}
		rp.edgeTotal += len(rp.items[i].Edges)
	}
	if _, err := t.span("check.collective", rp.root, func() (err error) {
		rp.result, err = backend.Check(t.ctx, rp.builder, rp.items)
		return err
	}); err != nil {
		return nil, err
	}
	rec.end(rp.root)
	return rp, nil
}

// reportLayers checks that a replay computed what the campaign computes and
// derives the layer metrics from its spans and counts.
func (t *traced) reportLayers(root int, rp *replay) error {
	if v := len(rp.result.Violations); v != 0 {
		t.fail("replay: collective check found %d violations on a clean platform", v)
	}
	// The replay is only worth timing if its signature set equals
	// Campaign.Collect's byte for byte.
	collected := t.in.uniques
	if t.w.kind != kindOffline {
		o := t.in.opts
		o.Workers = t.cfg.workers
		c, err := mtc.NewCampaign(t.in.prog, o)
		if err != nil {
			return err
		}
		if _, err := t.span("campaign.collect", root, func() (err error) {
			collected, err = c.Collect(t.ctx)
			return err
		}); err != nil {
			return err
		}
	}
	if !sameUniques(rp.sorted, collected) {
		t.fail("replay: signature set differs from Campaign.Collect's (%d vs %d uniques)", len(rp.sorted), len(collected))
	}

	self, _ := t.rec.selfTimes(rp.root)
	n := len(rp.simTimes)
	iters, uniques := float64(n), float64(len(rp.sorted))
	slices.Sort(rp.simTimes)
	t.out.put("sim.run_us_per_iter_p50", us(rp.simTimes[n/2]))
	t.out.put("sim.run_us_per_iter_p99", us(rp.simTimes[n*99/100]))
	t.out.put("sim.cycles_per_iter", float64(rp.cycles)/iters)
	t.out.put("sim.squashes_per_iter", float64(rp.squashes)/iters)
	t.out.put("sim.ns_per_cycle", ratio(ns(rp.simTime), float64(rp.cycles)))
	t.out.put("sim.ns_per_memop", ratio(ns(rp.simTime), float64(rp.memops)))
	t.out.put("mem.hits_per_iter", float64(rp.mem.Hits)/iters)
	t.out.put("mem.misses_per_iter", float64(rp.mem.Misses)/iters)
	t.out.put("mem.msgs_per_iter", float64(rp.mem.Messages)/iters)
	t.out.put("mem.invals_per_iter", float64(rp.mem.Invalidations)/iters)
	t.out.put("mem.writebacks_per_iter", float64(rp.mem.Writebacks)/iters)
	t.out.put("mem.stalls_per_iter", float64(rp.mem.Stalls)/iters)
	t.out.put("mem.ns_per_msg", ratio(ns(rp.simTime), float64(rp.mem.Messages)))
	t.out.put("instrument.encode_ns_per_iter", ns(self["instrument.encode"])/iters)
	t.out.put("instrument.decode_ns_per_unique", ns(self["instrument.decode"])/uniques)
	t.out.put("sig.uniques_per_kiter", 1000*uniques/iters)
	t.out.put("sig.sort_ns_per_unique", ns(self["sig.sort"])/uniques)
	t.out.put("graph.static_edges", float64(rp.builder.StaticEdgeCount()))
	t.out.put("graph.edges_per_graph", float64(rp.edgeTotal)/uniques)
	t.out.put("graph.edges_ns_per_unique", ns(self["graph.edges"])/uniques)
	t.out.put("check.collective_ns_per_graph", ns(self["check.collective"])/uniques)
	_, noResort, _ := rp.result.Counts()
	t.out.put("check.collective_resort_ratio", float64(rp.result.SortedVertices)/(uniques*float64(rp.numOps)))
	t.out.put("check.collective_noresort_frac", float64(noResort)/uniques)
	return nil
}

func sameUniques(a, b []sig.Unique) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Count != b[i].Count || !a[i].Sig.Equal(b[i].Sig) {
			return false
		}
	}
	return true
}

// layerSum adds up the self times of the spans under root that belong to a
// pipeline layer (not to the harness's own glue, whose names carry no layer
// the program has).
func (t *traced) layerSum(root int) time.Duration {
	self, _ := t.rec.selfTimes(root)
	var sum time.Duration
	for name, d := range self {
		switch layerOf(name) {
		case "sim", "instrument", "sig", "graph", "check", "trace":
			sum += d
		}
	}
	return sum
}

// traceReplay is what one per-trace replay leaves behind.
type traceReplay struct {
	root      int // the "trace.replay" span
	traces    int
	ops       int
	latencies []time.Duration // per trace, parse through check
}

// traceLayer replays the trace front door per trace — parse, bind, build,
// edges, check — over the workload's own traces (trace-check) or over the
// first 64 executions of rp rendered the same way (every other workload).
func (t *traced) traceLayer(root int, rp *replay) (*traceReplay, error) {
	cases := t.in.traces
	if t.w.kind != kindTrace {
		cases = make([]traceCase, min(64, t.in.opts.Iterations))
		for i := range cases {
			cases[i] = renderTrace(t.in.prog, rp.loadValues(i), i%16 == 15)
		}
	}
	backend, err := check.ForName("collective")
	if err != nil {
		return nil, err
	}
	model := t.in.opts.Platform.Model
	tr := &traceReplay{root: t.rec.begin("trace.replay", root), traces: len(cases)}
	for i := range cases {
		tc := &cases[i]
		tr.ops += tc.ops
		one := t.rec.begin("replay.trace", tr.root)
		var parsed *mtc.ExecTrace
		var bind *mtc.TraceBinding
		var builder *graph.Builder
		var edges []graph.Edge
		var res *check.Result
		steps := []struct {
			name string
			f    func() error
		}{
			{"trace.parse", func() (err error) { parsed, err = mtc.ParseTrace(bytes.NewReader(tc.text)); return }},
			{"trace.bind", func() (err error) { bind, err = parsed.Bind(); return }},
			{"graph.new_builder", func() error {
				// Forwarding as CheckTraceContext assumes it: on every
				// model weaker than SC, which both platforms' are.
				builder = graph.NewBuilder(bind.Prog, model, graph.Options{Forwarding: true, WS: graph.WSStatic})
				return nil
			}},
			{"graph.edges", func() (err error) { edges, err = builder.DynamicEdges(bind.RF, nil); return }},
			{"check.collective", func() (err error) {
				res, err = backend.Check(t.ctx, builder, []check.Item{{Sig: sig.Zero(1), Edges: edges}})
				return
			}},
		}
		for _, s := range steps {
			if _, err := t.span(s.name, one, s.f); err != nil {
				return nil, err
			}
		}
		tr.latencies = append(tr.latencies, t.rec.end(one))
		if failed := len(res.Violations) > 0 || len(bind.ValueFaults) > 0; failed != tc.wantFail {
			t.fail("trace %d: replayed verdict failed=%v, constructed %v", i, failed, tc.wantFail)
		}
	}
	t.rec.end(tr.root)
	return tr, nil
}

func (t *traced) reportTraceLayer(tr *traceReplay) {
	self, _ := t.rec.selfTimes(tr.root)
	n, ops := float64(tr.traces), float64(tr.ops)
	var total time.Duration
	for _, d := range tr.latencies {
		total += d
	}
	slices.Sort(tr.latencies)
	t.out.put("trace.ops_per_trace", ops/n)
	t.out.put("trace.parse_ns_per_op", ns(self["trace.parse"])/ops)
	t.out.put("trace.bind_ns_per_op", ns(self["trace.bind"])/ops)
	t.out.put("trace.check_us_per_trace", us(total-self["trace.parse"])/n)
	t.out.put("trace.latency_us_p50", us(tr.latencies[tr.traces/2]))
	t.out.put("trace.latency_us_p99", us(tr.latencies[tr.traces*99/100]))
}

// backends times every registered checking backend over the replayed items
// (the constraint solver on a 32-graph sample: it is the oracle, not a
// contender), checks that they agree, and checks that the pipeline still
// finds the paper's bug 1 when it is injected.
func (t *traced) backends(root int) error {
	rp := t.rp
	parent := t.rec.begin("backends", root)
	collective, err := check.ForName("collective")
	if err != nil {
		return err
	}
	agree := 1.0
	for _, name := range []string{"conventional", "incremental", "vectorclock", "constraints"} {
		be, err := check.ForName(name)
		if err != nil {
			return err
		}
		items := rp.items
		if name == "constraints" {
			items = items[:min(max(32/t.cfg.scale, 2), len(items))]
		}
		d, err := t.span("check."+name, parent, func() error {
			_, err := be.Check(t.ctx, rp.builder, items)
			return err
		})
		if err != nil {
			return err
		}
		t.out.put("check."+name+"_ns_per_graph", ns(d)/float64(len(items)))
		dis, err := check.Differential(t.ctx, collective, be, rp.builder, items)
		if err != nil {
			return err
		}
		if dis != nil {
			agree = 0
			t.fail("backends disagree: %v", dis)
		}
	}
	t.out.put("check.backends_agree", agree)

	// Bug 1 (stale S->M invalidation) on the contended program, where it
	// fires about five times per 256 iterations at every seed tried.
	bugProg, err := mtc.NewProgramBuilderFromConfig(workloadByName("campaign-x86-contended").program)
	if err != nil {
		return err
	}
	c, err := mtc.NewCampaign(bugProg, mtc.Options{
		Platform: mtc.BuggyPlatform(mtc.BugSMInv), Iterations: max(1024/t.cfg.scale, 256),
		Seed: t.cfg.seed, Workers: 1,
	})
	if err != nil {
		return err
	}
	detected := 0.0
	t.span("campaign.bug_run", parent, func() error {
		if report, err := c.Run(t.ctx); err != nil || report.Failed() {
			detected = 1
		}
		return nil
	})
	if detected == 0 {
		t.fail("bug 1 was injected and not detected")
	}
	t.out.put("check.bug_detected", detected)
	t.rec.end(parent)
	return nil
}

// stageObserver turns a campaign's events into spans under one parent and
// keeps what the campaign.* metrics need. Events arrive from worker
// goroutines, so it locks.
type stageObserver struct {
	rec    *recorder
	parent int

	mu        sync.Mutex
	busy      [5]time.Duration // by mtc.Stage
	covered   []interval       // every stage span, for the campaign's self time
	chunkExec []time.Duration
	lastExec  time.Time
	wall      time.Duration // summed over campaigns (a trace-check rep is 1024 of them)
}

type interval struct{ start, end time.Time }

func (o *stageObserver) CampaignStart(mtc.CampaignStartEvent) {}
func (o *stageObserver) ShardStart(mtc.ShardStartEvent)       {}
func (o *stageObserver) Checkpoint(mtc.CheckpointEvent)       {}

func (o *stageObserver) ShardEnd(e mtc.ShardEndEvent) {
	start := e.Time.Add(-e.Duration)
	// One lane per (stage, shard): execute shards are worker indices, decode
	// batches run on the campaign goroutine, check shards are shard indices.
	lane := 100*(int(e.Stage)+1) + e.Shard
	if e.Stage == mtc.StageDecode {
		lane = 100 * (int(e.Stage) + 1)
	}
	o.rec.add("campaign."+e.Stage.String(), o.parent, lane, start, e.Time)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.busy[e.Stage] += e.Duration
	o.covered = append(o.covered, interval{start, e.Time})
	if e.Stage == mtc.StageExecute {
		o.chunkExec = append(o.chunkExec, e.Duration)
		if e.Time.After(o.lastExec) {
			o.lastExec = e.Time
		}
	}
}

// MergeDone closes the merge stage: the campaign emits no merge shard, so
// the stage is the gap between the last execute shard and the final merge
// (the global sort at the barrier).
func (o *stageObserver) MergeDone(e mtc.MergeDoneEvent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !e.Final || o.lastExec.IsZero() || !e.Time.After(o.lastExec) {
		return
	}
	o.rec.add("campaign.merge", o.parent, 100*(int(mtc.StageMerge)+1), o.lastExec, e.Time)
	o.busy[mtc.StageMerge] += e.Time.Sub(o.lastExec)
	o.covered = append(o.covered, interval{o.lastExec, e.Time})
}

func (o *stageObserver) CampaignEnd(e mtc.CampaignEndEvent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.wall += e.Duration
}

// selfTime is the campaigns' wall time not covered by any stage span.
func (o *stageObserver) selfTime() time.Duration {
	sort.Slice(o.covered, func(a, b int) bool { return o.covered[a].start.Before(o.covered[b].start) })
	var cover time.Duration
	var edge time.Time
	for _, iv := range o.covered {
		lo := iv.start
		if edge.After(lo) {
			lo = edge
		}
		if iv.end.After(lo) {
			cover += iv.end.Sub(lo)
			edge = iv.end
		}
	}
	return o.wall - cover
}

// tracedRep is the workload's own rep with every campaign stage event
// recorded as a span under one "rep.traced" span.
func (t *traced) tracedRep(parent int) (sample, *stageObserver, error) {
	id := t.rec.begin("rep.traced", parent)
	so := &stageObserver{rec: t.rec, parent: id}
	s, err := timedRep(t.ctx, t.in, so)
	t.rec.end(id)
	t.attempted += s.res.ops
	t.failed += s.res.failed
	return s, so, err
}

// reps alternates untraced and traced reps. On this host a rep's time
// drifts by 10–25 % over a minute, so the two are only comparable when
// interleaved; the stage metrics come from the last traced rep.
func (t *traced) reps(root int) error {
	const pairs = 3
	parent := t.rec.begin("reps", root)
	defer t.rec.end(parent)
	var overheads []float64
	var so *stageObserver
	for i := 0; i < pairs; i++ {
		t.calib.sample()
		plain, err := timedRep(t.ctx, t.in, nil)
		if err != nil {
			return err
		}
		t.plain = append(t.plain, plain)
		var s sample
		if s, so, err = t.tracedRep(parent); err != nil {
			return err
		}
		overheads = append(overheads, s.wall.Seconds()/plain.wall.Seconds()-1)
	}
	t.out.put("campaign.tracing_overhead_frac", overheads...)
	t.out.put("campaign.execute_busy_s", so.busy[mtc.StageExecute].Seconds())
	t.out.put("campaign.merge_busy_s", so.busy[mtc.StageMerge].Seconds())
	t.out.put("campaign.decode_busy_s", so.busy[mtc.StageDecode].Seconds())
	t.out.put("campaign.check_busy_s", so.busy[mtc.StageCheck].Seconds())
	t.out.put("campaign.self_s", so.selfTime().Seconds())
	p50, p95 := 0.0, 0.0
	if n := len(so.chunkExec); n > 0 {
		slices.Sort(so.chunkExec)
		p50, p95 = ms(so.chunkExec[n/2]), ms(so.chunkExec[n*95/100])
	}
	t.out.put("campaign.chunk_exec_ms_p50", p50)
	t.out.put("campaign.chunk_exec_ms_p95", p95)
	return nil
}

// apiOptions are the options of the campaign of the workload's program,
// whatever the rep drives. The non-campaign workloads cap it: it is their
// program's campaign, not their rep, and several runs of it must fit the
// traced pass.
func (t *traced) apiOptions() mtc.Options {
	api := t.in.opts
	if t.w.kind != kindCampaign {
		api.Iterations = min(api.Iterations, 1024)
	}
	return api
}

// run is one Run of the workload's program's campaign, its stage events
// recorded as spans when observe is set.
func (t *traced) run(parent, workers int, observe bool) (verdict, time.Duration, error) {
	id := t.rec.begin(fmt.Sprintf("campaign.run_w%d", workers), parent)
	o := t.apiOptions()
	o.Workers = workers
	if observe {
		o.Observer = &stageObserver{rec: t.rec, parent: id}
	}
	c, err := mtc.NewCampaign(t.in.prog, o)
	if err != nil {
		return verdict{}, 0, err
	}
	report, err := c.Run(t.ctx)
	d := t.rec.end(id)
	if err != nil {
		return verdict{}, 0, err
	}
	return verdictOf(report), d, nil
}

// whole times what the replay is compared with: for a campaign, whose
// replay is serial, an observed Run at Workers: 1; for the other kinds,
// whose reps are serial already, a traced rep.
func (t *traced) whole(parent int) (time.Duration, error) {
	if t.w.kind == kindCampaign {
		v, d, err := t.run(parent, 1, true)
		t.oneVerdict = v
		return d, err
	}
	s, _, err := t.tracedRep(parent)
	return s.wall, err
}

// replays runs the two replays bracketed between two runs of the whole they
// replay, and reports how much of the whole the replayed layers add up to.
// The bracket's mean takes the host's drift out to first order; the bracket
// is repeated (up to three times, while it fits eight seconds) because a
// burst can still fall on one side of it. The layer metrics and the later
// sections use the last replay.
func (t *traced) replays(root int) error {
	var sums, simShares []float64
	var rp *replay
	var tr *traceReplay
	for began := time.Now(); len(sums) < 3 && (len(sums) == 0 || time.Since(began) < 8*time.Second); {
		before, err := t.whole(root)
		if err != nil {
			return err
		}
		if rp, err = t.layers(root); err != nil {
			return err
		}
		if tr, err = t.traceLayer(root, rp); err != nil {
			return err
		}
		after, err := t.whole(root)
		if err != nil {
			return err
		}
		t.wholeWall = (before + after) / 2
		sum, simShare := t.layerSum(rp.root), rp.simTime.Seconds()/t.wholeWall.Seconds()
		switch t.w.kind {
		case kindOffline:
			// The rep is read + NewCampaign + NewBuilder + decode + edges +
			// check; the campaign replay measured the last three on this
			// very signature set.
			self, _ := t.rec.selfTimes(rp.root)
			read, err := t.span("sig.read", root, func() error {
				_, _, err := sig.ReadSetMeta(bytes.NewReader(t.in.sigFile))
				return err
			})
			if err != nil {
				return err
			}
			sum = read + self["instrument.decode"] + self["graph.edges"] + self["check.collective"] +
				time.Duration(1e3*(t.out.value("campaign.new_campaign_us")+t.out.value("graph.builder_setup_us")))
			simShare = 0 // the simulator ran in set-up, not in the rep
		case kindTrace:
			sum, simShare = t.layerSum(tr.root), 0
		}
		sums = append(sums, sum.Seconds()/t.wholeWall.Seconds())
		simShares = append(simShares, simShare)
	}
	t.out.put("campaign.replay_sum_frac", sums...)
	t.out.put("sim.share_of_rep", simShares...)
	t.rp = rp
	t.reportTraceLayer(tr)
	return t.reportLayers(root, rp)
}

// campaignAPI measures the root package's own layer: the same campaign at 1
// and at W workers, the serial chunk-API loop the dist service is built on,
// and the cost of the built-in metrics observer.
func (t *traced) campaignAPI(root int) error {
	parent := t.rec.begin("campaign.api", root)
	defer t.rec.end(parent)

	// Workers: 1 against Workers: W, back to back (campaigns took the first
	// in the bracket just before).
	one, oneVerdict := t.wholeWall, t.oneVerdict
	if t.w.kind != kindCampaign {
		var err error
		if oneVerdict, one, err = t.run(parent, 1, true); err != nil {
			return err
		}
	}
	manyVerdict, many, err := t.run(parent, t.cfg.workers, false)
	if err != nil {
		return err
	}
	if oneVerdict != manyVerdict {
		t.fail("Workers: 1 and Workers: %d reports differ: %+v vs %+v", t.cfg.workers, oneVerdict, manyVerdict)
	}
	t.out.put("campaign.parallel_efficiency", one.Seconds()/(float64(t.cfg.workers)*many.Seconds()))

	// The chunk API driven serially: the dist path without HTTP. Its report
	// must equal Run's.
	o := t.apiOptions()
	o.Workers = 1
	c, err := mtc.NewCampaign(t.in.prog, o)
	if err != nil {
		return err
	}
	var chunked *mtc.Report
	d, err := t.span("campaign.chunk_loop", parent, func() error {
		cr, err := c.NewChunkRunner()
		if err != nil {
			return err
		}
		merger, err := c.NewChunkMerger()
		if err != nil {
			return err
		}
		for idx := 0; idx < c.NumChunks(); idx++ {
			res, err := cr.Run(t.ctx, idx)
			if err != nil {
				return err
			}
			if _, err := merger.Absorb(res); err != nil {
				return err
			}
		}
		chunked, err = merger.Report(t.ctx)
		return err
	})
	if err != nil {
		return err
	}
	if got := verdictOf(chunked); got != oneVerdict {
		t.fail("chunk-API report differs from Run's: %+v vs %+v", got, oneVerdict)
	}
	t.out.put("campaign.chunk_api_ratio", d.Seconds()/one.Seconds())

	// Built-in metrics observer against a bare run, alternated, on an
	// eighth-size campaign so that five pairs fit: the observer's events are
	// per chunk, so its share does not depend on the campaign's length.
	small := t.apiOptions()
	small.Workers = 1
	small.Iterations = max(small.Iterations/8, 8)
	var overheads []float64
	for pair := 0; pair < 5; pair++ {
		var bare, observed time.Duration
		for _, withMetrics := range []bool{pair%2 == 0, pair%2 != 0} {
			o := small
			if withMetrics {
				o.Observer = mtc.NewMetrics()
			}
			c, err := mtc.NewCampaign(t.in.prog, o)
			if err != nil {
				return err
			}
			d, err := t.span("campaign.run_small", parent, func() error {
				_, err := c.Run(t.ctx)
				return err
			})
			if err != nil {
				return err
			}
			if withMetrics {
				observed = d
			} else {
				bare = d
			}
		}
		overheads = append(overheads, observed.Seconds()/bare.Seconds()-1)
	}
	t.out.put("obs.metrics_overhead_frac", overheads...)
	return nil
}
