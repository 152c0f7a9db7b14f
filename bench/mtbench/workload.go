package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	mtc "mtracecheck"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sim"
)

// kind is what one rep of a workload drives.
type kind int

const (
	kindCampaign kind = iota // NewCampaign(...).Run: the whole pipeline
	kindOffline              // load a stored signature set and Check it: no simulator
	kindTrace                // ParseTrace + CheckTraceContext per rendered execution
)

// workload is one closed-loop load: a single caller whose next rep starts
// when the previous one returns. The test program is pinned (testgen seed
// 1): across testgen seeds the reference config's unique count ranges
// 161–826 of 2048 iterations and its allocations 2×, so a per-seed program
// would make every cross-seed comparison measure the program instead of the
// code. -seed drives the campaign seed — the platform's timing
// non-determinism, which is what the paper samples — and every rep of a run
// repeats the identical campaign, so simulated statistics repeat exactly.
type workload struct {
	Name     string
	Why      string
	Op       string // what the workload's user counts
	kind     kind
	platform func() mtc.Platform
	program  mtc.TestConfig
	// iterations simulated: the campaign's size, the collected set's size
	// (offline) or the number of rendered traces (trace).
	iterations int
	parallel   bool // run with Workers: W instead of 1
}

const programSeed = 1

var workloads = []workload{
	{
		Name: "campaign-x86", Op: "iteration", kind: kindCampaign,
		Why:        "ROADMAP's reference campaign (x86-TSO, 4x50 ops, 64 words, 2048 iterations): simulator-bound, so sim work shows here and checker/corpus work must not",
		platform:   mtc.PlatformX86,
		program:    mtc.TestConfig{Threads: 4, OpsPerThread: 50, Words: 64, Seed: programSeed},
		iterations: 2048,
	},
	{
		Name: "campaign-x86-contended", Op: "iteration", kind: kindCampaign,
		Why:        "same engine on 8 words in 2 lines: line ping-pong and ~100 squashes/iteration, nearly every iteration unique, so the sig.Set miss path, decode and check all run",
		platform:   mtc.PlatformX86,
		program:    mtc.TestConfig{Threads: 4, OpsPerThread: 50, Words: 8, WordsPerLine: 4, Seed: programSeed},
		iterations: 2048,
	},
	{
		Name: "campaign-arm-par", Op: "iteration", kind: kindCampaign,
		Why:        "the paper's largest config (ARM RMO, 7x200 ops) on W workers: 1400-vertex graphs, nothing for the collective checker to reuse, the only workload with work stealing and the reorder buffer",
		platform:   mtc.PlatformARM,
		program:    mtc.TestConfig{Threads: 7, OpsPerThread: 200, Words: 64, Seed: programSeed},
		iterations: 512, parallel: true,
	},
	{
		Name: "offline-check", Op: "unique signature", kind: kindOffline,
		Why:        "the paper's post-silicon regime: a stored signature set is loaded, validated and checked with zero simulator time, so graph, checker-backend and corpus work shows here only",
		platform:   mtc.PlatformX86,
		program:    mtc.TestConfig{Threads: 4, OpsPerThread: 50, Words: 8, WordsPerLine: 4, Seed: programSeed},
		iterations: 4096,
	},
	{
		Name: "trace-check", Op: "trace", kind: kindTrace,
		Why:        "many tiny campaigns: 1024 Axe-style traces parsed and checked one by one, so per-call fixed cost (one graph builder per trace) dominates",
		platform:   mtc.PlatformX86,
		program:    mtc.TestConfig{Threads: 4, OpsPerThread: 50, Words: 64, Seed: programSeed},
		iterations: 1024,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// config is one harness invocation's settings.
type config struct {
	seed    int64
	seconds float64 // untraced measuring time per workload
	workers int     // W
	minReps int
	setups  int
	outDir  string
	// scale divides every workload's iteration count (the -smoke
	// configuration uses it; results at scale > 1 are not comparable).
	scale int
}

func (c *config) iterations(w *workload) int { return max(w.iterations/c.scale, 8) }

func (c *config) options(w *workload) mtc.Options {
	workers := 1
	if w.parallel {
		workers = c.workers
	}
	return mtc.Options{Platform: w.platform(), Iterations: c.iterations(w), Seed: c.seed, Workers: workers}
}

// verdict is what a rep must reproduce: the first (warm-up) rep's simulated
// statistics. A rep that differs ran a different program and fails all its
// ops rather than contributing a number.
type verdict struct {
	failed     bool
	iterations int
	uniques    int
	cycles     int64
	squashes   int
}

func verdictOf(r *mtc.Report) verdict {
	return verdict{
		failed: r.Failed(), iterations: r.Iterations, uniques: r.UniqueSignatures,
		cycles: r.TotalCycles, squashes: r.Squashes,
	}
}

// traceCase is one rendered execution and its constructed verdict.
type traceCase struct {
	text     []byte
	ops      int
	wantFail bool
}

// instance is one set-up of a workload, ready to rep.
type instance struct {
	w    *workload
	cfg  *config
	prog *mtc.Program
	opts mtc.Options
	camp *mtc.Campaign // campaign kinds: the campaign every rep runs

	sigFile []byte       // offline: the stored set, as SaveSignatures wrote it
	uniques []mtc.Unique // offline: what Collect returned (the stored set's content)

	traces   []traceCase // trace
	distinct int         // trace: distinct rendered executions

	want verdict
}

// repResult counts one rep's ops.
type repResult struct {
	ops     int
	failed  int
	uniques int
}

// setup builds everything a rep needs, on fresh objects, and runs one
// untimed warm-up rep whose verdict later reps must reproduce.
func (w *workload) setup(ctx context.Context, cfg *config) (*instance, error) {
	p, err := mtc.NewProgramBuilderFromConfig(w.program)
	if err != nil {
		return nil, err
	}
	in := &instance{w: w, cfg: cfg, prog: p, opts: cfg.options(w)}
	switch w.kind {
	case kindCampaign:
		if in.camp, err = mtc.NewCampaign(p, in.opts); err != nil {
			return nil, err
		}
	case kindOffline:
		collect := in.opts
		collect.Workers = cfg.workers
		c, err := mtc.NewCampaign(p, collect)
		if err != nil {
			return nil, err
		}
		if in.uniques, err = c.Collect(ctx); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		id := &mtc.Report{Program: p, Seed: in.opts.Seed, Platform: in.opts.Platform.Name}
		if err := mtc.SaveSignatures(&buf, id, in.uniques); err != nil {
			return nil, err
		}
		in.sigFile = buf.Bytes()
	case kindTrace:
		if err := in.renderTraces(); err != nil {
			return nil, err
		}
	}
	warm, err := in.rep(ctx, nil)
	if err != nil {
		return nil, err
	}
	if warm.failed != 0 {
		return nil, fmt.Errorf("%s: warm-up rep failed %d of %d ops", w.Name, warm.failed, warm.ops)
	}
	return in, nil
}

// renderTraces runs the program on a sim.Runner and renders each execution
// as Axe-style text. Every 16th trace gets one load rewritten to a value no
// store wrote, which CheckTrace must report as a failure.
func (in *instance) renderTraces() error {
	runner, err := sim.NewRunner(in.opts.Platform, in.prog, in.opts.Seed)
	if err != nil {
		return err
	}
	seeds := sim.NewSeedStream(in.opts.Seed)
	seen := make(map[string]bool)
	in.traces = make([]traceCase, 0, in.opts.Iterations)
	for i := 0; i < in.opts.Iterations; i++ {
		ex, err := runner.RunSeeded(seeds.Next())
		if err != nil {
			return err
		}
		tc := renderTrace(in.prog, ex.LoadValues, i%16 == 15)
		seen[string(tc.text)] = true
		in.traces = append(in.traces, tc)
	}
	in.distinct = len(seen)
	return nil
}

// renderTrace writes one execution in the text format ParseTrace reads:
// per-thread program order, stores with their unique values, loads with the
// value the execution observed. With corrupt set, the first load's value is
// replaced by one that no store of the program writes.
func renderTrace(p *mtc.Program, loadValues []uint32, corrupt bool) traceCase {
	var b strings.Builder
	tc := traceCase{wantFail: corrupt}
	neverStored := uint32(p.NumOps() + 1000) // store values are op ID + 1
	for t, th := range p.Threads {
		for _, op := range th.Ops {
			tc.ops++
			switch op.Kind {
			case prog.Fence:
				fmt.Fprintf(&b, "%d: sync\n", t)
			case prog.Store:
				fmt.Fprintf(&b, "%d: M[%#x] := %d\n", t, p.Layout.AddrOf(op.Word), op.Value)
			case prog.Load:
				v := loadValues[op.ID]
				if corrupt {
					v, corrupt = neverStored, false
				}
				fmt.Fprintf(&b, "%d: M[%#x] == %d\n", t, p.Layout.AddrOf(op.Word), v)
			}
		}
	}
	tc.text = []byte(b.String())
	return tc
}

// rep is one closed-loop request. obs, when set, taps the rep's campaign
// events (the traced pass uses it; the untraced pass passes nil).
func (in *instance) rep(ctx context.Context, obs mtc.Observer) (repResult, error) {
	switch in.w.kind {
	case kindCampaign:
		c := in.camp
		if obs != nil {
			o := in.opts
			o.Observer = obs
			var err error
			if c, err = mtc.NewCampaign(in.prog, o); err != nil {
				return repResult{}, err
			}
		}
		report, err := c.Run(ctx)
		if err != nil {
			return repResult{}, err
		}
		return in.judge(report, in.opts.Iterations), nil
	case kindOffline:
		uniques, meta, err := mtc.LoadSignaturesMeta(bytes.NewReader(in.sigFile))
		if err != nil {
			return repResult{}, err
		}
		if err := mtc.ValidateSignatureMeta(meta, in.prog, in.opts); err != nil {
			return repResult{}, err
		}
		o := in.opts
		o.Observer = obs
		c, err := mtc.NewCampaign(in.prog, o)
		if err != nil {
			return repResult{}, err
		}
		report, err := c.Check(ctx, uniques)
		if err != nil {
			return repResult{}, err
		}
		return in.judge(report, len(uniques)), nil
	default:
		res := repResult{ops: len(in.traces), uniques: in.distinct}
		o := mtc.Options{Workers: 1, Observer: obs}
		model := mtc.ModelName(in.opts.Platform)
		for i := range in.traces {
			failed, err := checkTrace(ctx, in.traces[i].text, model, o)
			if err != nil {
				return repResult{}, err
			}
			if failed != in.traces[i].wantFail {
				res.failed++
			}
		}
		return res, nil
	}
}

func checkTrace(ctx context.Context, text []byte, model string, o mtc.Options) (failed bool, err error) {
	tr, err := mtc.ParseTrace(bytes.NewReader(text))
	if err != nil {
		return false, err
	}
	report, _, err := mtc.CheckTraceContext(ctx, tr, model, o)
	if err != nil {
		return false, err
	}
	return report.Failed(), nil
}

// judge compares a report with the set-up's warm-up verdict (which it
// records on first use): a clean platform must pass, and the simulated
// statistics must repeat exactly.
func (in *instance) judge(report *mtc.Report, ops int) repResult {
	got := verdictOf(report)
	if in.want == (verdict{}) {
		in.want = got
	}
	res := repResult{ops: ops, uniques: report.UniqueSignatures}
	if got.failed || got != in.want {
		res.failed = ops
	}
	return res
}

// sample is one timed rep's readings.
type sample struct {
	wall           time.Duration
	cpu            time.Duration
	mallocs, bytes uint64
	peakHeap       uint64 // highest heap in use seen during the rep
	gcCycles       uint32
	res            repResult
}

// timedRep runs one rep with a collection before it and the allocation and
// CPU counters read outside the timer.
func timedRep(ctx context.Context, in *instance, obs mtc.Observer) (sample, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	heap := watchHeap()
	cpu0 := cpuTime()
	t0 := time.Now()
	res, err := in.rep(ctx, obs)
	wall := time.Since(t0)
	cpu1 := cpuTime()
	peak := heap.stop()
	runtime.ReadMemStats(&after)
	return sample{
		wall: wall, cpu: cpu1 - cpu0,
		mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc,
		peakHeap: max(peak, after.HeapInuse), gcCycles: after.NumGC - before.NumGC, res: res,
	}, err
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapWatch samples the heap in use every millisecond on its own goroutine.
// A rep that allocates 190 MB passes through ~45 collections; reading the
// heap only at the rep's end catches a random point of that sawtooth (the
// readings of one run ranged 7.1–11.9 MiB), the watch catches its top.
// runtime/metrics reads do not stop the world.
type heapWatch struct {
	quit chan struct{}
	done chan uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{quit: make(chan struct{}), done: make(chan uint64)}
	go func() {
		// HeapInuse = objects (live and not yet swept) + unused slots in
		// spans that hold objects.
		reads := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			select {
			case <-h.quit:
				h.done <- peak
				return
			case <-tick.C:
				metrics.Read(reads)
				peak = max(peak, reads[0].Value.Uint64()+reads[1].Value.Uint64())
			}
		}
	}()
	return h
}

// stop ends the watch and returns the highest reading.
func (h *heapWatch) stop() uint64 {
	close(h.quit)
	return <-h.done
}

// hostKernel is the harness's yardstick for the host, not for the code: a
// fixed event loop (binary heap of timestamps, a 4 MiB table touched at
// random) that shares none of the repository's code, so no change to the
// repository moves it. This sandbox's two vCPUs are shared: over fifteen
// minutes the same 12 s measurement read 432–737 ms per rep, in phases
// minutes long, and the kernel, interleaved with the reps, read high in the
// same phases. Scaling a run's timings by its kernel time halved the
// run-to-run spread (quartile distance 11 % -> 5 % of the median).
func hostKernel(steps int, table []uint32) time.Duration {
	mask := uint64(len(table) - 1)
	t0 := time.Now()
	h := make([]int64, 0, 128)
	for i := int64(0); i < 64; i++ {
		h = append(h, i) // ascending: already a heap
	}
	x := uint64(88172645463325252)
	for i := 0; i < steps; i++ {
		// Pop the earliest timestamp.
		now, n := h[0], len(h)-1
		h[0] = h[n]
		h = h[:n]
		for j := 0; ; {
			c := 2*j + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r] < h[c] {
				c = r
			}
			if h[j] <= h[c] {
				break
			}
			h[j], h[c] = h[c], h[j]
			j = c
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[(x>>20)&mask] += uint32(now)
		// Push one a small bounded delay later.
		h = append(h, now+1+int64(x&63))
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if h[p] <= h[j] {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
	}
	return time.Since(t0)
}

// hostKernelNominal is the time of hostKernelSteps steps on this host class
// (Xeon 2.1 GHz vCPU) with nothing else contending. It only fixes the unit:
// timings are reported as they would read on a host that runs the kernel in
// this time.
const (
	hostKernelSteps   = 1_500_000
	hostKernelNominal = 70 * time.Millisecond
	kernelTableMiB    = 4
)

// calibration collects hostKernel samples interleaved with the measured
// work, at most one per half second of it.
type calibration struct {
	steps   int        // hostKernelSteps, fewer in the -smoke configuration
	tables  [][]uint32 // one kernel table per concurrent kernel
	samples []time.Duration
	last    time.Time
}

func (c *calibration) sample() {
	if !c.last.IsZero() && time.Since(c.last) < 500*time.Millisecond {
		return
	}
	// As many kernels at once as the workload has workers: two busy vCPUs
	// contend with each other and with the neighbours differently from one.
	times := make([]time.Duration, len(c.tables))
	var wg sync.WaitGroup
	for i := range c.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[i] = hostKernel(c.steps, c.tables[i])
		}()
	}
	wg.Wait()
	c.samples = append(c.samples, slices.Max(times))
	c.last = time.Now()
}

// scaleOf is how much slower than nominal the host ran while the given
// samples were taken: timings measured then are divided by it (and rates
// multiplied).
func (c *calibration) scaleOf(samples []time.Duration) float64 {
	nominal := hostKernelNominal.Seconds() * float64(c.steps) / hostKernelSteps
	return median(durations(samples, seconds)) / nominal
}

// untraced is a workload's end-to-end pass: nothing is observed or traced.
type untraced struct {
	in        *instance // the last set-up, reusable by the traced pass
	samples   []sample
	calib     calibration
	attempted int
	failed    int
}

// runUntraced sets the workload up cfg.setups times (setup_s is their
// median), then reps for cfg.seconds and at least cfg.minReps reps. Every
// timing is scaled by the pass's host calibration; counts are not.
func runUntraced(ctx context.Context, w *workload, cfg *config, out *results) (*untraced, error) {
	u := &untraced{calib: calibration{steps: hostKernelSteps / cfg.scale}}
	for i := 0; i < cfg.options(w).Workers; i++ {
		u.calib.tables = append(u.calib.tables, make([]uint32, kernelTableMiB<<20/4))
	}
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		u.in = nil
		runtime.GC()
		u.calib.sample()
		t0 := time.Now()
		in, err := w.setup(ctx, cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		u.in = in
	}
	// The host's phases last minutes, a pass half a minute: the set-ups are
	// scaled by the samples taken around them, the reps by theirs. The
	// sample before the first rep closes the one and opens the other.
	firstRepSample := len(u.calib.samples)
	began := time.Now()
	for len(u.samples) < cfg.minReps || time.Since(began).Seconds() < cfg.seconds {
		u.calib.sample()
		s, err := timedRep(ctx, u.in, nil)
		if err != nil {
			return nil, err
		}
		u.samples = append(u.samples, s)
		u.attempted += s.res.ops
		u.failed += s.res.failed
	}
	scale := u.calib.scaleOf(u.calib.samples[min(firstRepSample, len(u.calib.samples)-1):])
	setupScale := u.calib.scaleOf(u.calib.samples[:min(firstRepSample+1, len(u.calib.samples))])
	var opsPerS, uniqPerS, cpuPerKop, allocs, allocKB, peaks []float64
	for _, s := range u.samples {
		ops := float64(s.res.ops)
		opsPerS = append(opsPerS, scale*ops/s.wall.Seconds())
		uniqPerS = append(uniqPerS, scale*float64(s.res.uniques)/s.wall.Seconds())
		cpuPerKop = append(cpuPerKop, s.cpu.Seconds()/ops*1000/scale)
		allocs = append(allocs, float64(s.mallocs)/ops)
		allocKB = append(allocKB, float64(s.bytes)/1024/ops)
		// Less the harness's own kernel tables, which live on the same heap.
		peaks = append(peaks, float64(s.peakHeap)/(1<<20)-float64(kernelTableMiB*len(u.calib.tables)))
	}
	for i := range setups {
		setups[i] /= setupScale
	}
	out.put("ops_per_s", opsPerS...)
	out.put("uniques_per_s", uniqPerS...)
	out.put("cpu_s_per_kop", cpuPerKop...)
	out.put("allocs_per_op", allocs...)
	out.put("alloc_kb_per_op", allocKB...)
	out.put("peak_heap_mb", peaks...)
	out.put("setup_s", setups...)
	out.put("failed_frac", float64(u.failed)/float64(u.attempted))
	return u, nil
}
