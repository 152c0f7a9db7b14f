// Package experiments regenerates every table and figure of the paper's
// evaluation (§5–§7) on the simulated platform: the non-determinism sweep
// (Fig. 8), checking performance (Figs. 9 and 14), execution overhead
// (Fig. 10), intrusiveness (Fig. 11), code size (Fig. 12), the k-medoids
// limit study (Fig. 6), and the bug-injection campaigns (Table 3). Each
// experiment returns a report.Table consumed by cmd/mtc-experiments and by
// the benchmark suite.
//
// Absolute numbers differ from the paper's silicon measurements by design;
// the shapes — which configurations are diverse, who wins and by how much —
// are the reproduction targets (see EXPERIMENTS.md).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"mtracecheck"
	"mtracecheck/internal/check"
	"mtracecheck/internal/experiments/cluster"
	"mtracecheck/internal/experiments/report"
	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/isa"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/obs"
	"mtracecheck/internal/oracle"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
	"mtracecheck/internal/testgen"
	"mtracecheck/internal/vm"
)

// Config scales the experiment harness. The paper's full scale (65536
// iterations, 10 tests × 5 runs, 101 bug tests) is reachable by flag but
// impractical for routine runs.
type Config struct {
	Iterations  int   // iterations per test run (paper: 65536)
	Tests       int   // distinct random tests per configuration (paper: 10)
	Seed        int64 // master seed
	Fig6Runs    int   // SC-reference executions for the limit study (paper: 1000)
	Table3Tests int   // tests per bug campaign (paper: 101)
	Table3Iters int   // iterations per bug test (paper: 1024)

	// Observer, when non-nil, receives the pipeline events of every campaign
	// the experiments run (one per collected test). Results are bit-identical
	// with and without it.
	Observer obs.Observer

	// Checker is the backend of every campaign an experiment runs for its
	// verdict (the bug campaigns, the ws ablation), by name; empty is the
	// default, the table's first row (incremental), and an unknown name is
	// refused by the first campaign.
	// Experiments that race backends (Fig9And14) walk check's table
	// regardless.
	Checker string

	// CorpusPath is the directory holding the Corpus experiment's
	// persistent signature corpora (one file per configuration). Empty
	// means a temporary directory removed when the experiment finishes;
	// a real path makes the warm-cache effect persist across invocations.
	CorpusPath string
}

// options completes o — platform, iterations, seed and mode are the
// caller's — with the harness-wide settings. Every experiment reaches the
// pipeline through mtracecheck's entry points with these options, so what an
// experiment measures is what a user's campaign does. Workers is 1: the
// effort counters several tables print depend on checking-shard boundaries.
//
// Three tables also drive sim.Runner directly, because they read more than a
// campaign keeps (its merged signature set): Fig10 needs every iteration's
// load values, in order, through one persistent branch predictor; DynPrune
// runs the frontier encoder on every clean and bug-2 iteration; WSAblation
// checks every iteration under the store order it recorded. A runner built
// with a campaign's seed replays the campaign's iterations in order.
func (cfg Config) options(o mtracecheck.Options) mtracecheck.Options {
	o.Checker, o.Observer, o.Workers = cfg.Checker, cfg.Observer, 1
	return o
}

// raced is one backend's result over a set of items and the wall time it took.
type raced struct {
	*check.Result
	took time.Duration
}

// race decodes a sorted signature set into checkable items over a builder of
// its own — the one decode path beside Campaign's, for racing backends on one
// set and for graph options a campaign does not carry (DropFR;
// gopts.Forwarding is the platform's). The items are what check.NewItem makes
// of each decoded row: what a campaign's would be. ws is nil, or holds each
// signature's write serialization for an observed-ws builder (gopts.WS). It
// then walks check's table, timing each named backend over the items in
// table order. Backends that disagree on how many graphs are cyclic are an
// error: a table built from it would describe a checker bug.
func race(p *prog.Program, plat sim.Platform, gopts graph.Options, uniques []sig.Unique,
	ws []graph.WS, names ...string) (map[string]raced, error) {
	meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
	if err != nil {
		return nil, err
	}
	gopts.Forwarding = plat.Atomicity.AllowsForwarding()
	b := graph.NewBuilder(p, plat.Model, gopts)
	n := b.NumOps()
	slab := make([]int32, len(uniques)*n)
	items := make([]check.Item, len(uniques))
	for i, u := range uniques {
		rf := slab[i*n : (i+1)*n : (i+1)*n]
		if err := meta.DecodeInto(u.Sig, rf); err != nil {
			return nil, err
		}
		var w graph.WS
		if ws != nil {
			w = ws[i]
		}
		if items[i], err = check.NewItem(b, u.Sig, rf, w); err != nil {
			return nil, err
		}
	}
	out := make(map[string]raced, len(names))
	violations := -1
	for i := range check.Backends {
		be := &check.Backends[i]
		if !slices.Contains(names, be.Name) {
			continue
		}
		start := time.Now()
		res, err := be.Check(context.Background(), b, items)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", be.Name, err)
		}
		out[be.Name] = raced{res, time.Since(start)}
		if violations < 0 {
			violations = len(res.Violations)
		} else if len(res.Violations) != violations {
			return nil, fmt.Errorf("checker verdicts disagree: %s finds %d cyclic graphs, the backends before it %d",
				be.Name, len(res.Violations), violations)
		}
	}
	return out, nil
}

// All is the experiment table, in the order -exp all runs it: the name
// mtc-experiments' -exp flag takes and the function that renders the
// experiment's tables. A new experiment is one more row.
var All = []struct {
	Name string
	Run  func(Config) ([]*report.Table, error)
}{
	{"platforms", func(Config) ([]*report.Table, error) { return []*report.Table{Platforms()}, nil }},
	{"fig6", one(Fig6)},
	{"fig8", one(Fig8)},
	{"fig9", func(cfg Config) ([]*report.Table, error) { // includes fig14
		f9, f14, err := Fig9And14(cfg)
		return []*report.Table{f9, f14}, err
	}},
	{"fig10", one(Fig10)},
	{"fig11", one(Fig11)},
	{"fig12", one(Fig12)},
	{"table3", one(Table3)},
	{"litmus", one(Litmus)},
	{"ws", one(WSAblation)},
	{"prune", one(PruneAblation)},
	{"scaling", one(ScalingAblation)},
	{"fr", one(FRAblation)},
	{"saturation", one(Saturation)},
	{"atomicity", one(Atomicity)},
	{"dynprune", one(DynPrune)},
	{"bias", one(Bias)},
	{"corpus", one(Corpus)},
}

func one(fn func(Config) (*report.Table, error)) func(Config) ([]*report.Table, error) {
	return func(cfg Config) ([]*report.Table, error) {
		t, err := fn(cfg)
		return []*report.Table{t}, err
	}
}

// Default returns a laptop-scale configuration preserving every trend.
func Default() Config {
	return Config{Iterations: 512, Tests: 2, Seed: 1, Fig6Runs: 1000,
		Table3Tests: 20, Table3Iters: 256}
}

// Quick returns a configuration small enough for test suites.
func Quick() Config {
	return Config{Iterations: 96, Tests: 1, Seed: 1, Fig6Runs: 120,
		Table3Tests: 3, Table3Iters: 96}
}

// platformFor returns the platform preset for a paper config's ISA flavor.
func platformFor(isa testgen.ISA) sim.Platform {
	if isa == testgen.ISAARM {
		return sim.PlatformARM()
	}
	return sim.PlatformX86()
}

func encodingFor(flavor testgen.ISA) isa.Encoding {
	if flavor == testgen.ISAARM {
		return isa.EncodingRISC
	}
	return isa.EncodingCISC
}

// Platforms renders the simulated systems-under-validation (paper Table 1).
func Platforms() *report.Table {
	t := &report.Table{
		Title:   "Table 1: simulated systems under validation",
		Caption: "Substitutes for the paper's silicon platforms (see DESIGN.md).",
		Header:  []string{"system", "MCM", "atomicity", "cores", "reg width", "L1 (sets×ways)", "alloc order"},
	}
	for _, p := range []sim.Platform{sim.PlatformX86(), sim.PlatformARM(),
		mtracecheck.BuggyPlatform(mtracecheck.BugNone)} {
		t.AddRow(p.Name, p.Model.String(), p.Atomicity.String(), p.Cores,
			fmt.Sprintf("%d-bit", p.RegWidthBits),
			fmt.Sprintf("%d×%d", p.Mem.Sets, p.Mem.Ways),
			fmt.Sprintf("%v", p.AllocOrder))
	}
	return t
}

// Fig6 reproduces the k-medoids limit study: total differing reads-from
// relationships to the closest medoid, for k ∈ {1,2,3,5,10,30,100,all} on
// two tests executed by the SC reference interpreter.
func Fig6(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title: "Fig. 6: k-medoids clustering of constraint graphs",
		Caption: fmt.Sprintf("%d SC-reference executions per test; distance = differing rf relationships.",
			cfg.Fig6Runs),
		Header: []string{"k", "test1 (2-50-32) total diff", "test2 (4-50-32) total diff"},
	}
	type study struct {
		unique int
		byK    map[int]int64
	}
	ks := []int{1, 2, 3, 5, 10, 30, 100}
	studies := make([]study, 2)
	configs := []testgen.Config{
		{Threads: 2, OpsPerThread: 50, Words: 32, Seed: cfg.Seed},
		{Threads: 4, OpsPerThread: 50, Words: 32, Seed: cfg.Seed + 1},
	}
	for si, tc := range configs {
		p, err := testgen.Generate(tc)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(si)*97))
		// Points in first-seen order: the seeded k-medoids search below
		// starts from the list's order, so it must not come from a map.
		seen := map[string]bool{}
		var pts []cluster.Point
		for i := 0; i < cfg.Fig6Runs; i++ {
			rf := oracle.Walk(p, rng.Intn).RF
			if key := fmt.Sprint(rf); !seen[key] {
				seen[key] = true
				pt := cluster.Point{}
				for _, op := range p.Ops() {
					if op.Kind == prog.Load {
						pt[op.ID] = int(rf[op.ID])
					}
				}
				pts = append(pts, pt)
			}
		}
		dist := cluster.DistanceMatrix(pts)
		st := study{unique: len(pts), byK: map[int]int64{}}
		for _, k := range ks {
			kk := k
			if kk > len(pts) {
				kk = len(pts)
			}
			res, err := cluster.Best(dist, kk, 3, rng)
			if err != nil {
				return nil, err
			}
			st.byK[k] = res.TotalDistance
		}
		studies[si] = st
	}
	for _, k := range ks {
		t.AddRow(k, studies[0].byK[k], studies[1].byK[k])
	}
	t.AddRow("unique", studies[0].unique, studies[1].unique)
	return t, nil
}

// fig8Variant describes one bar group of Fig. 8.
type fig8Variant struct {
	name         string
	wordsPerLine int
	osMode       bool
}

var fig8Variants = []fig8Variant{
	{"bare-metal (1 word/line)", 1, false},
	{"4 words/line", 4, false},
	{"16 words/line", 16, false},
	{"Linux (OS mode)", 1, true},
}

// Fig8 measures unique memory-access interleavings across the paper's 21
// configurations and the false-sharing / OS variants.
func Fig8(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title: "Fig. 8: number of unique memory-access interleavings",
		Caption: fmt.Sprintf("%d iterations × %d tests per configuration (averaged).",
			cfg.Iterations, cfg.Tests),
		Header: []string{"config", fig8Variants[0].name, fig8Variants[1].name,
			fig8Variants[2].name, fig8Variants[3].name, "iters"},
	}
	for _, pc := range testgen.PaperConfigs() {
		cells := make([]any, 0, 6)
		cells = append(cells, pc.Label)
		for _, v := range fig8Variants {
			total := 0
			for test := 0; test < cfg.Tests; test++ {
				tc := pc.Config
				tc.WordsPerLine = v.wordsPerLine
				tc.Seed = cfg.Seed + int64(test)*1009
				plat, err := sim.PlatformFor(string(pc.ISA), "", v.osMode)
				if err != nil {
					return nil, err
				}
				rep, err := mtracecheck.Run(tc, cfg.options(mtracecheck.Options{
					Platform: plat, Iterations: cfg.Iterations, Seed: cfg.Seed + int64(test)}))
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", pc.Label, v.name, err)
				}
				total += rep.UniqueSignatures
			}
			cells = append(cells, total/cfg.Tests)
		}
		cells = append(cells, cfg.Iterations)
		t.AddRow(cells...)
	}
	return t, nil
}

// Fig9And14 measures the collective checker against the conventional one:
// wall-clock topological-sorting time (Fig. 9) and the validation-kind
// breakdown with affected-vertex percentages (Fig. 14), over the reads-from
// rows a campaign's check receives. The VC columns race the polynomial-time
// vector-clock backend (TSOtool-style closure) on the same items; every
// backend's verdict must agree or the row errors out.
func Fig9And14(cfg Config) (fig9, fig14 *report.Table, err error) {
	fig9 = &report.Table{
		Title:   "Fig. 9: MCM violation checking — topological sorting speedup",
		Caption: "Collective (MTraceCheck) vs conventional per-graph sorting; PK is this repo's Pearce–Kelly extension, VC the vector-clock closure backend.",
		Header: []string{"config", "unique graphs", "conventional (ms)", "collective (ms)",
			"normalized", "vertices conv", "vertices coll", "PK (ms)", "vertices PK",
			"VC (ms)", "clock updates"},
	}
	fig14 = &report.Table{
		Title:  "Fig. 14: breakdown of collective graph checking",
		Header: []string{"config", "complete", "no re-sort", "incremental", "avg affected vertices"},
	}
	for _, pc := range testgen.PaperConfigs() {
		tc := pc.Config
		tc.Seed = cfg.Seed
		p, cerr := testgen.Generate(tc)
		if cerr != nil {
			return nil, nil, fmt.Errorf("%s: %w", pc.Label, cerr)
		}
		plat := platformFor(pc.ISA)
		uniques, cerr := mtracecheck.CollectSignatures(p, cfg.options(mtracecheck.Options{
			Platform: plat, Iterations: cfg.Iterations, Seed: cfg.Seed}))
		if cerr != nil {
			return nil, nil, fmt.Errorf("%s: %w", pc.Label, cerr)
		}
		// The constraints oracle is not a contender: it is not raced.
		r, cerr := race(p, plat, graph.Options{}, uniques, nil, "conventional", "collective", "incremental", "vectorclock")
		if cerr != nil {
			return nil, nil, fmt.Errorf("%s: %w", pc.Label, cerr)
		}
		conv, coll, inc, vc := r["conventional"], r["collective"], r["incremental"], r["vectorclock"]
		ms := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }
		norm := "n/a"
		if conv.took > 0 {
			norm = report.Percent(float64(coll.took), float64(conv.took))
		}
		fig9.AddRow(pc.Label, len(uniques), ms(conv.took), ms(coll.took),
			norm, conv.SortedVertices, coll.SortedVertices,
			ms(inc.took), inc.SortedVertices, ms(vc.took), vc.ClockUpdates)

		complete, noResort, incremental := coll.Counts()
		var affected, affCount int64
		for _, gs := range coll.PerGraph {
			if gs.Kind == check.KindIncremental {
				affected += int64(gs.Affected)
				affCount++
			}
		}
		avgAff := "n/a"
		if affCount > 0 {
			avgAff = report.Percent(float64(affected)/float64(affCount), float64(p.NumOps()))
		}
		fig14.AddRow(pc.Label, complete, noResort, incremental, avgAff)
	}
	return fig9, fig14, nil
}

// Fig10 measures test-execution overhead on the ARM-flavor configurations:
// original test cycles, signature-computation cycles (instrumented minus
// original, both interpreted with a persistent branch predictor), and
// signature-sorting time.
func Fig10(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title:   "Fig. 10: test execution — MTraceCheck execution overhead",
		Caption: "VM cost-model cycles across all iterations; sorting is host wall time.",
		Header: []string{"config", "original (Mcycles)", "sig computation (Mcycles)",
			"overhead", "sig sorting (ms)"},
	}
	for _, pc := range testgen.PaperConfigs() {
		if pc.ISA != testgen.ISAARM {
			continue
		}
		tc := pc.Config
		tc.Seed = cfg.Seed
		p, err := testgen.Generate(tc)
		if err != nil {
			return nil, err
		}
		plat := platformFor(pc.ISA)
		meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
		if err != nil {
			return nil, err
		}
		gp, err := instrument.Generate(meta, encodingFor(pc.ISA))
		if err != nil {
			return nil, err
		}
		runner, err := sim.NewRunner(plat, p, cfg.Seed)
		if err != nil {
			return nil, err
		}
		cm := vm.DefaultCostModel()
		orig := make([]*vm.Thread, p.NumThreads())
		inst := make([]*vm.Thread, p.NumThreads())
		for ti := range p.Threads {
			orig[ti] = vm.NewThread(gp.Original[ti], cm)
			inst[ti] = vm.NewThread(gp.Instrumented[ti], cm)
		}
		var origCycles, instCycles int64
		var sigs []sig.Signature
		for i := 0; i < cfg.Iterations; i++ {
			ex, err := runner.Run()
			if err != nil {
				return nil, err
			}
			vals := ex.LoadValues
			lookup := func(id int) (uint32, error) { return vals[id], nil }
			var oMax, iMax int64
			for ti := range p.Threads {
				or, err := orig[ti].Run(lookup, 0)
				if err != nil {
					return nil, err
				}
				ir, err := inst[ti].Run(lookup, 0)
				if err != nil {
					return nil, err
				}
				// The test's wall time is the slowest thread's time.
				if or.Cycles > oMax {
					oMax = or.Cycles
				}
				if ir.Cycles > iMax {
					iMax = ir.Cycles
				}
			}
			origCycles += oMax
			instCycles += iMax
			if s, err := meta.EncodeValues(vals); err == nil {
				sigs = append(sigs, s)
			}
		}
		start := time.Now()
		sig.Sort(sigs)
		sortT := time.Since(start)
		sigComp := instCycles - origCycles
		t.AddRow(pc.Label,
			fmt.Sprintf("%.2f", float64(origCycles)/1e6),
			fmt.Sprintf("%.2f", float64(sigComp)/1e6),
			report.Percent(float64(sigComp), float64(origCycles)),
			fmt.Sprintf("%.3f", float64(sortT.Microseconds())/1000))
	}
	return t, nil
}

// Fig11 measures intrusiveness: memory accesses unrelated to the test
// (signature stores) normalized against the register-flushing baseline, and
// the execution signature size in bytes.
func Fig11(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title:   "Fig. 11: intrusiveness of verification",
		Caption: "Signature stores normalized to register-flushing stores (the paper's ~7% average).",
		Header:  []string{"config", "sig stores/iter", "flush stores/iter", "normalized", "sig bytes"},
	}
	for _, pc := range testgen.PaperConfigs() {
		var sigStores, flushStores, sigBytes float64
		for test := 0; test < cfg.Tests; test++ {
			tc := pc.Config
			tc.Seed = cfg.Seed + int64(test)*1009
			p, err := testgen.Generate(tc)
			if err != nil {
				return nil, err
			}
			plat := platformFor(pc.ISA)
			meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
			if err != nil {
				return nil, err
			}
			loads := 0
			for _, th := range p.Threads {
				loads += len(th.Loads())
			}
			sigStores += float64(meta.TotalWords())
			flushStores += float64(loads)
			sigBytes += float64(meta.SignatureBytes())
		}
		n := float64(cfg.Tests)
		t.AddRow(pc.Label,
			fmt.Sprintf("%.1f", sigStores/n),
			fmt.Sprintf("%.1f", flushStores/n),
			report.Percent(sigStores, flushStores),
			fmt.Sprintf("%.1f", sigBytes/n))
	}
	return t, nil
}

// Fig12 measures code size: instrumented vs original bytes per config under
// the platform's encoding.
func Fig12(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title:  "Fig. 12: code size comparison",
		Header: []string{"config", "original (kB)", "instrumented (kB)", "ratio", "flush (kB)"},
	}
	for _, pc := range testgen.PaperConfigs() {
		var orig, inst, flush float64
		for test := 0; test < cfg.Tests; test++ {
			tc := pc.Config
			tc.Seed = cfg.Seed + int64(test)*1009
			p, err := testgen.Generate(tc)
			if err != nil {
				return nil, err
			}
			plat := platformFor(pc.ISA)
			meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
			if err != nil {
				return nil, err
			}
			gp, err := instrument.Generate(meta, encodingFor(pc.ISA))
			if err != nil {
				return nil, err
			}
			o, i, f := gp.CodeSizes()
			orig += float64(o)
			inst += float64(i)
			flush += float64(f)
		}
		n := float64(cfg.Tests) * 1024
		ratio := inst / orig
		t.AddRow(pc.Label,
			fmt.Sprintf("%.1f", orig/n),
			fmt.Sprintf("%.1f", inst/n),
			fmt.Sprintf("%.2fx", ratio),
			fmt.Sprintf("%.1f", flush/n))
	}
	return t, nil
}

// Table3 runs the three bug-injection campaigns (paper §7): each bug gets
// its calibrated test configuration; detection is reported as tests
// flagging the bug and total violating signatures (bug 3: crashed tests).
func Table3(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title: "Table 3: bug detection results",
		Caption: fmt.Sprintf("%d random tests per bug, %d iterations each.",
			cfg.Table3Tests, cfg.Table3Iters),
		Header: []string{"bug", "test configuration", "tests detecting", "violating signatures", "result"},
	}
	type campaign struct {
		name string
		tc   testgen.Config
		plat sim.Platform
	}
	campaigns := []campaign{
		{
			name: "1: ld->ld violation (protocol)",
			tc:   testgen.Config{Threads: 4, OpsPerThread: 50, Words: 8, WordsPerLine: 4},
			plat: mtracecheck.BuggyPlatform(mtracecheck.BugSMInv),
		},
		{
			name: "2: ld->ld violation (LSQ)",
			tc:   testgen.Config{Threads: 7, OpsPerThread: 200, Words: 32, WordsPerLine: 16},
			plat: mtracecheck.BuggyPlatform(mtracecheck.BugLSQSkip),
		},
		{
			name: "3: coherence race",
			tc:   testgen.Config{Threads: 7, OpsPerThread: 200, Words: 64, WordsPerLine: 4},
			plat: bug3Platform(),
		},
	}
	for ci, c := range campaigns {
		testsDetecting, badSigs, crashes := 0, 0, 0
		for test := 0; test < cfg.Table3Tests; test++ {
			tc := c.tc
			tc.Seed = cfg.Seed + int64(ci*10007+test)
			rep, err := mtracecheck.Run(tc, cfg.options(mtracecheck.Options{
				Platform: c.plat, Iterations: cfg.Table3Iters, Seed: tc.Seed + 1}))
			if errors.Is(err, mtracecheck.ErrCrash) {
				crashes++
				testsDetecting++
				continue
			}
			if err != nil {
				return nil, err
			}
			if rep.Failed() {
				testsDetecting++
				badSigs += len(rep.Violations)
			}
		}
		result := fmt.Sprintf("%d/%d tests", testsDetecting, cfg.Table3Tests)
		if crashes > 0 {
			result = fmt.Sprintf("%d/%d tests crashed", crashes, cfg.Table3Tests)
		}
		label := fmt.Sprintf("x86-%d-%d-%d (%d words/line)",
			c.tc.Threads, c.tc.OpsPerThread, c.tc.Words, c.tc.WordsPerLine)
		t.AddRow(c.name, label, testsDetecting, badSigs, result)
	}
	return t, nil
}

// bug3Platform returns the writeback-race platform with the L1 shrunk to
// 4 sets so the paper's 7-200-64 (4 words/line) working set overflows it —
// the same "calibrated the size and associativity to intensify evictions"
// step the paper describes for its gem5 runs.
func bug3Platform() sim.Platform {
	p := mtracecheck.BuggyPlatform(mtracecheck.BugWBRace)
	p.Mem.Sets = 4
	return p
}

// Litmus audits the directed litmus library across all four models
// (extension experiment; the paper's intro scenario): per test and model, the
// oracle's label, the interesting outcome's count, the allowed outcomes
// reached and never reached, the forbidden ones observed, and the verdict.
func Litmus(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title:   "Litmus audit across models",
		Caption: fmt.Sprintf("%d iterations per cell; 'obs' = interesting outcome count.", cfg.Iterations),
		Header:  []string{"litmus", "model", "forbidden", "observed", "reached", "never", "outside", "violations", "verdict"},
	}
	models := []struct {
		name string
		plat func() sim.Platform
	}{
		{"SC", func() sim.Platform { p := sim.PlatformX86(); p.Model = mcm.SC; return p }},
		{"TSO", sim.PlatformX86},
		{"PSO", func() sim.Platform { p := sim.PlatformX86(); p.Model = mcm.PSO; return p }},
		{"RMO", sim.PlatformARM},
	}
	for _, l := range testgen.LitmusTests() {
		for _, m := range models {
			res, err := mtracecheck.RunLitmus(l, cfg.options(mtracecheck.Options{
				Platform: m.plat(), Iterations: cfg.Iterations, Seed: cfg.Seed}))
			if err != nil {
				return nil, err
			}
			t.AddRow(l.Name, m.name, res.Forbidden, res.Observed, res.Reached, res.NeverReached,
				res.Outside, len(res.Report.Violations), res.Verdict)
		}
	}
	return t, nil
}
