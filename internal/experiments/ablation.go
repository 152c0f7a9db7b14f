package experiments

import (
	"cmp"
	"fmt"

	"mtracecheck"
	"mtracecheck/internal/experiments/report"
	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
	"mtracecheck/internal/testgen"
)

// WSAblation quantifies the static-vs-observed write-serialization choice
// (DESIGN.md §2): bug detections caught by each mode on the bug-2 platform,
// and the checking-effort difference on a clean platform. Static ws — the
// paper's "gathered statically" mode, and the only one a campaign checks —
// provably misses cross-thread serialization violations; observed ws catches
// them at the cost of larger graph diffs. The observed column is measured
// here: a simulator with each campaign's seed replays its iterations, each
// checked under the store order it recorded on an observed-ws builder.
func WSAblation(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title: "Ablation: static vs observed write serialization",
		Caption: fmt.Sprintf("bug-2 campaign: %d tests × %d iterations, observed ws per execution; effort rows: clean x86-4-50-64.",
			cfg.Table3Tests, cfg.Table3Iters),
		Header: []string{"metric", "static ws (paper mode)", "observed ws"},
	}
	checker := cmp.Or(cfg.Checker, "collective") // the paper's checker, as in Figs. 9 and 14
	observed := graph.Options{WS: graph.WSObserved}
	tcBug := testgen.Config{Threads: 7, OpsPerThread: 200, Words: 32, WordsPerLine: 16}
	plat := mtracecheck.BuggyPlatform(mtracecheck.BugLSQSkip)
	var sTests, sSigs, oTests, oSigs int
	for test := 0; test < cfg.Table3Tests; test++ {
		tc := tcBug
		tc.Seed = cfg.Seed + int64(test)
		rep, err := mtracecheck.Run(tc, cfg.options(mtracecheck.Options{
			Platform: plat, Iterations: cfg.Table3Iters, Seed: tc.Seed + 1}))
		if err != nil {
			return nil, err
		}
		if rep.Failed() {
			sTests++
			sSigs += len(rep.Violations)
		}
		// Verdicts do not depend on the backend, and the conventional one
		// takes the executions in any order.
		execs, ws, err := replay(rep, plat, tc.Seed+1)
		if err != nil {
			return nil, err
		}
		r, err := race(rep.Program, plat, observed, execs, ws, "conventional")
		if err != nil {
			return nil, err
		}
		bad := map[string]bool{} // a signature counts once, however many executions fail
		for _, v := range r["conventional"].Violations {
			bad[v.Sig.Key()] = true
		}
		if len(bad) > 0 || len(rep.AssertionFailures) > 0 {
			oTests++
		}
		oSigs += len(bad)
	}
	t.AddRow("bug-2 tests detecting", fmt.Sprintf("%d/%d", sTests, cfg.Table3Tests),
		fmt.Sprintf("%d/%d", oTests, cfg.Table3Tests))
	t.AddRow("bug-2 violating signatures", sSigs, oSigs)

	// Checking-effort comparison on a clean test: the campaign's signatures,
	// under observed ws each with the write serialization of its first
	// execution.
	tcClean := testgen.Config{Threads: 4, OpsPerThread: 50, Words: 64, Seed: cfg.Seed}
	p, err := testgen.Generate(tcClean)
	if err != nil {
		return nil, err
	}
	x86 := sim.PlatformX86()
	rep, err := mtracecheck.RunProgram(p, cfg.options(mtracecheck.Options{
		Platform: x86, Iterations: cfg.Iterations, Seed: cfg.Seed}))
	if err != nil {
		return nil, err
	}
	execs, execWS, err := replay(rep, x86, cfg.Seed)
	if err != nil {
		return nil, err
	}
	first := map[string]graph.WS{}
	for i, u := range execs {
		if _, seen := first[u.Sig.Key()]; !seen {
			first[u.Sig.Key()] = execWS[i]
		}
	}
	uniques := rep.Signatures()
	firstWS := make([]graph.WS, len(uniques))
	for i, u := range uniques {
		firstWS[i] = first[u.Sig.Key()]
	}
	meta, err := instrument.Analyze(p, x86.RegWidthBits, nil)
	if err != nil {
		return nil, err
	}
	for _, mode := range []struct {
		name  string
		gopts graph.Options
		ws    []graph.WS
	}{{"static ws (paper mode)", graph.Options{}, nil}, {"observed ws", observed, firstWS}} {
		r, err := race(p, x86, mode.gopts, uniques, mode.ws, checker)
		if err != nil {
			return nil, err
		}
		// The edge count is not part of a check result: rebuild the edge
		// lists of the graphs checked.
		builder := graph.NewBuilder(p, x86.Model, graph.Options{
			WS: mode.gopts.WS, Forwarding: x86.Atomicity.AllowsForwarding()})
		rf := make([]int32, builder.NumOps())
		var edges int
		var buf []graph.Edge // built only to be counted
		for i, u := range uniques {
			if err := meta.DecodeInto(u.Sig, rf); err != nil {
				return nil, err
			}
			var w graph.WS
			if mode.ws != nil {
				w = mode.ws[i]
			}
			if buf, err = builder.AppendDynamicEdges(buf[:0], rf, w); err != nil {
				return nil, err
			}
			edges += len(buf)
		}
		t.AddRow(fmt.Sprintf("clean run dyn edges/graph (%s)", mode.name),
			fmt.Sprintf("%.1f", float64(edges)/float64(max(1, len(uniques)))), "")
		t.AddRow(fmt.Sprintf("clean run sorted vertices (%s)", mode.name),
			r[checker].SortedVertices, "")
	}
	return t, nil
}

// replay re-executes a campaign's iterations on a fresh runner with the
// campaign's seed — the runner's i-th Run is the campaign's iteration i — and
// returns each execution's signature, in iteration order, beside the write
// serialization the execution recorded. An execution whose encoding asserts
// has no graph (its campaign reports an assertion failure) and is left out.
func replay(rep *mtracecheck.Report, plat sim.Platform, seed int64) ([]sig.Unique, []graph.WS, error) {
	meta, err := instrument.Analyze(rep.Program, plat.RegWidthBits, nil)
	if err != nil {
		return nil, nil, err
	}
	runner, err := sim.NewRunner(plat, rep.Program, seed)
	if err != nil {
		return nil, nil, err
	}
	var execs []sig.Unique
	var ws []graph.WS
	for i := 0; i < rep.Iterations; i++ {
		ex, err := runner.Run()
		if err != nil {
			return nil, nil, err
		}
		if s, err := meta.EncodeValues(ex.LoadValues); err == nil {
			execs = append(execs, sig.Unique{Sig: s, Count: 1})
			ws = append(ws, ex.WSByWord())
		}
	}
	return execs, ws, nil
}

// PruneAblation quantifies §8's static pruning: signature and code size
// with and without a skew-bounded candidate pruner, plus the runtime
// assertion failures that would reveal an unsound (too tight) bound.
func PruneAblation(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title: "Ablation: static candidate pruning (§8)",
		Caption: fmt.Sprintf("%d iterations per cell; asserts >0 would mean the skew bound is unsound on this platform.",
			cfg.Iterations),
		Header: []string{"config", "pruner", "sig bytes", "code kB", "asserts"},
	}
	cfgs := []testgen.Config{
		{Threads: 4, OpsPerThread: 100, Words: 32, Seed: cfg.Seed, Label: "x86-4-100-32"},
		{Threads: 7, OpsPerThread: 200, Words: 64, Seed: cfg.Seed, Label: "ARM-7-200-64"},
	}
	plats := []sim.Platform{sim.PlatformX86(), sim.PlatformARM()}
	for i, tc := range cfgs {
		p, err := testgen.Generate(tc)
		if err != nil {
			return nil, err
		}
		plat := plats[i]
		enc := encodingFor(testgen.ISAX86)
		if i == 1 {
			enc = encodingFor(testgen.ISAARM)
		}
		for _, pr := range []struct {
			name  string
			prune instrument.Pruner
		}{
			{"none", nil},
			{"skew≤192", instrument.SkewPruner(p, 192)},
			{"skew≤96", instrument.SkewPruner(p, 96)},
			{"skew≤32", instrument.SkewPruner(p, 32)},
		} {
			meta, err := instrument.Analyze(p, plat.RegWidthBits, pr.prune)
			if err != nil {
				return nil, err
			}
			gp, err := instrument.Generate(meta, enc)
			if err != nil {
				return nil, err
			}
			_, inst, _ := gp.CodeSizes()
			rep, err := mtracecheck.RunProgram(p, cfg.options(mtracecheck.Options{
				Platform: plat, Iterations: cfg.Iterations, Seed: cfg.Seed + 9, Pruner: pr.prune}))
			if err != nil {
				return nil, err
			}
			t.AddRow(tc.Label, pr.name, meta.SignatureBytes(),
				fmt.Sprintf("%.1f", float64(inst)/1024), len(rep.AssertionFailures))
		}
	}
	return t, nil
}

// ScalingAblation sweeps the iteration count on one configuration, showing
// how signature-space density drives the collective checker's advantage —
// the similarity mechanism behind the paper's Fig. 9 results at 65536
// iterations.
func ScalingAblation(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title:  "Ablation: collective-checking advantage vs iteration count",
		Header: []string{"iterations", "unique sigs", "no-resort", "sorted verts (coll)", "sorted verts (conv)", "reduction"},
	}
	tc := testgen.Config{Threads: 4, OpsPerThread: 50, Words: 64, Seed: cfg.Seed}
	p, err := testgen.Generate(tc)
	if err != nil {
		return nil, err
	}
	for _, iters := range []int{256, 1024, 4096} {
		uniques, err := mtracecheck.CollectSignatures(p, cfg.options(mtracecheck.Options{
			Platform: sim.PlatformX86(), Iterations: iters, Seed: cfg.Seed}))
		if err != nil {
			return nil, err
		}
		r, err := race(p, sim.PlatformX86(), graph.Options{}, uniques, nil, "conventional", "collective")
		if err != nil {
			return nil, err
		}
		conv, coll := r["conventional"], r["collective"]
		_, noResort, _ := coll.Counts()
		t.AddRow(iters, len(uniques), noResort, coll.SortedVertices, conv.SortedVertices,
			report.Percent(float64(conv.SortedVertices-coll.SortedVertices), float64(conv.SortedVertices)))
	}
	return t, nil
}

// FRAblation explains the paper's Fig. 14 ARM result: with from-read edges
// omitted (the construction implied by §8's "stores do not depend on any
// load operations"), every dynamic edge is store→load, stores sort ahead of
// loads, and virtually no graph needs re-sorting — at the price of
// blindness to fr-dependent violations such as CoRR.
func FRAblation(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title: "Ablation: from-read edges and the ARM no-resort result (Fig. 14)",
		Caption: fmt.Sprintf("%d iterations per config; dropping fr edges trades CoRR-class detection for near-free checking.",
			cfg.Iterations),
		Header: []string{"config", "fr edges", "no-resort", "incremental", "sorted verts", "vs conventional"},
	}
	for _, label := range []string{"ARM-2-100-32", "ARM-4-50-64", "ARM-7-50-64"} {
		var tc testgen.Config
		switch label {
		case "ARM-2-100-32":
			tc = testgen.Config{Threads: 2, OpsPerThread: 100, Words: 32}
		case "ARM-4-50-64":
			tc = testgen.Config{Threads: 4, OpsPerThread: 50, Words: 64}
		case "ARM-7-50-64":
			tc = testgen.Config{Threads: 7, OpsPerThread: 50, Words: 64}
		}
		tc.Seed = cfg.Seed
		p, err := testgen.Generate(tc)
		if err != nil {
			return nil, err
		}
		plat := sim.PlatformARM()
		uniques, err := mtracecheck.CollectSignatures(p, cfg.options(mtracecheck.Options{
			Platform: plat, Iterations: cfg.Iterations, Seed: cfg.Seed}))
		if err != nil {
			return nil, err
		}
		for _, dropFR := range []bool{false, true} {
			r, err := race(p, plat, graph.Options{DropFR: dropFR}, uniques, nil, "conventional", "collective")
			if err != nil {
				return nil, err
			}
			conv, coll := r["conventional"], r["collective"]
			_, noResort, incremental := coll.Counts()
			mode := "full (ours)"
			if dropFR {
				mode = "dropped (paper-ARM)"
			}
			t.AddRow(label, mode, noResort, incremental, coll.SortedVertices,
				report.Percent(float64(coll.SortedVertices), float64(conv.SortedVertices)))
		}
	}
	return t, nil
}

// Saturation reproduces the paper's §6.1 iteration-count sensitivity study
// (ARM-2-200-32: 54% unique at 65536 iterations vs 30% at 1M): the fraction
// of unique interleavings falls as the iteration budget grows, because the
// underlying distribution has finite support.
func Saturation(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title: "Sensitivity: unique-interleaving fraction vs iteration count (§6.1)",
		Caption: "ARM-2-50-32 (the paper used ARM-2-200-32; our simulator's 2-200 configs " +
			"have effectively unbounded interleaving support, so the finite-support " +
			"effect shows on the smaller config).",
		Header: []string{"iterations", "unique", "fraction"},
	}
	tc := testgen.Config{Threads: 2, OpsPerThread: 50, Words: 32, Seed: cfg.Seed}
	for _, n := range []int{cfg.Iterations, cfg.Iterations * 4, cfg.Iterations * 16} {
		rep, err := mtracecheck.Run(tc, cfg.options(mtracecheck.Options{
			Platform: sim.PlatformARM(), Iterations: n, Seed: cfg.Seed}))
		if err != nil {
			return nil, err
		}
		t.AddRow(n, rep.UniqueSignatures, report.Percent(float64(rep.UniqueSignatures), float64(n)))
	}
	return t, nil
}

// Atomicity examines store atomicity (§8): on a single-copy platform
// (no store-to-load forwarding) the forwarded-read outcome of the n6 litmus
// disappears — a load can no longer see its own store before global
// visibility — while the store-buffering outcome persists (SB needs no
// same-address forwarding). The checker soundly includes intra-thread rf
// edges only on the single-copy platform; including them under multi-copy
// atomicity is the paper's §8 false-positive footnote (unit-tested in
// internal/graph).
func Atomicity(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title:  "Ablation: store atomicity (§8)",
		Header: []string{"platform", "litmus", "observed", "violations"},
	}
	n6 := prog.NewBuilder("n6", 2, prog.DefaultLayout()).
		Thread().Store(0).Load(0).Load(1).
		Thread().Store(1).Load(1).Load(0).
		MustBuild()
	sb, err := testgen.LitmusByName("SB")
	if err != nil {
		return nil, err
	}
	subjects := []testgen.Litmus{
		{Name: "SB (r0=r1=0)", Prog: sb.Prog, Interesting: sb.Interesting},
		{Name: "n6 (forwarded reads)", Prog: n6, Interesting: testgen.Outcome{
			n6.Threads[0].Ops[1].ID: n6.Threads[0].Ops[0].Value,
			n6.Threads[0].Ops[2].ID: prog.InitialValue,
			n6.Threads[1].Ops[1].ID: n6.Threads[1].Ops[0].Value,
			n6.Threads[1].Ops[2].ID: prog.InitialValue,
		}},
	}
	for _, atom := range []mcm.Atomicity{mcm.MultiCopy, mcm.SingleCopy} {
		plat := sim.PlatformX86()
		plat.Atomicity = atom
		for _, sub := range subjects {
			res, err := mtracecheck.RunLitmus(sub, cfg.options(mtracecheck.Options{
				Platform: plat, Iterations: cfg.Iterations, Seed: cfg.Seed}))
			if err != nil {
				return nil, err
			}
			t.AddRow(atom.String(), sub.Name, res.Observed, len(res.Report.Violations))
		}
	}
	return t, nil
}

// DynPrune evaluates §8's dynamic (frontier) pruning on TSO platforms.
// Two findings: the information saved by the frontier is small on
// constrained-random tests (each load's candidates come mostly from stores
// the frontier has no grounds to exclude), and — because the frontier
// encodes per-location coherence itself — ld→ld violations from the bug-2
// platform are caught inline by the assert chain at encode time, before any
// graph checking. The paper anticipated the costs ("signature decoding
// becomes complicated as the length of signatures varies"); this measures
// the benefit side.
func DynPrune(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title: "Ablation: dynamic (frontier) pruning (§8)",
		Caption: fmt.Sprintf("%d iterations per config on the TSO platform; sizes in words excluding headers.",
			cfg.Iterations),
		Header: []string{"config", "static bits", "dynamic bits (avg)", "shrink", "inline asserts (bug 2)"},
	}
	cfgs := []testgen.Config{
		{Threads: 4, OpsPerThread: 100, Words: 8, Seed: cfg.Seed, Label: "x86-4-100-8"},
		{Threads: 7, OpsPerThread: 200, Words: 32, WordsPerLine: 16, Seed: cfg.Seed, Label: "x86-7-200-32"},
	}
	for _, tc := range cfgs {
		p, err := testgen.Generate(tc)
		if err != nil {
			return nil, err
		}
		plat := sim.PlatformX86()
		plat.Cores = 8
		plat.AllocOrder = nil
		meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
		if err != nil {
			return nil, err
		}
		enc, err := instrument.NewDynamicEncoder(meta, plat.Model)
		if err != nil {
			return nil, err
		}
		runner, err := sim.NewRunner(plat, p, cfg.Seed)
		if err != nil {
			return nil, err
		}
		var dynBits float64
		count := 0
		for i := 0; i < cfg.Iterations; i++ {
			ex, err := runner.Run()
			if err != nil {
				return nil, err
			}
			if _, err := enc.Encode(ex.LoadValues); err != nil {
				return nil, fmt.Errorf("%s: clean platform asserted: %w", tc.Label, err)
			}
			bits, err := enc.InformationBits(ex.LoadValues)
			if err != nil {
				return nil, err
			}
			dynBits += bits
			count++
		}
		// Same test on the bug-2 platform: frontier asserts fire inline.
		buggy := mtracecheck.BuggyPlatform(mtracecheck.BugLSQSkip)
		brunner, err := sim.NewRunner(buggy, p, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		asserts := 0
		for i := 0; i < cfg.Iterations; i++ {
			ex, err := brunner.Run()
			if err != nil {
				return nil, err
			}
			if _, err := enc.Encode(ex.LoadValues); err != nil {
				asserts++
			}
		}
		staticBits := meta.InformationBits()
		avg := dynBits / float64(count)
		t.AddRow(tc.Label, fmt.Sprintf("%.1f", staticBits), fmt.Sprintf("%.1f", avg),
			report.Percent(staticBits-avg, staticBits),
			asserts)
	}
	return t, nil
}

// Bias examines contention-biased test generation (a minimal instance of
// the advanced generation the paper's §9 surveys): concentrating accesses
// on a hot word subset raises interleaving diversity — and hence coverage —
// per iteration budget on otherwise low-diversity configurations.
func Bias(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title:   "Extension: contention-biased generation vs uniform (§9)",
		Caption: fmt.Sprintf("%d iterations per cell on the TSO platform.", cfg.Iterations),
		Header:  []string{"config", "hot-word bias", "unique interleavings"},
	}
	base := []testgen.Config{
		{Threads: 2, OpsPerThread: 50, Words: 32, Seed: cfg.Seed, Label: "x86-2-50-32"},
		{Threads: 4, OpsPerThread: 50, Words: 64, Seed: cfg.Seed, Label: "x86-4-50-64"},
	}
	for _, tc := range base {
		for _, bias := range []float64{0, 0.5, 0.9} {
			c := tc
			c.HotWordBias = bias
			rep, err := mtracecheck.Run(c, cfg.options(mtracecheck.Options{
				Platform: sim.PlatformX86(), Iterations: cfg.Iterations, Seed: cfg.Seed + 3}))
			if err != nil {
				return nil, err
			}
			t.AddRow(tc.Label, fmt.Sprintf("%.1f", bias), rep.UniqueSignatures)
		}
	}
	return t, nil
}
