package mtracecheck

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mtracecheck/internal/fault"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/mem"
	"mtracecheck/internal/oracle"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sim"
	"mtracecheck/internal/testgen"
)

// mustGenerate is testgen.Generate, panicking on error.
func mustGenerate(cfg TestConfig) *Program {
	p, err := testgen.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

func TestRunCleanPlatformNoViolations(t *testing.T) {
	cfg := TestConfig{Threads: 4, OpsPerThread: 40, Words: 16, Seed: 5}
	for _, mk := range []func() Platform{PlatformX86, PlatformARM} {
		plat := mk()
		report, err := Run(cfg, Options{Platform: plat, Iterations: 150, Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", plat.Name, err)
		}
		if report.Failed() {
			t.Errorf("%s: clean platform reported violations: %d graph, %d assert",
				plat.Name, len(report.Violations), len(report.AssertionFailures))
		}
		if report.UniqueSignatures < 2 {
			t.Errorf("%s: only %d unique signatures (no non-determinism?)",
				plat.Name, report.UniqueSignatures)
		}
		if report.Iterations != 150 {
			t.Errorf("%s: iterations = %d", plat.Name, report.Iterations)
		}
		if report.SignatureBytes <= 0 || report.TotalCycles <= 0 {
			t.Errorf("%s: empty accounting: %+v", plat.Name, report)
		}
	}
}

func TestCheckersAgree(t *testing.T) {
	cfg := TestConfig{Threads: 2, OpsPerThread: 50, Words: 8, Seed: 2}
	collective, err := Run(cfg, Options{Iterations: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	conventional, err := Run(cfg, Options{Iterations: 200, Seed: 3, Checker: "conventional"})
	if err != nil {
		t.Fatal(err)
	}
	if len(collective.Violations) != len(conventional.Violations) {
		t.Errorf("collective %d violations, conventional %d",
			len(collective.Violations), len(conventional.Violations))
	}
	if collective.UniqueSignatures != conventional.UniqueSignatures {
		t.Errorf("unique signatures differ: %d vs %d",
			collective.UniqueSignatures, conventional.UniqueSignatures)
	}
	if collective.CheckStats.SortedVertices >= conventional.CheckStats.SortedVertices {
		t.Errorf("no checking speedup: %d vs %d vertices",
			collective.CheckStats.SortedVertices, conventional.CheckStats.SortedVertices)
	}
}

// TestBuggyPlatformReadsBugTable: a Bug's value is the paper's number of its
// sim.InjectedBugs row, so the library, the -bug flag and a job spec inject the same defect
// under the same name.
func TestBuggyPlatformReadsBugTable(t *testing.T) {
	for bug, name := range map[Bug]string{BugSMInv: "sm-inv", BugLSQSkip: "lsq-skip", BugWBRace: "wb-race"} {
		want, err := sim.PlatformFor("", name, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := BuggyPlatform(bug); got.Bugs != want.Bugs || got.Mem.Bugs != want.Mem.Bugs ||
			got.Bugs == (sim.Bugs{}) && got.Mem.Bugs == (mem.Bugs{}) {
			t.Errorf("BuggyPlatform(%d) injects %+v %+v, -bug %s %+v %+v",
				bug, got.Bugs, got.Mem.Bugs, name, want.Bugs, want.Mem.Bugs)
		}
	}
	if clean := BuggyPlatform(BugNone); clean.Bugs != (sim.Bugs{}) || clean.Mem.Bugs != (mem.Bugs{}) {
		t.Errorf("BugNone injects %+v %+v", clean.Bugs, clean.Mem.Bugs)
	}
}

func TestBuggyPlatformDetected(t *testing.T) {
	// Bug 2 (LSQ squash skip) with a writer/reader hammer on one word:
	// violations must surface either as graph cycles or inline assertion
	// failures.
	b := prog.NewBuilder("hammer", 1, prog.DefaultLayout())
	b.Thread()
	for i := 0; i < 20; i++ {
		b.Store(0)
	}
	b.Thread()
	for i := 0; i < 20; i++ {
		b.Load(0)
	}
	hammer := b.MustBuild()
	plat := PlatformGem5(mem.Bugs{}, sim.Bugs{LQSquashSkip: true})
	report, err := RunProgram(hammer, Options{Platform: plat, Iterations: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Failed() {
		t.Error("bug 2 not detected in 200 iterations")
	}
	for _, v := range report.Violations {
		if len(v.Cycle) == 0 {
			t.Error("violation without cycle witness")
		}
	}
	// The same test on the clean platform must pass.
	clean, err := RunProgram(hammer, Options{Platform: PlatformGem5(mem.Bugs{}, sim.Bugs{}),
		Iterations: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failed() {
		t.Error("clean gem5 platform reported violations")
	}
}

func TestBug3SurfacesAsCrash(t *testing.T) {
	cfg := TestConfig{Threads: 7, OpsPerThread: 60, Words: 64, LoadRatio: 0.3, Seed: 3}
	plat := PlatformGem5(mem.Bugs{WBRaceDeadlock: true}, sim.Bugs{})
	_, err := Run(cfg, Options{Platform: plat, Iterations: 60, Seed: 5})
	if !errors.Is(err, ErrCrash) {
		t.Errorf("err = %v, want ErrCrash", err)
	}
}

// TestCrashReportIndependentOfWorkers: which chunks were in flight behind the
// crashing one depends on the worker count; what the crash report accounts
// for must not.
func TestCrashReportIndependentOfWorkers(t *testing.T) {
	p := mustGenerate(TestConfig{Threads: 7, OpsPerThread: 200, Words: 512, Seed: 1})
	type crash struct {
		iterations, uniques int
		cycles              int64
		err                 string
	}
	var want crash
	for _, workers := range []int{1, 2, 4} {
		c, err := NewCampaign(p, Options{Platform: BuggyPlatform(BugWBRace), Iterations: 256, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		report, err := c.Run(context.Background())
		if !errors.Is(err, ErrCrash) || report == nil {
			t.Fatalf("Workers %d: report %v, err %v; want a crash report", workers, report, err)
		}
		got := crash{report.Iterations, report.UniqueSignatures, report.TotalCycles, err.Error()}
		if workers == 1 {
			want = got
		} else if got != want {
			t.Errorf("Workers %d: crash report %+v, Workers 1 gave %+v", workers, got, want)
		}
	}
}

func TestRunLitmusForbiddenAndAllowed(t *testing.T) {
	for _, l := range LitmusTests() {
		if l.Name != "SB" {
			continue
		}
		// SB under TSO: outcome allowed, should be observed, no violations.
		res, err := RunLitmus(l, Options{Iterations: 400, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		if res.Forbidden {
			t.Error("SB labelled forbidden under TSO")
		}
		if res.Observed == 0 {
			t.Error("SB outcome never observed under TSO")
		}
		if res.Failed || res.Verdict != "ok" || res.Outside != 0 {
			t.Errorf("SB under TSO: %+v", res)
		}
		if res.Reached == 0 || res.Reached+res.NeverReached != 4 {
			t.Errorf("SB under TSO: %d allowed outcomes reached and %d never, want the 4 of two binary loads",
				res.Reached, res.NeverReached)
		}
	}
}

// TestRunLitmusJudgesBuggyPlatform: on the bug-2 platform a coherence hammer
// (four stores against four loads of one word) produces outcomes the oracle
// forbids, which fail the run; every such outcome is one violating signature
// to the checker too, since a single writer makes static ws exact.
func TestRunLitmusJudgesBuggyPlatform(t *testing.T) {
	b := NewProgramBuilder("CoRR4", 1)
	b.Thread().Store(0).Store(0).Store(0).Store(0)
	b.Thread().Load(0).Load(0).Load(0).Load(0)
	l := Litmus{Name: "CoRR4", Prog: b.MustBuild(), Interesting: map[int]uint32{4: 0}}
	for _, bug := range []Bug{BugNone, BugLSQSkip} {
		res, err := RunLitmus(l, Options{Platform: BuggyPlatform(bug), Iterations: 512, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		buggy := bug != BugNone
		if res.Failed != buggy || (res.Outside > 0) != buggy || res.Outside != len(res.Report.Violations) {
			t.Errorf("bug %d: %d forbidden outcomes observed, %d violating signatures, verdict %q",
				bug, res.Outside, len(res.Report.Violations), res.Verdict)
		}
	}
}

// TestRunLitmusMatchesReplay: RunLitmus counts outcomes from the campaign's
// signature set. A runner built with the campaign's seed replays the
// campaign's iterations, so counting the load values it returns, against the
// oracle's allowed set, must give the same Observed, Reached, NeverReached and
// Outside: on clean TSO and RMO platforms, and on the bug-2 platform, where
// some outcomes are forbidden.
func TestRunLitmusMatchesReplay(t *testing.T) {
	b := NewProgramBuilder("CoRR4", 1)
	b.Thread().Store(0).Store(0).Store(0).Store(0)
	b.Thread().Load(0).Load(0).Load(0).Load(0)
	corr4 := Litmus{Name: "CoRR4", Prog: b.MustBuild(), Interesting: map[int]uint32{4: 0}}
	type row struct {
		litmus Litmus
		plat   Platform
	}
	var rows []row
	for _, name := range []string{"SB", "SB+F", "MP"} {
		l, err := testgen.LitmusByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{l, PlatformX86()}, row{l, PlatformARM()})
	}
	rows = append(rows, row{corr4, BuggyPlatform(BugLSQSkip)})
	const iters, seed = 512, 5
	var observed, never, outside int
	for _, r := range rows {
		label := r.litmus.Name + "/" + ModelName(r.plat)
		res, err := RunLitmus(r.litmus, Options{Platform: r.plat, Iterations: iters, Seed: seed})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		allowed, err := oracle.Allowed(r.litmus.Prog, ModelName(r.plat))
		if err != nil {
			t.Fatal(err)
		}
		isAllowed := map[string]bool{}
		for _, e := range allowed {
			isAllowed[fmt.Sprint(e.Values)] = true
		}
		runner, err := sim.NewRunner(r.plat, r.litmus.Prog, seed)
		if err != nil {
			t.Fatal(err)
		}
		var want LitmusResult
		seen := map[string]bool{}
		for i := 0; i < iters; i++ {
			ex, err := runner.Run()
			if err != nil {
				t.Fatalf("%s: replay iteration %d: %v", label, i, err)
			}
			if r.litmus.Interesting.MatchesValues(ex.LoadValues) {
				want.Observed++
			}
			seen[fmt.Sprint(ex.LoadValues)] = true
		}
		for k := range seen {
			if isAllowed[k] {
				want.Reached++
			} else {
				want.Outside++
			}
		}
		want.NeverReached = len(isAllowed) - want.Reached
		if res.Observed != want.Observed || res.Reached != want.Reached ||
			res.NeverReached != want.NeverReached || res.Outside != want.Outside {
			t.Errorf("%s: RunLitmus observed/reached/never/outside = %d/%d/%d/%d, the replay %d/%d/%d/%d",
				label, res.Observed, res.Reached, res.NeverReached, res.Outside,
				want.Observed, want.Reached, want.NeverReached, want.Outside)
		}
		observed += want.Observed
		never += want.NeverReached
		outside += want.Outside
	}
	if observed == 0 || never == 0 || outside == 0 {
		t.Errorf("the rows exercise too little: %d observed, %d never reached, %d outside in all", observed, never, outside)
	}
}

func TestPaperConfigsPresent(t *testing.T) {
	if got := len(PaperConfigs()); got != 21 {
		t.Errorf("%d paper configs, want 21", got)
	}
	if got := len(Models()); got != 4 {
		t.Errorf("%d models, want 4", got)
	}
	if ModelName(PlatformARM()) != "RMO" || ModelName(PlatformX86()) != "TSO" {
		t.Error("platform model names wrong")
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := TestConfig{Threads: 2, OpsPerThread: 10, Words: 4, Seed: 1}
	report, err := Run(cfg, Options{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if report.Iterations != 5 {
		t.Errorf("iterations = %d", report.Iterations)
	}
}

func TestDeviceHostSplit(t *testing.T) {
	// CollectSignatures (device) → Save → Load → CheckSignatures (host)
	// must agree with the integrated pipeline.
	p := mustGenerate(TestConfig{Threads: 4, OpsPerThread: 40, Words: 16, Seed: 5})
	opts := Options{Platform: PlatformX86(), Iterations: 120, Seed: 9}
	uniques, err := CollectSignatures(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(uniques) < 2 {
		t.Fatalf("only %d unique signatures", len(uniques))
	}
	var buf bytes.Buffer
	device := &Report{Program: p, Seed: opts.Seed, Platform: opts.Platform.Name}
	if err := SaveSignatures(&buf, device, uniques); err != nil {
		t.Fatal(err)
	}
	loaded, meta, err := LoadSignaturesMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta == nil {
		t.Fatal("saved with a report but loaded without provenance")
	}
	if err := ValidateSignatureMeta(meta, p, opts); err != nil {
		t.Fatalf("matching provenance rejected: %v", err)
	}
	if err := ValidateSignatureMeta(nil, p, opts); err == nil {
		t.Error("a set of unknown provenance validated")
	}
	res, err := CheckSignatures(p, loaded, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Errorf("clean signatures flagged: %d violations", len(res.Violations))
	}
	integrated, err := RunProgram(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if integrated.UniqueSignatures != len(uniques) {
		t.Errorf("device-side uniques %d, integrated %d", len(uniques), integrated.UniqueSignatures)
	}
	// The integrated run hands out the set it checked: saving it needs no
	// second collection and writes the device side's bytes.
	var viaRun, viaCollect bytes.Buffer
	if err := SaveSignatures(&viaRun, integrated, integrated.Signatures()); err != nil {
		t.Fatal(err)
	}
	if err := SaveSignatures(&viaCollect, device, uniques); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaRun.Bytes(), viaCollect.Bytes()) {
		t.Error("Run's Signatures() do not save to the bytes of CollectSignatures' set")
	}
	if err := SaveSignatures(&viaRun, nil, uniques); err == nil {
		t.Error("SaveSignatures accepted a nil report")
	}
}

func TestCheckSignaturesFlagsBuggySet(t *testing.T) {
	b := prog.NewBuilder("hammer", 1, prog.DefaultLayout())
	b.Thread()
	for i := 0; i < 20; i++ {
		b.Store(0)
	}
	b.Thread()
	for i := 0; i < 20; i++ {
		b.Load(0)
	}
	hammer := b.MustBuild()
	plat := BuggyPlatform(BugLSQSkip)
	opts := Options{Platform: plat, Iterations: 200, Seed: 11}
	uniques, err := CollectSignatures(hammer, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckSignatures(hammer, uniques, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Error("buggy signature set passed host-side checking")
	}
}

func TestWriteViolationDOT(t *testing.T) {
	b := prog.NewBuilder("hammer", 1, prog.DefaultLayout())
	b.Thread()
	for i := 0; i < 20; i++ {
		b.Store(0)
	}
	b.Thread()
	for i := 0; i < 20; i++ {
		b.Load(0)
	}
	hammer := b.MustBuild()
	opts := Options{Platform: BuggyPlatform(BugLSQSkip), Iterations: 200, Seed: 11}
	report, err := RunProgram(hammer, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Violations) == 0 {
		t.Fatal("no violations to render")
	}
	var sb bytes.Buffer
	if err := WriteViolationDOT(&sb, report, report.Violations[0], opts); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "color=red", "cluster_t1"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestIncrementalCheckerOption(t *testing.T) {
	cfg := TestConfig{Threads: 2, OpsPerThread: 50, Words: 8, Seed: 2}
	inc, err := Run(cfg, Options{Iterations: 200, Seed: 3, Checker: "incremental"})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := Run(cfg, Options{Iterations: 200, Seed: 3, Checker: "conventional"})
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Violations) != len(conv.Violations) {
		t.Errorf("incremental %d violations, conventional %d",
			len(inc.Violations), len(conv.Violations))
	}
	if inc.CheckStats.SortedVertices >= conv.CheckStats.SortedVertices {
		t.Errorf("PK moved %d vertices, baseline sorted %d",
			inc.CheckStats.SortedVertices, conv.CheckStats.SortedVertices)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(TestConfig{}, Options{Iterations: 1}); err == nil {
		t.Error("empty config accepted")
	}
	p := mustGenerate(TestConfig{Threads: 7, OpsPerThread: 5, Words: 2, Seed: 1})
	if _, err := RunProgram(p, Options{Platform: PlatformX86(), Iterations: 1}); err == nil {
		t.Error("7 threads on the 4-core platform accepted")
	}
}

func TestPrunerOptionWiredThrough(t *testing.T) {
	cfg := TestConfig{Threads: 2, OpsPerThread: 30, Words: 4, Seed: 6}
	p := mustGenerate(cfg)
	// An absurdly tight pruner turns almost every iteration into an inline
	// assertion failure, proving the option reaches the analysis.
	report, err := RunProgram(p, Options{
		Iterations: 40, Seed: 7,
		Pruner: instrument.SkewPruner(p, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.AssertionFailures) == 0 {
		t.Error("tight pruner produced no assertion failures")
	}
}

// TestShardedPipelineMatchesSerial: the Workers option must not change any
// result — execution shards skip ahead within the same seed stream, so
// Workers: N and Workers: 1 see identical iterations, signatures, and
// verdicts. Only the collective checker's effort accounting may grow by the
// per-shard boundary overhead (one complete sort per shard, plus one per
// cyclic graph delaying a shard's first valid base order).
func TestShardedPipelineMatchesSerial(t *testing.T) {
	hammer := func() *Program {
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
	cases := []struct {
		name string
		prog *Program
		plat Platform
	}{
		{"clean-x86", mustGenerate(TestConfig{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 5}), PlatformX86()},
		{"bug-lsq-skip", hammer(), BuggyPlatform(BugLSQSkip)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{Platform: c.plat, Iterations: 200, Seed: 11}
			opts.Workers = 1
			serial, err := RunProgram(c.prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.name == "bug-lsq-skip" && len(serial.Violations) == 0 {
				t.Fatal("buggy case produced no violations to compare")
			}
			for _, workers := range []int{2, 3, 4, 7} {
				opts.Workers = workers
				sharded, err := RunProgram(c.prog, opts)
				if err != nil {
					t.Fatal(err)
				}
				if sharded.Iterations != serial.Iterations ||
					sharded.TotalCycles != serial.TotalCycles ||
					sharded.Squashes != serial.Squashes {
					t.Fatalf("workers %d: execution stats diverge: iters %d/%d cycles %d/%d squashes %d/%d",
						workers, sharded.Iterations, serial.Iterations,
						sharded.TotalCycles, serial.TotalCycles, sharded.Squashes, serial.Squashes)
				}
				if sharded.UniqueSignatures != serial.UniqueSignatures {
					t.Fatalf("workers %d: %d unique signatures, serial %d",
						workers, sharded.UniqueSignatures, serial.UniqueSignatures)
				}
				if len(sharded.AssertionFailures) != len(serial.AssertionFailures) {
					t.Fatalf("workers %d: %d assertion failures, serial %d",
						workers, len(sharded.AssertionFailures), len(serial.AssertionFailures))
				}
				if len(sharded.Violations) != len(serial.Violations) {
					t.Fatalf("workers %d: %d violations, serial %d",
						workers, len(sharded.Violations), len(serial.Violations))
				}
				for i, v := range serial.Violations {
					sv := sharded.Violations[i]
					if sv.Index != v.Index || !sv.Sig.Equal(v.Sig) {
						t.Fatalf("workers %d: violation %d = (%d, %v), serial (%d, %v)",
							workers, i, sv.Index, sv.Sig, v.Index, v.Sig)
					}
					if len(sv.Cycle) != len(v.Cycle) {
						t.Fatalf("workers %d: violation %d cycle lengths differ", workers, i)
					}
					for k := range v.Cycle {
						if sv.Cycle[k] != v.Cycle[k] {
							t.Fatalf("workers %d: violation %d cycle differs", workers, i)
						}
					}
				}
				// SortedVertices modulo shard overhead: one full sort per
				// checking shard, plus window-size drift downstream of each
				// boundary (the boundary's full sort installs a different
				// maintained order than the serial chain had there).
				n := int64(c.prog.NumOps())
				sv, base := sharded.CheckStats.SortedVertices, serial.CheckStats.SortedVertices
				slack := int64(workers+len(serial.Violations))*n + base/4
				if diff := sv - base; diff < -slack || diff > slack {
					t.Fatalf("workers %d: SortedVertices %d vs serial %d exceeds slack %d",
						workers, sv, base, slack)
				}
			}
		})
	}
}

// TestCheckerBackendsAgree: every registered checker backend must deliver
// the collective checker's exact violation set — on clean and buggy
// platforms, under fault injection, and at every worker count. This is the
// acceptance gate for adding a backend to the registry.
func TestCheckerBackendsAgree(t *testing.T) {
	hammer := func() *Program {
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
	scenarios := []struct {
		name string
		prog *Program
		opts Options
	}{
		{"clean", mustGenerate(TestConfig{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 5}),
			Options{Platform: PlatformX86(), Iterations: 150, Seed: 11}},
		{"bug-lsq-skip", hammer(),
			Options{Platform: BuggyPlatform(BugLSQSkip), Iterations: 200, Seed: 11}},
		{"faulted", mustGenerate(TestConfig{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 5}),
			Options{Platform: PlatformX86(), Iterations: 150, Seed: 11, ShardRetries: 3,
				Fault: FaultConfig{Seed: 3, Rate: fault.Rates{fault.KindBitFlip: 0.2, fault.KindTruncate: 0.1, fault.KindPanic: 0.4}}}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			base := sc.opts
			base.Workers = 1
			ref, err := RunProgram(sc.prog, base)
			if err != nil {
				t.Fatal(err)
			}
			if sc.name == "bug-lsq-skip" && len(ref.Violations) == 0 {
				t.Fatal("buggy case produced no violations to compare")
			}
			for _, name := range CheckerNames() {
				for _, workers := range []int{1, 3} {
					opts := sc.opts
					opts.Checker = name
					opts.Workers = workers
					got, err := RunProgram(sc.prog, opts)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					if len(got.Violations) != len(ref.Violations) {
						t.Fatalf("%s workers=%d: %d violations, collective %d",
							name, workers, len(got.Violations), len(ref.Violations))
					}
					for i, v := range ref.Violations {
						gv := got.Violations[i]
						if gv.Index != v.Index || !gv.Sig.Equal(v.Sig) {
							t.Fatalf("%s workers=%d: violation %d = (%d, %v), collective (%d, %v)",
								name, workers, i, gv.Index, gv.Sig, v.Index, v.Sig)
						}
						if len(gv.Cycle) == 0 {
							t.Fatalf("%s workers=%d: violation %d has no cycle witness",
								name, workers, i)
						}
					}
				}
			}
		})
	}
}

// TestRunContextCancelledPerChecker: a cancelled campaign must surface
// context.Canceled for every checker backend instead of a report.
func TestRunContextCancelledPerChecker(t *testing.T) {
	p := mustGenerate(TestConfig{Threads: 2, OpsPerThread: 30, Words: 8, Seed: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range CheckerNames() {
		// A partial report may accompany the error (the CLI renders it);
		// the error itself must be the cancellation.
		if _, err := runCtx(ctx, p, Options{Iterations: 100, Seed: 3, Checker: name}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestCollectSignaturesWorkerInvariant: the device side of the split must
// produce the identical signature set for every worker count, and agree
// with the integrated pipeline.
func TestCollectSignaturesWorkerInvariant(t *testing.T) {
	p := mustGenerate(TestConfig{Threads: 4, OpsPerThread: 40, Words: 16, Seed: 5})
	opts := Options{Platform: PlatformX86(), Iterations: 120, Seed: 9, Workers: 1}
	serial, err := CollectSignatures(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 5
	sharded, err := CollectSignatures(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded) != len(serial) {
		t.Fatalf("workers 5: %d uniques, serial %d", len(sharded), len(serial))
	}
	for i := range serial {
		if !sharded[i].Sig.Equal(serial[i].Sig) || sharded[i].Count != serial[i].Count {
			t.Fatalf("unique %d: got %v x%d, want %v x%d", i,
				sharded[i].Sig, sharded[i].Count, serial[i].Sig, serial[i].Count)
		}
	}
}
