package mtracecheck

// Fault-tolerance tests: deterministic corruption injection and quarantine,
// shard retry and degradation, cancellation hygiene, and checkpoint/resume
// fidelity. They all lean on one invariant — degraded modes must change
// nothing unless a fault actually strikes, and every fault outcome must be
// reproducible for any worker count.

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mtracecheck/internal/fault"
)

// faultCfg is the small, fast test program shared by these tests.
var faultCfg = TestConfig{Threads: 3, OpsPerThread: 30, Words: 8, Seed: 1}

// sameOutcome asserts the two reports agree on everything the fault
// machinery promises to preserve: signature population, verdicts, and
// quarantine.
func sameOutcome(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Errorf("%s: iterations %d, want %d", label, got.Iterations, want.Iterations)
	}
	if got.UniqueSignatures != want.UniqueSignatures {
		t.Errorf("%s: unique signatures %d, want %d", label, got.UniqueSignatures, want.UniqueSignatures)
	}
	if len(got.Violations) != len(want.Violations) {
		t.Fatalf("%s: %d violations, want %d", label, len(got.Violations), len(want.Violations))
	}
	for i := range got.Violations {
		if !got.Violations[i].Sig.Equal(want.Violations[i].Sig) {
			t.Errorf("%s: violation %d signature mismatch", label, i)
		}
	}
	if len(got.Quarantined) != len(want.Quarantined) {
		t.Fatalf("%s: %d quarantined, want %d", label, len(got.Quarantined), len(want.Quarantined))
	}
	for i := range got.Quarantined {
		g, w := got.Quarantined[i], want.Quarantined[i]
		if !g.Sig.Equal(w.Sig) || g.Kind != w.Kind || g.Count != w.Count {
			t.Errorf("%s: quarantine entry %d: %v/%v/%d, want %v/%v/%d",
				label, i, g.Sig, g.Kind, g.Count, w.Sig, w.Kind, w.Count)
		}
	}
}

// runCtx is the cancellable RunProgram: NewCampaign + Campaign.Run(ctx).
func runCtx(ctx context.Context, p *Program, opts Options) (*Report, error) {
	c, err := NewCampaign(p, opts)
	if err != nil {
		return nil, err
	}
	return c.Run(ctx)
}

// TestFaultInjectionWorkerInvariant: corruption is keyed by signature
// content, so the quarantine and the surviving set must be identical for
// every worker count — the same invariance contract the clean pipeline has.
func TestFaultInjectionWorkerInvariant(t *testing.T) {
	base := Options{
		Iterations: 200, Seed: 3,
		Fault: FaultConfig{Seed: 11, Rate: fault.Rates{fault.KindBitFlip: 0.05, fault.KindTruncate: 0.03, fault.KindDuplicate: 0.03, fault.KindOutOfRange: 0.03}},
	}
	opts := base
	opts.Workers = 1
	serial, err := Run(faultCfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if serial.InjectedFaults == nil {
		t.Fatal("no faults injected at these rates; tune the fault seed")
	}
	if len(serial.Quarantined) == 0 {
		t.Fatal("no signatures quarantined; tune the fault seed")
	}
	for _, workers := range []int{2, 3, 7} {
		opts := base
		opts.Workers = workers
		got, err := Run(faultCfg, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameOutcome(t, "workers="+string(rune('0'+workers)), got, serial)
		for k, n := range serial.InjectedFaults {
			if got.InjectedFaults[k] != n {
				t.Errorf("workers=%d: injected %v=%d, want %d", workers, k, got.InjectedFaults[k], n)
			}
		}
	}
}

// TestZeroFaultMatchesBaseline: enabling the tolerance machinery without
// any fault striking must be bit-identical to the plain pipeline — graceful
// vs strict, zero-rate injection, retries armed, all of it.
func TestZeroFaultMatchesBaseline(t *testing.T) {
	baseline, err := Run(faultCfg, Options{Iterations: 150, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]Options{
		"strict":         {Iterations: 150, Seed: 4, Strict: true},
		"zero-rates":     {Iterations: 150, Seed: 4, Fault: FaultConfig{Seed: 99}},
		"retries-armed":  {Iterations: 150, Seed: 4, ShardRetries: 3},
		"threshold-set":  {Iterations: 150, Seed: 4, QuarantineThreshold: 0.01},
		"workers-capped": {Iterations: 150, Seed: 4, Workers: 2, ShardRetries: 1},
	}
	for label, opts := range variants {
		got, err := Run(faultCfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameOutcome(t, label, got, baseline)
		if got.InjectedFaults != nil || got.Partial() || len(got.Quarantined) != 0 {
			t.Errorf("%s: fault machinery left tracks on a clean run: %+v", label, got)
		}
		if got.CheckStats.SortedVertices != baseline.CheckStats.SortedVertices &&
			opts.Workers == 0 {
			t.Errorf("%s: checking effort %d, baseline %d",
				label, got.CheckStats.SortedVertices, baseline.CheckStats.SortedVertices)
		}
	}
}

// TestBitFlipAcceptance is the headline robustness scenario: a clean x86
// run with 1% bit-flip injection completes without aborting and quarantines
// the signatures that no longer decode. A flip that lands on another valid
// encoding is checked as a real observation (DESIGN §9), so it may form a
// cycle; what the fault machinery promises is that every violation it
// reports comes from such a flip — a signature the same campaign without
// faults never produced — while that campaign reports none.
func TestBitFlipAcceptance(t *testing.T) {
	opts := Options{Platform: PlatformX86(), Iterations: 300, Seed: 1}
	clean, err := Run(faultCfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Violations) != 0 {
		t.Fatalf("%d MCM violations on a clean platform without faults", len(clean.Violations))
	}
	produced := map[string]bool{}
	for _, u := range clean.Signatures() {
		produced[u.Sig.Key()] = true
	}

	opts.Fault = FaultConfig{Seed: 7, Rate: fault.Rates{fault.KindBitFlip: 0.01}}
	report, err := Run(faultCfg, opts)
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if report.InjectedFaults[FaultBitFlip] == 0 {
		t.Fatal("no bit flips injected; tune the fault seed")
	}
	if len(report.Quarantined) == 0 {
		t.Fatal("corrupted signatures were not quarantined")
	}
	for _, v := range report.Violations {
		if produced[v.Sig.Key()] {
			t.Errorf("violation on signature %v, which the run without faults produced", v.Sig)
		}
	}
	if counts := report.QuarantineCounts(); counts[QuarantineDecode] != len(report.Quarantined) {
		t.Errorf("quarantine counts %v do not cover %d entries", counts, len(report.Quarantined))
	}
}

func TestQuarantineThresholdExceeded(t *testing.T) {
	report, err := Run(faultCfg, Options{
		Iterations: 150, Seed: 3,
		QuarantineThreshold: 0.01,
		Fault:               FaultConfig{Seed: 11, Rate: fault.Rates{fault.KindOutOfRange: 0.5}},
	})
	if !errors.Is(err, ErrQuarantineThreshold) {
		t.Fatalf("err = %v, want ErrQuarantineThreshold", err)
	}
	if report == nil || len(report.Quarantined) == 0 {
		t.Fatal("threshold error without a populated quarantine")
	}
}

func TestStrictAbortsOnCorruption(t *testing.T) {
	report, err := Run(faultCfg, Options{
		Iterations: 150, Seed: 3,
		Strict: true,
		Fault:  FaultConfig{Seed: 11, Rate: fault.Rates{fault.KindOutOfRange: 0.5}},
	})
	if err == nil {
		t.Fatal("strict mode tolerated corrupted signatures")
	}
	if errors.Is(err, ErrQuarantineThreshold) || errors.Is(err, ErrCrash) {
		t.Fatalf("strict decode failure misclassified: %v", err)
	}
	if report != nil && len(report.Quarantined) != 0 {
		t.Error("strict mode still quarantined")
	}
}

func TestBadFaultConfigRejected(t *testing.T) {
	_, err := Run(faultCfg, Options{
		Iterations: 10, Seed: 1,
		Fault: FaultConfig{Rate: fault.Rates{fault.KindBitFlip: 1.5}},
	})
	if err == nil {
		t.Error("out-of-range fault rate accepted")
	}
}

// TestKnobsOutsideUnitRangeRefused: a fault rate or a quarantine threshold
// that is NaN or outside [0, 1] is refused by NewCampaign, naming the value —
// NaN fails every comparison, so it used to mean "inject nothing" or "no
// limit" — and so is a wire kind, a worker's to inject.
func TestKnobsOutsideUnitRangeRefused(t *testing.T) {
	nan := math.NaN()
	for want, opts := range map[string]Options{
		"bit-flip rate NaN outside [0, 1]":                                          {Fault: FaultConfig{Rate: fault.Rates{fault.KindBitFlip: nan}}},
		"panic rate -0.5 outside [0, 1]":                                            {Fault: FaultConfig{Rate: fault.Rates{fault.KindPanic: -0.5}}},
		"QuarantineThreshold must be a fraction in [0, 1] (0 = no limit), got NaN":  {QuarantineThreshold: nan},
		"QuarantineThreshold must be a fraction in [0, 1] (0 = no limit), got -0.5": {QuarantineThreshold: -0.5},
		"QuarantineThreshold must be a fraction in [0, 1] (0 = no limit), got 1.5":  {QuarantineThreshold: 1.5},
		"wire-drop is not injected here":                                            {Fault: FaultConfig{Rate: fault.Rates{fault.KindWireDrop: 0.5}}},
	} {
		opts.Iterations = 10
		if _, err := Run(faultCfg, opts); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: %v, want an error containing %q", opts, err, want)
		}
	}
}

// TestShardPanicRetried: transient shard panics with retries enabled must
// leave no trace — the retried campaign equals the clean one exactly.
func TestShardPanicRetried(t *testing.T) {
	clean, err := Run(faultCfg, Options{Iterations: 120, Seed: 5, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		report, err := Run(faultCfg, Options{
			Iterations: 120, Seed: 5, Workers: workers,
			ShardRetries: 2,
			Fault:        FaultConfig{Seed: 8, Rate: fault.Rates{fault.KindPanic: 1}},
		})
		if err != nil {
			t.Fatalf("workers=%d: retried run failed: %v", workers, err)
		}
		if report.Partial() {
			t.Fatalf("workers=%d: retried run still partial: %+v", workers, report.ShardFailures)
		}
		sameOutcome(t, "panic-retried", report, clean)
	}
}

// TestShardPanicExhaustedRetries: with retries off, every shard dies; the
// graceful pipeline degrades to honestly-labeled partial results while
// strict mode fails the run.
func TestShardPanicExhaustedRetries(t *testing.T) {
	opts := Options{
		Iterations: 120, Seed: 5, Workers: 2,
		ShardRetries: 0,
		Fault:        FaultConfig{Seed: 8, Rate: fault.Rates{fault.KindPanic: 1}},
	}
	report, err := Run(faultCfg, opts)
	if err != nil {
		t.Fatalf("graceful degradation returned error: %v", err)
	}
	if !report.Partial() || len(report.ShardFailures) != 2 {
		t.Fatalf("%d shard failures, want 2 (partial=%v)", len(report.ShardFailures), report.Partial())
	}
	for _, sf := range report.ShardFailures {
		if !errors.Is(sf.Err, ErrShardFailed) {
			t.Errorf("shard failure error %v does not wrap ErrShardFailed", sf.Err)
		}
		if sf.Attempts != 1 || sf.Count == 0 {
			t.Errorf("shard failure bookkeeping: %+v", sf)
		}
	}
	// The partial report still covers the iterations that did execute.
	if report.Iterations >= 120 || report.UniqueSignatures == 0 {
		t.Errorf("partial accounting: %d iterations, %d uniques",
			report.Iterations, report.UniqueSignatures)
	}

	opts.Strict = true
	_, err = Run(faultCfg, opts)
	if !errors.Is(err, ErrShardFailed) {
		t.Fatalf("strict mode err = %v, want ErrShardFailed", err)
	}
}

// TestCancellationPrompt: a cancelled campaign must return quickly with the
// context's error and leak no pipeline goroutines.
func TestCancellationPrompt(t *testing.T) {
	p, err := NewProgramBuilderFromConfig(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = runCtx(ctx, p, Options{Iterations: 5_000_000, Seed: 2, Workers: 4})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// All pipeline goroutines must wind down; poll briefly to let the
	// runtime reap them.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := NewProgramBuilderFromConfig(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCtx(ctx, p, Options{Iterations: 1000, Seed: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCheckpointResumeFidelity: an interrupted-then-resumed campaign must
// produce the same report as the uninterrupted one — including under fault
// injection, since corruption is a pure function of the final merged set.
func TestCheckpointResumeFidelity(t *testing.T) {
	cases := map[string]FaultConfig{
		"clean":     {},
		"corrupted": {Seed: 11, Rate: fault.Rates{fault.KindBitFlip: 0.05, fault.KindOutOfRange: 0.03}},
	}
	for label, fc := range cases {
		full, err := Run(faultCfg, Options{Iterations: 256, Seed: 6, Fault: fc})
		if err != nil {
			t.Fatalf("%s: uninterrupted run: %v", label, err)
		}
		ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")
		// "Interrupted" leg: run only half the iterations, checkpointing as
		// we go, then resume to the full count in a fresh invocation.
		if _, err := Run(faultCfg, Options{
			Iterations: 128, Seed: 6, Fault: fc,
			CheckpointPath: ckpt, CheckpointEvery: 64,
		}); err != nil {
			t.Fatalf("%s: first leg: %v", label, err)
		}
		if _, err := os.Stat(ckpt); err != nil {
			t.Fatalf("%s: no checkpoint written: %v", label, err)
		}
		resumed, err := Run(faultCfg, Options{
			Iterations: 256, Seed: 6, Fault: fc,
			CheckpointPath: ckpt, CheckpointEvery: 64, Resume: true,
		})
		if err != nil {
			t.Fatalf("%s: resumed leg: %v", label, err)
		}
		if resumed.ResumedIterations == 0 {
			t.Fatalf("%s: resume executed from scratch", label)
		}
		sameOutcome(t, label+"/resumed", resumed, full)
		// The resumed run's checkpoint now covers the full campaign: a
		// second resume executes nothing — it does not even build a
		// sim.Runner, which would reject this platform — and still reports
		// identically.
		p, err := NewProgramBuilderFromConfig(faultCfg)
		if err != nil {
			t.Fatal(err)
		}
		noRunner := PlatformX86()
		noRunner.Window = 0
		if _, err := RunProgram(p, Options{Iterations: 64, Platform: noRunner}); err == nil {
			t.Fatal("a platform without an issue window ran: it no longer shows whether a Runner is built")
		}
		metrics := NewMetrics()
		again, err := RunProgram(p, Options{
			Iterations: 256, Seed: 6, Fault: fc, Platform: noRunner,
			CheckpointPath: ckpt, Resume: true, Observer: metrics,
		})
		if err != nil {
			t.Fatalf("%s: second resume: %v", label, err)
		}
		if n := metrics.Snapshot().Series["mtracecheck_shard_attempts_total"]; again.ResumedIterations != 256 || n != 0 {
			t.Errorf("%s: second resume restored %d iterations and started %v execution chunks, want 256 and 0",
				label, again.ResumedIterations, n)
		}
		sameOutcome(t, label+"/fully-resumed", again, full)
		for name, r := range map[string]*Report{"resumed": resumed, "fully-resumed": again} {
			if r.TotalCycles != full.TotalCycles || r.Squashes != full.Squashes {
				t.Errorf("%s/%s: %d cycles / %d squashes, uninterrupted %d / %d", label, name,
					r.TotalCycles, r.Squashes, full.TotalCycles, full.Squashes)
			}
		}
	}
}

func TestResumeValidation(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "c.ckpt")
	if _, err := Run(faultCfg, Options{Iterations: 40, Seed: 6, CheckpointPath: ckpt, CheckpointEvery: 20}); err != nil {
		t.Fatal(err)
	}
	// Wrong seed.
	if _, err := Run(faultCfg, Options{Iterations: 40, Seed: 7, CheckpointPath: ckpt, Resume: true}); err == nil {
		t.Error("seed mismatch accepted")
	}
	// Wrong program.
	otherCfg := faultCfg
	otherCfg.Seed = 99
	if _, err := Run(otherCfg, Options{Iterations: 40, Seed: 6, CheckpointPath: ckpt, Resume: true}); err == nil {
		t.Error("program mismatch accepted")
	}
	// Checkpoint ahead of the campaign.
	if _, err := Run(faultCfg, Options{Iterations: 20, Seed: 6, CheckpointPath: ckpt, Resume: true}); err == nil {
		t.Error("checkpoint covering more iterations than requested accepted")
	}
	// Resume without a path, and with a missing file.
	if _, err := Run(faultCfg, Options{Iterations: 40, Seed: 6, Resume: true}); err == nil {
		t.Error("resume without CheckpointPath accepted")
	}
	if _, err := Run(faultCfg, Options{Iterations: 40, Seed: 6,
		CheckpointPath: filepath.Join(dir, "missing.ckpt"), Resume: true}); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

// TestCollectSignaturesFaultParity: the device-side entry point applies the
// same corruption as the full pipeline, so a split campaign observes the
// same surviving set.
func TestCollectSignaturesFaultParity(t *testing.T) {
	p, err := NewProgramBuilderFromConfig(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Iterations: 150, Seed: 3,
		Fault: FaultConfig{Seed: 11, Rate: fault.Rates{fault.KindBitFlip: 0.05, fault.KindTruncate: 0.05}},
	}
	uniques, err := CollectSignatures(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunProgram(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(uniques) != report.UniqueSignatures {
		t.Errorf("collected %d uniques, pipeline saw %d", len(uniques), report.UniqueSignatures)
	}
}
