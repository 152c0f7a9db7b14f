package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mtracecheck"
	"mtracecheck/internal/check"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
	"mtracecheck/internal/testgen"
)

// TestPlatformSelection pins what the -isa, -bug and -os flags select; the
// resolution itself is sim.PlatformFor, shared with the dist job spec.
func TestPlatformSelection(t *testing.T) {
	cases := []struct {
		isa, bug string
		os       bool
		wantName string
		wantErr  bool
	}{
		{"x86", "", false, "x86-64 Core2Quad", false},
		{"ARM", "", true, "ARMv7 Exynos5422", false},
		{"x86", "sm-inv", false, "gem5 8-core x86", false},
		{"x86", "lsq-skip", true, "gem5 8-core x86", false},
		{"ARM", "wb-race", false, "gem5 8-core x86", false},
		{"mips", "", false, "", true},
		{"x86", "bogus", false, "", true},
	}
	for _, c := range cases {
		p, err := sim.PlatformFor(c.isa, c.bug, c.os)
		if c.wantErr {
			if err == nil {
				t.Errorf("PlatformFor(%q, %q): no error", c.isa, c.bug)
			}
			continue
		}
		if err != nil {
			t.Errorf("PlatformFor(%q, %q): %v", c.isa, c.bug, err)
			continue
		}
		if p.Name != c.wantName || p.OS.Enabled != c.os {
			t.Errorf("PlatformFor(%q, %q, %v) = %q with OS %v, want %q", c.isa, c.bug, c.os, p.Name, p.OS.Enabled, c.wantName)
		}
	}
}

// TestInterruptAndResume drives the real binary: a checkpointing campaign is
// killed (SIGKILL, mid-chunk) once its checkpoint covers two chunks, and
// "-resume" must then print the uninterrupted run's report — simulated cycles
// included — and write its signature file byte for byte. Injected stalls slow
// the victim so that the kill always lands mid-campaign; they change no result.
func TestInterruptAndResume(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the CLI with")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "mtracecheck")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building the CLI: %v\n%s", err, out)
	}
	ckpt := filepath.Join(dir, "run.ckpt")
	campaign := []string{"-threads", "3", "-ops", "30", "-words", "8", "-seed", "6",
		"-iters", "384", "-workers", "1", "-checkpoint-every", "64"}
	mtc := func(extra ...string) string {
		t.Helper()
		out, err := exec.Command(bin, append(campaign, extra...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("mtracecheck %v: %v\n%s", extra, err, out)
		}
		return string(out)
	}
	want := mtc("-sigs-out", filepath.Join(dir, "ref.sigs"))

	victim := exec.Command(bin, append(campaign, "-checkpoint", ckpt, "-fault-stall", "1", "-fault-stall-for", "300ms")...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { victim.Process.Kill() })
	exited := make(chan error, 1)
	go func() { exited <- victim.Wait() }()
	for covered := 0; covered < 128; {
		select {
		case err := <-exited:
			t.Fatalf("the campaign ended (%v) with %d iterations checkpointed, before it could be killed", err, covered)
		case <-time.After(5 * time.Millisecond):
		}
		if f, err := os.Open(ckpt); err == nil {
			// The rename is atomic: whatever is there is a whole checkpoint.
			ck, err := sig.ReadCheckpoint(f)
			f.Close()
			if err != nil {
				t.Fatalf("checkpoint of the running campaign: %v", err)
			}
			covered = ck.Completed()
		}
	}
	victim.Process.Kill()
	<-exited

	got := mtc("-checkpoint", ckpt, "-resume", "-sigs-out", filepath.Join(dir, "resumed.sigs"))
	if !strings.Contains(got, "resumed:") {
		t.Errorf("the resumed run does not say what it restored:\n%s", got)
	}
	report := func(out string) string {
		var kept []string
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "resumed:") && !strings.HasPrefix(line, "signatures written to") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	if report(got) != report(want) {
		t.Errorf("resumed report:\n%s\nuninterrupted:\n%s", got, want)
	}
	ref, err := os.ReadFile(filepath.Join(dir, "ref.sigs"))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(filepath.Join(dir, "resumed.sigs"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, ref) {
		t.Error("the resumed run's signature file differs from the uninterrupted run's")
	}
}

func TestDumpSignaturesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sigs.bin")
	cfg := mtracecheck.TestConfig{Threads: 2, OpsPerThread: 20, Words: 4, Seed: 1}
	p, err := testgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := mtracecheck.RunProgram(p, mtracecheck.Options{Iterations: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := dumpSignatures(path, report); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	uniques, meta, err := mtracecheck.LoadSignaturesMeta(f)
	if err != nil {
		t.Fatal(err)
	}
	if meta == nil || meta.Seed != 2 {
		t.Errorf("provenance header = %+v, want seed 2", meta)
	}
	if len(uniques) == 0 {
		t.Fatal("no signatures written")
	}
	total := 0
	for _, u := range uniques {
		total += u.Count
	}
	if total != 30 {
		t.Errorf("total observations = %d, want 30", total)
	}
}

func TestParseCheckerListsValidValues(t *testing.T) {
	for name, want := range map[string]mtracecheck.Checker{
		"collective":   mtracecheck.CheckerCollective,
		"conventional": mtracecheck.CheckerConventional,
		"incremental":  mtracecheck.CheckerIncremental,
		"vectorclock":  mtracecheck.CheckerVectorClock,
	} {
		got, err := parseChecker(name)
		if err != nil || got != want {
			t.Errorf("parseChecker(%q) = %v, %v", name, got, err)
		}
	}
	// Every registered backend must parse — the flag's valid set is the
	// registry, not a hand-maintained list.
	for _, name := range mtracecheck.CheckerNames() {
		if c, err := parseChecker(name); err != nil {
			t.Errorf("registered backend %q does not parse: %v", name, err)
		} else if c.String() != name {
			t.Errorf("parseChecker(%q).String() = %q", name, c)
		}
	}
	for _, bad := range []string{"", "colective", "pk"} {
		_, err := parseChecker(bad)
		if err == nil {
			t.Errorf("parseChecker(%q): no error", bad)
			continue
		}
		// The error's valid-value list is derived from the backend registry.
		for _, valid := range mtracecheck.CheckerNames() {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("parseChecker(%q) error %q does not list %q", bad, err, valid)
			}
		}
	}
}

// TestReportRunErrorExitCodes pins the exit-code contract: crashes are
// findings (1), quarantine overflow has its own code (3), everything else
// is infrastructure (2).
func TestReportRunErrorExitCodes(t *testing.T) {
	report := &mtracecheck.Report{Iterations: 5}
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("boom: %w", mtracecheck.ErrCrash), exitFinding},
		{fmt.Errorf("wrapped: %w", mtracecheck.ErrQuarantineThreshold), exitQuarantine},
		{fmt.Errorf("wrapped: %w", mtracecheck.ErrShardFailed), exitInfra},
		{errors.New("plain failure"), exitInfra},
	}
	for _, c := range cases {
		if got := reportRunError(report, c.err); got != c.want {
			t.Errorf("reportRunError(%v) = %d, want %d", c.err, got, c.want)
		}
	}
	// A nil report must not panic the crash path.
	if got := reportRunError(nil, mtracecheck.ErrCrash); got != exitFinding {
		t.Errorf("nil-report crash exit %d, want %d", got, exitFinding)
	}
}

// TestRunCheckOnly exercises the host side end to end: signatures written
// by the device side must check clean (exit 0), and a missing file is an
// infrastructure error.
func TestRunCheckOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sigs.bin")
	cfg := mtracecheck.TestConfig{Threads: 2, OpsPerThread: 20, Words: 4, Seed: 1}
	opts := mtracecheck.Options{Iterations: 50, Seed: 2}
	p, err := checkProgram("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := mtracecheck.RunProgram(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := dumpSignatures(path, report); err != nil {
		t.Fatal(err)
	}
	opts.Platform = mtracecheck.PlatformX86()
	if code := runCheckOnly(path, p, opts, false); code != exitPass {
		t.Errorf("clean signatures: exit %d, want %d", code, exitPass)
	}
	if code := runCheckOnly(filepath.Join(dir, "missing.bin"), p, opts, false); code != exitInfra {
		t.Errorf("missing file: exit %d, want %d", code, exitInfra)
	}
	// Provenance mismatch: a different seed must be rejected before checking.
	opts.Seed = 99
	if code := runCheckOnly(path, p, opts, false); code != exitInfra {
		t.Errorf("mismatched seed: exit %d, want %d", code, exitInfra)
	}
}

func TestCheckProgramLoadsOrGenerates(t *testing.T) {
	cfg := mtracecheck.TestConfig{Threads: 2, OpsPerThread: 10, Words: 4, Seed: 3}
	generated, err := checkProgram("", cfg)
	if err != nil || generated == nil {
		t.Fatalf("generate path: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.txt")
	if err := saveProgram(path, cfg); err != nil {
		t.Fatal(err)
	}
	loaded, err := checkProgram(path, cfg)
	if err != nil {
		t.Fatalf("load path: %v", err)
	}
	if loaded.NumOps() != generated.NumOps() {
		t.Errorf("loaded program has %d ops, generated %d", loaded.NumOps(), generated.NumOps())
	}
	if _, err := checkProgram(filepath.Join(dir, "missing.txt"), cfg); err == nil {
		t.Error("missing program file accepted")
	}
}

// TestPrintCheckersMatchesRegistry pins -list-checkers to the backend
// registry: one backend per line, in the registry's sorted order, nothing
// hand-maintained in between.
func TestPrintCheckersMatchesRegistry(t *testing.T) {
	var sb strings.Builder
	printCheckers(&sb)
	want := strings.Join(check.Backends(), "\n") + "\n"
	if sb.String() != want {
		t.Errorf("printCheckers output:\n%qwant:\n%q", sb.String(), want)
	}
}

// TestRunTraceCheck pins the external-trace mode's exit-code contract over
// the golden traces: a model-consistent trace passes (0), a violating one
// is a finding (1), and configuration trouble — missing file, malformed
// trace, unknown model — is infrastructure (2). Every checker backend must
// produce the same verdicts.
func TestRunTraceCheck(t *testing.T) {
	golden := filepath.Join("..", "..", "internal", "trace", "testdata")
	cases := []struct {
		file, model string
		want        int
	}{
		{"sc_valid.trace", "sc", exitPass},
		{"sc_violation.trace", "sc", exitFinding},
		{"tso_valid.trace", "tso", exitPass},
		{"tso_violation.trace", "tso", exitFinding},
		{"pso_valid.trace", "pso", exitPass},
		{"pso_violation.trace", "pso", exitFinding},
		{"rmo_valid.trace", "rmo", exitPass},
		{"rmo_violation.trace", "rmo", exitFinding},
	}
	for _, name := range mtracecheck.CheckerNames() {
		ck, err := parseChecker(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := mtracecheck.Options{Checker: ck}
		for _, c := range cases {
			got := runTraceCheck(filepath.Join(golden, c.file), c.model, opts, true)
			if got != c.want {
				t.Errorf("%s under %s (%s): exit %d, want %d", c.file, c.model, name, got, c.want)
			}
		}
	}

	opts := mtracecheck.Options{}
	if got := runTraceCheck(filepath.Join(golden, "missing.trace"), "sc", opts, false); got != exitInfra {
		t.Errorf("missing file: exit %d, want %d", got, exitInfra)
	}
	if got := runTraceCheck(filepath.Join(golden, "sc_valid.trace"), "ptx", opts, false); got != exitInfra {
		t.Errorf("unknown model: exit %d, want %d", got, exitInfra)
	}
	bad := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(bad, []byte("0: M[zz] := 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runTraceCheck(bad, "sc", opts, false); got != exitInfra {
		t.Errorf("malformed trace: exit %d, want %d", got, exitInfra)
	}
}

func TestUnknownBugErrorListsValidValues(t *testing.T) {
	_, err := sim.PlatformFor("x86", "bogus", false)
	if err == nil {
		t.Fatal("unknown bug accepted")
	}
	for _, valid := range []string{"sm-inv", "lsq-skip", "wb-race"} {
		if !strings.Contains(err.Error(), valid) {
			t.Errorf("error %q does not list %q", err, valid)
		}
	}
}
