package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mtracecheck"
	"mtracecheck/internal/check"
	"mtracecheck/internal/dist"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// The tests that drive real processes share one build of the binaries,
// made on first use into a directory TestMain removes.
var (
	binOnce sync.Once
	binDir  string
	binErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// binary returns the path of one of mtracecheck, mtracecheck-server,
// mtracecheck-worker and mtc-experiments, building all four the first time any
// is asked for.
func binary(t *testing.T, name string) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the binaries with")
	}
	binOnce.Do(func() {
		if binDir, binErr = os.MkdirTemp("", "mtracecheck-bin"); binErr != nil {
			return
		}
		out, err := exec.Command(goTool, "build", "-o", binDir+string(filepath.Separator),
			"mtracecheck/cmd/mtracecheck", "mtracecheck/cmd/mtracecheck-server", "mtracecheck/cmd/mtracecheck-worker",
			"mtracecheck/cmd/mtc-experiments").CombinedOutput()
		if err != nil {
			binErr = fmt.Errorf("building the binaries: %v\n%s", err, out)
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return filepath.Join(binDir, name)
}

// mtc runs the mtracecheck binary, requires the exit code, and returns what it
// wrote to stdout and stderr.
func mtc(t *testing.T, wantExit int, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(binary(t, "mtracecheck"), args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("mtracecheck %v: %v", args, err)
	}
	if got := cmd.ProcessState.ExitCode(); got != wantExit {
		t.Fatalf("mtracecheck %v: exit %d, want %d\n%s%s", args, got, wantExit, &out, &errOut)
	}
	return out.String(), errOut.String()
}

// keepLines returns s without the lines that match drop.
func keepLines(s string, drop *regexp.Regexp) string {
	var kept []string
	for _, line := range strings.Split(s, "\n") {
		if !drop.MatchString(line) {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// metric returns the value of one series in a Prometheus text file.
func metric(t *testing.T, file, name string) string {
	t.Helper()
	for _, line := range strings.Split(readFile(t, file), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("%s has no %s series", file, name)
	return ""
}

// checkingLine matches the per-backend effort line, the one report line that
// may differ between backends, worker counts, and cold and warm corpus runs.
var checkingLine = regexp.MustCompile(`checking:`)

// TestSmoke drives the built binaries end to end, one case per property the
// command line promises across runs. Skipped under -short.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}

	// The same campaign run bare and with all three observers attached prints
	// a bit-identical report (the observers' non-perturbation contract, end to
	// end), and the metrics and trace artifacts materialize with real content.
	t.Run("obs", func(t *testing.T) {
		dir := t.TempDir()
		campaign := []string{"-threads", "2", "-ops", "30", "-words", "8", "-iters", "200", "-seed", "7"}
		bare, _ := mtc(t, exitPass, campaign...)
		observed, progress := mtc(t, exitPass, append(campaign, "-progress",
			"-metrics-out", filepath.Join(dir, "metrics.prom"), "-trace-out", filepath.Join(dir, "trace.json"))...)
		if observed != bare {
			t.Errorf("observed report differs from the bare run:\n%s\nbare:\n%s", observed, bare)
		}
		if got := metric(t, filepath.Join(dir, "metrics.prom"), "mtracecheck_iterations_total"); got != "200" {
			t.Errorf("metrics snapshot counts %s iterations, want 200", got)
		}
		trace := readFile(t, filepath.Join(dir, "trace.json"))
		if !strings.Contains(trace, `"ph":"X"`) || !strings.HasSuffix(strings.TrimSpace(trace), "]") {
			t.Error("trace output has no spans or is unterminated")
		}
		if !strings.Contains(progress, "obs:") {
			t.Errorf("no progress lines on stderr:\n%s", progress)
		}
	})

	// The work-stealing pipeline produces bit-identical artifacts at every
	// worker count: the report (modulo the partition-dependent effort line),
	// the signature file, and the worker-invariant metrics Totals. Effort
	// series are partition- and timing-dependent by design and filtered out.
	// Each run is one campaign of 400 iterations: -sigs-out writes the run's
	// own set, it does not collect again.
	t.Run("scaling", func(t *testing.T) {
		effort := regexp.MustCompile(`mtracecheck_(shard_attempts|shard_retries|retried_iterations|sorted_vertices|backward_edges|graphs_by_kind|max_resort_window|stage_seconds|clock_updates|propagations|check_shards)`)
		var report, sigs, totals [2]string
		for i, w := range []string{"1", "4"} {
			dir := t.TempDir()
			out, _ := mtc(t, exitPass, "-threads", "4", "-ops", "40", "-words", "16", "-iters", "400", "-seed", "11",
				"-workers", w, "-sigs-out", filepath.Join(dir, "sigs"), "-metrics-out", filepath.Join(dir, "metrics"))
			report[i] = strings.ReplaceAll(keepLines(out, checkingLine), dir, "DIR")
			sigs[i] = readFile(t, filepath.Join(dir, "sigs"))
			totals[i] = keepLines(readFile(t, filepath.Join(dir, "metrics")), effort)
			if it, c := metric(t, filepath.Join(dir, "metrics"), "mtracecheck_iterations_total"),
				metric(t, filepath.Join(dir, "metrics"), "mtracecheck_campaigns_total"); it != "400" || c != "1" {
				t.Errorf("-workers %s with -sigs-out ran %s campaigns of %s iterations, want one of 400", w, c, it)
			}
		}
		if report[0] != report[1] {
			t.Errorf("report differs between -workers 1 and 4:\n%s\n%s", report[0], report[1])
		}
		if sigs[0] != sigs[1] {
			t.Error("signature file differs between -workers 1 and 4")
		}
		if totals[0] != totals[1] {
			t.Errorf("metrics Totals differ between -workers 1 and 4:\n%s\n%s", totals[0], totals[1])
		}
	})

	// One collected signature set checked with every registered backend (a new
	// backend joins automatically): all verdicts are identical; only the
	// per-backend effort line may differ.
	t.Run("diff-check", func(t *testing.T) {
		dir := t.TempDir()
		progFile, sigs := filepath.Join(dir, "prog"), filepath.Join(dir, "sigs")
		mtc(t, exitPass, "-threads", "4", "-ops", "40", "-words", "16", "-iters", "400", "-seed", "11",
			"-dump-prog", progFile, "-sigs-out", sigs)
		verdict := func(checker string) string {
			out, _ := mtc(t, exitPass, "-prog", progFile, "-iters", "400", "-seed", "11", "-sigs-in", sigs, "-checker", checker)
			return keepLines(out, checkingLine)
		}
		want := verdict("collective")
		for _, c := range mtracecheck.CheckerNames() {
			if got := verdict(c); got != want {
				t.Errorf("%s verdict differs from collective:\n%s\ncollective:\n%s", c, got, want)
			}
		}
	})

	// The committed golden traces through the -trace front door: a violating
	// TSO trace is a finding, a valid one passes, and the serial constraints
	// oracle prints the verdict the vectorclock backend does.
	t.Run("trace", func(t *testing.T) {
		golden := filepath.Join("..", "..", "internal", "trace", "testdata")
		mtc(t, exitFinding, "-trace", filepath.Join(golden, "tso_violation.trace"), "-mcm", "tso")
		mtc(t, exitPass, "-trace", filepath.Join(golden, "tso_valid.trace"), "-mcm", "tso")
		var verdict [2]string
		for i, c := range []string{"constraints", "vectorclock"} {
			out, _ := mtc(t, exitFinding, "-trace", filepath.Join(golden, "tso_violation.trace"), "-mcm", "tso", "-checker", c, "-v")
			verdict[i] = keepLines(out, checkingLine)
		}
		if verdict[0] != verdict[1] {
			t.Errorf("constraints and vectorclock verdicts differ:\n%s\n%s", verdict[0], verdict[1])
		}
	})

	// -listen decides only where chunks execute. With two honest workers the
	// distributed run prints the in-process run's stdout, the dist robustness
	// line apart, and writes its signature file byte for byte; so it does with
	// one honest worker, one SIGKILLed mid-campaign and one corrupting every
	// upload (quarantined server-side): worker failures may cost wall-clock,
	// never results.
	t.Run("dist", func(t *testing.T) {
		campaign := []string{"-threads", "4", "-ops", "40", "-words", "16", "-iters", "1280", "-seed", "11"}
		refDir := t.TempDir()
		robustness := regexp.MustCompile(`(?m)^dist robustness:`)
		ref, _ := mtc(t, exitPass, append(campaign, "-sigs-out", filepath.Join(refDir, "sigs"))...)
		ref = strings.ReplaceAll(ref, refDir, "DIR")
		refSigs := readFile(t, filepath.Join(refDir, "sigs"))
		fleets := map[string]func(t *testing.T, worker func(args ...string) *exec.Cmd){
			"honest": func(t *testing.T, worker func(args ...string) *exec.Cmd) {
				worker("-id", "honest-1", "-exit-when-idle")
				worker("-id", "honest-2", "-exit-when-idle")
			},
			"hostile": func(t *testing.T, worker func(args ...string) *exec.Cmd) {
				worker("-id", "honest", "-exit-when-idle")
				victim := worker("-id", "victim")
				worker("-id", "liar", "-fault", "wire-corrupt=1")
				time.Sleep(300 * time.Millisecond)
				victim.Process.Kill()
			},
		}
		for name, fleet := range fleets {
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				addrFile := filepath.Join(dir, "addr")
				var out, errOut bytes.Buffer
				srv := exec.Command(binary(t, "mtracecheck"), append(campaign, "-sigs-out", filepath.Join(dir, "sigs"),
					"-listen", "127.0.0.1:0", "-addr-file", addrFile, "-lease-ttl", "1s")...)
				srv.Stdout, srv.Stderr = &out, &errOut
				if err := srv.Start(); err != nil {
					t.Fatal(err)
				}
				exited := make(chan error, 1)
				go func() { exited <- srv.Wait() }()
				t.Cleanup(func() { srv.Process.Kill() })
				var addr string
				for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(10 * time.Millisecond) {
					if data, _ := os.ReadFile(addrFile); len(data) > 0 {
						addr = strings.TrimSpace(string(data))
					} else if time.Now().After(deadline) {
						t.Fatalf("mtracecheck -listen never bound\n%s", &errOut)
					}
				}
				fleet(t, func(args ...string) *exec.Cmd {
					w := exec.Command(binary(t, "mtracecheck-worker"), append([]string{"-server", "http://" + addr}, args...)...)
					if err := w.Start(); err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { w.Process.Kill(); w.Wait() })
					return w
				})
				select {
				case err := <-exited:
					if err != nil {
						t.Fatalf("mtracecheck -listen: %v\n%s%s", err, &out, &errOut)
					}
				case <-time.After(2 * time.Minute):
					t.Fatalf("mtracecheck -listen did not finish\n%s%s", &out, &errOut)
				}
				if !robustness.MatchString(out.String()) {
					t.Errorf("no dist robustness line:\n%s", &out)
				}
				if got := strings.ReplaceAll(keepLines(out.String(), robustness), dir, "DIR"); got != ref {
					t.Errorf("distributed stdout:\n%s\nin-process:\n%s", got, ref)
				}
				if readFile(t, filepath.Join(dir, "sigs")) != refSigs {
					t.Error("distributed signatures differ from the in-process run")
				}
			})
		}
	})

	// The same campaign cold (empty corpus) and warm (corpus grown by the cold
	// run): the signature files are byte-equal, the reports match modulo the
	// corpus and effort lines that differ by design, and the warm run checks
	// zero graphs while scoring a corpus hit for every unique.
	t.Run("corpus", func(t *testing.T) {
		dir := t.TempDir()
		byDesign := regexp.MustCompile(`checking:|signature corpus:`)
		var verdict, sigs [2]string
		for i, run := range []string{"cold", "warm"} {
			out, _ := mtc(t, exitPass, "-threads", "4", "-ops", "40", "-words", "16", "-iters", "400", "-seed", "11",
				"-corpus", filepath.Join(dir, "corpus.mtc"), "-sigs-out", filepath.Join(dir, run+".sigs"),
				"-metrics-out", filepath.Join(dir, run+".metrics"))
			verdict[i] = strings.ReplaceAll(keepLines(out, byDesign), filepath.Join(dir, run), "RUN")
			sigs[i] = readFile(t, filepath.Join(dir, run+".sigs"))
		}
		if sigs[0] != sigs[1] {
			t.Error("signature files differ between cold and warm")
		}
		if verdict[0] != verdict[1] {
			t.Errorf("warm verdict differs from cold:\n%s\ncold:\n%s", verdict[1], verdict[0])
		}
		cold, warm := filepath.Join(dir, "cold.metrics"), filepath.Join(dir, "warm.metrics")
		if g, m := metric(t, warm, "mtracecheck_graphs_checked_total"), metric(t, warm, "mtracecheck_corpus_misses_total"); g != "0" || m != "0" {
			t.Errorf("warm run checked %s graphs and missed the corpus %s times, want 0 and 0", g, m)
		}
		if hits, checked := metric(t, warm, "mtracecheck_corpus_hits_total"), metric(t, cold, "mtracecheck_graphs_checked_total"); hits != checked || hits == "0" {
			t.Errorf("warm hits (%s) != cold graphs checked (%s)", hits, checked)
		}
	})

	// The three doors print, and exit with, exactly what testdata/doors.golden
	// records for every backend: a passing and a bug-injected campaign, the
	// same two split across -sigs-out/-sigs-in, and a valid and a cyclic
	// -trace, all with -v. The file was captured before the backends moved
	// behind one table; a refactor of the host side leaves it alone.
	t.Run("golden", func(t *testing.T) {
		dir := t.TempDir()
		traces := filepath.Join("..", "..", "internal", "trace", "testdata")
		campaigns := []struct {
			name string
			args []string
		}{
			{"pass", []string{"-threads", "4", "-ops", "40", "-words", "16", "-iters", "400", "-seed", "11", "-workers", "1", "-v"}},
			{"bug", []string{"-threads", "4", "-ops", "50", "-words", "8", "-wpl", "4", "-bug", "sm-inv", "-iters", "512", "-seed", "11", "-workers", "1", "-v"}},
		}
		var got strings.Builder
		door := func(args ...string) {
			var out bytes.Buffer
			cmd := exec.Command(binary(t, "mtracecheck"), args...)
			cmd.Stdout = &out
			var exit *exec.ExitError
			if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
				t.Fatalf("mtracecheck %v: %v", args, err)
			}
			fmt.Fprintf(&got, "$ mtracecheck %s\n%sexit %d\n\n", strings.ReplaceAll(strings.Join(args, " "), dir, "DIR"),
				strings.ReplaceAll(out.String(), dir, "DIR"), cmd.ProcessState.ExitCode())
		}
		for _, checker := range []string{"collective", "conventional", "incremental", "vectorclock", "constraints"} {
			for _, c := range campaigns {
				sigs := filepath.Join(dir, c.name+"."+checker+".sigs")
				door(append(c.args, "-checker", checker, "-sigs-out", sigs)...)
				door(append(c.args, "-checker", checker, "-sigs-in", sigs)...)
			}
			for _, trace := range []string{"tso_valid.trace", "tso_violation.trace"} {
				door("-trace", filepath.Join(traces, trace), "-mcm", "tso", "-workers", "1", "-v", "-checker", checker)
			}
		}
		compareGolden(t, "doors.golden", got.String())
	})

	// The verify skill's fault-tolerance recipes print, and exit with, exactly
	// what testdata/faults.golden records: bit flips quarantined or, where one
	// lands on another valid encoding, checked as a real observation (on this
	// campaign 1 of 3 flips is quarantined and the 2 checked ones are
	// violations: exit 1), a quarantine overflow (exit 3), a strict abort
	// (exit 2), and injected
	// shard panics retried to a PASS or, without retries, reported PARTIAL
	// (exit 0). The file names each recipe, not its flags, so it was captured
	// under the flags a recipe used to be spelled with and pins their
	// translation.
	t.Run("faults", func(t *testing.T) {
		base := []string{"-threads", "4", "-ops", "30", "-words", "16", "-iters", "1024", "-seed", "2", "-workers", "1"}
		recipes := []struct {
			name string
			exit int
			args []string
		}{
			{"bit flips, quarantined or checked as observations", exitFinding, []string{"-fault", "bit-flip=0.02"}},
			{"out-of-range words over -max-quarantine", exitQuarantine, []string{"-fault", "out-of-range=0.5", "-max-quarantine", "0.05"}},
			{"out-of-range words under -strict", exitInfra, []string{"-fault", "out-of-range=0.5", "-strict"}},
			{"shard panics, retried", exitPass, []string{"-fault", "panic=1", "-shard-retries", "2"}},
			{"shard panics, not retried", exitPass, []string{"-fault", "panic=1", "-shard-retries", "0"}},
		}
		var got strings.Builder
		for i, r := range recipes {
			out, _ := mtc(t, r.exit, append(base, r.args...)...)
			fmt.Fprintf(&got, "# %s\n%sexit %d\n\n", r.name, out, r.exit)
			if i == 0 {
				// The bit-flip recipe must check a flip, not only quarantine.
				var injected, quarantined int
				for _, line := range strings.Split(out, "\n") {
					fmt.Sscanf(line, "injected faults: bit-flip=%d", &injected)
					fmt.Sscanf(line, "quarantined: %d signatures", &quarantined)
				}
				if injected <= quarantined {
					t.Errorf("bit-flip recipe: %d flips injected, %d quarantined; want a flip checked as an observation",
						injected, quarantined)
				}
			}
		}
		compareGolden(t, "faults.golden", got.String())
	})
}

// compareGolden compares got with testdata/name, which -update rewrites — only
// for a change that is meant to move a printed line.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want := readFile(t, golden); got != want {
		t.Errorf("got:\n%s\nwant (testdata/%s):\n%s", got, name, want)
	}
}

// TestIterationsFlag: a campaign that would execute nothing, or more than a
// chunk grid can describe, is refused (exit 2, naming the value) rather than
// passed or attempted, and 0 runs — and announces — the library default.
func TestIterationsFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	out, errOut := mtc(t, exitInfra, "-iters", "-5")
	if out != "" || !strings.Contains(errOut, "-5") {
		t.Errorf("-iters -5 printed %q and reported %q, want nothing and an error naming -5", out, errOut)
	}
	// A count no chunk grid can describe is refused by name, at once: it used
	// to ask for a 1.37 TB grid and die of it.
	began := time.Now()
	out, errOut = mtc(t, exitInfra, "-iters", "1099511627776")
	if out != "" || !strings.Contains(errOut, fmt.Sprint(mtracecheck.ChunkSize<<24)) || time.Since(began) > 5*time.Second {
		t.Errorf("-iters 2^40 printed %q and reported %q after %v, want nothing, an error naming the bound, and no delay", out, errOut, time.Since(began))
	}
	out, _ = mtc(t, exitPass, "-threads", "2", "-ops", "10", "-iters", "0")
	if !strings.Contains(out, ", 1024 iterations\n") || !strings.Contains(out, " / 1024 iterations") {
		t.Errorf("-iters 0 does not announce and run the library default:\n%s", out)
	}
}

// TestFaultFlag: both binaries take a fault plan in one -fault spec and
// refuse, naming it, a knob that is NaN or outside [0, 1] — NaN used to mean
// "inject nothing" or "no limit" — and a kind the binary does not inject.
func TestFaultFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	for want, args := range map[string][]string{
		"bit-flip=NaN": {"-fault", "bit-flip=NaN"},
		"got NaN":      {"-max-quarantine", "NaN"},
		"got -0.5":     {"-max-quarantine", "-0.5"},
		"wire-drop is not injected here (this door injects bit-flip, truncate, duplicate, out-of-range, stall, panic)": {"-fault", "wire-drop=0.5"},
	} {
		if out, errOut := mtc(t, exitInfra, append(args, "-threads", "2", "-ops", "10")...); out != "" || !strings.Contains(errOut, want) {
			t.Errorf("%v printed %q and reported %q, want nothing and an error containing %q", args, out, errOut, want)
		}
	}
	if _, help := mtc(t, 0, "-h"); !strings.Contains(help, "rate in [0, 1] (bit-flip, truncate, duplicate, out-of-range, stall, panic)") ||
		!strings.Contains(help, "(default seed=1)") {
		t.Errorf("-h does not list the campaign's fault kinds and the default seed:\n%s", help)
	}
	out, err := exec.Command(binary(t, "mtracecheck-worker"), "-fault", "bit-flip=0.1", "-server", "http://127.0.0.1:1").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "bit-flip is not injected here (this door injects wire-corrupt, wire-drop, wire-delay)") {
		t.Errorf("mtracecheck-worker -fault bit-flip=0.1: %v, %q", err, out)
	}
}

// TestPlatformSelection pins what the -isa, -bug and -os flags select, through
// the resolution every door shares (dist.Build over the spec they bind onto).
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
	test := &mtracecheck.TestConfig{Threads: 2, OpsPerThread: 10, Words: 4}
	for _, c := range cases {
		_, opts, err := dist.Build(dist.JobSpec{Test: test, ISA: c.isa, Bug: c.bug, OS: c.os})
		if c.wantErr {
			if err == nil {
				t.Errorf("Build(-isa %q -bug %q): no error", c.isa, c.bug)
			}
			continue
		}
		if err != nil {
			t.Errorf("Build(-isa %q -bug %q): %v", c.isa, c.bug, err)
			continue
		}
		if p := opts.Platform; p.Name != c.wantName || p.OS.Enabled != c.os {
			t.Errorf("Build(-isa %q -bug %q -os=%v) = %q with OS %v, want %q", c.isa, c.bug, c.os, p.Name, p.OS.Enabled, c.wantName)
		}
	}
}

// TestInterruptAndResume drives the real binary: a checkpointing campaign is
// killed (SIGKILL, mid-chunk) once its checkpoint covers two chunks, and
// "-resume" must then print the uninterrupted run's report — simulated cycles
// included — and write its signature file byte for byte. Injected stalls slow
// the victim so that the kill always lands mid-campaign; they change no result.
func TestInterruptAndResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	campaign := []string{"-threads", "3", "-ops", "30", "-words", "8", "-seed", "6",
		"-iters", "384", "-workers", "1", "-checkpoint-every", "64"}
	want, _ := mtc(t, exitPass, append(campaign, "-sigs-out", filepath.Join(dir, "ref.sigs"))...)

	victim := exec.Command(binary(t, "mtracecheck"), append(campaign, "-checkpoint", ckpt, "-fault", "stall=1,hold=300ms")...)
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

	got, _ := mtc(t, exitPass, append(campaign, "-checkpoint", ckpt, "-resume", "-sigs-out", filepath.Join(dir, "resumed.sigs"))...)
	if !strings.Contains(got, "resumed:") {
		t.Errorf("the resumed run does not say what it restored:\n%s", got)
	}
	byDesign := regexp.MustCompile(`^(resumed:|signatures written to)`)
	if keepLines(got, byDesign) != keepLines(want, byDesign) {
		t.Errorf("resumed report:\n%s\nuninterrupted:\n%s", got, want)
	}
	if readFile(t, filepath.Join(dir, "resumed.sigs")) != readFile(t, filepath.Join(dir, "ref.sigs")) {
		t.Error("the resumed run's signature file differs from the uninterrupted run's")
	}
}

func TestDumpSignaturesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sigs.bin")
	p, opts := build(t, dist.JobSpec{Iterations: 30, Seed: 2,
		Test: &mtracecheck.TestConfig{Threads: 2, OpsPerThread: 20, Words: 4, Seed: 1}})
	report, err := mtracecheck.RunProgram(p, opts)
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
	if meta.Seed != 2 {
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

func campaign(t *testing.T, p *mtracecheck.Program, opts mtracecheck.Options) *mtracecheck.Campaign {
	t.Helper()
	c, err := mtracecheck.NewCampaign(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func build(t *testing.T, spec dist.JobSpec) (*mtracecheck.Program, mtracecheck.Options) {
	t.Helper()
	p, opts, err := dist.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p, opts
}

// TestParseCheckerListsValidValues: the valid -checker values are the names of
// internal/check's table — what -h lists — and every door refuses any other
// with one message, which lists them: the campaign, -sigs-in, -trace, -listen,
// a JSON job submission and mtc-experiments.
func TestParseCheckerListsValidValues(t *testing.T) {
	valid := strings.Join(check.Names(), ", ")
	if got := strings.Join(mtracecheck.CheckerNames(), ", "); got != valid {
		t.Errorf("CheckerNames() = %s, want the table's %s", got, valid)
	}
	test := &mtracecheck.TestConfig{Threads: 2, OpsPerThread: 10, Words: 4}
	for _, name := range check.Names() {
		p, opts := build(t, dist.JobSpec{Test: test, Checker: name})
		if _, err := mtracecheck.NewCampaign(p, opts); err != nil {
			t.Errorf("-checker %s: %v", name, err)
		}
	}
	refusal := func(bad string) string {
		return fmt.Sprintf("check: unknown checker %q (valid: %s)", bad, valid)
	}
	for _, bad := range []string{"colective", "pk"} {
		p, opts := build(t, dist.JobSpec{Test: test, Checker: bad})
		if _, err := mtracecheck.NewCampaign(p, opts); err == nil || !strings.Contains(err.Error(), refusal(bad)) {
			t.Errorf("-checker %q: NewCampaign says %v, want %q", bad, err, refusal(bad))
		}
	}

	// A job submission is refused as a bad request, with the same words.
	srv := dist.NewServer(dist.ServerOptions{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"test":{"Threads":2,"OpsPerThread":10,"Words":4},"checker":"bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), refusal("bogus")) {
		t.Errorf("POST /api/v1/jobs with an unknown checker: %d %q, want 400 %q", resp.StatusCode, body, refusal("bogus"))
	}

	if testing.Short() {
		return // the rest builds and runs the binaries
	}
	trace := filepath.Join("..", "..", "internal", "trace", "testdata", "tso_valid.trace")
	for door, args := range map[string][]string{
		"run":      nil,
		"-sigs-in": {"-sigs-in", filepath.Join(t.TempDir(), "never-opened")},
		"-trace":   {"-trace", trace, "-mcm", "tso"},
		"-listen":  {"-listen", "127.0.0.1:0"},
	} {
		if _, errOut := mtc(t, exitInfra, append(args, "-checker", "bogus")...); !strings.Contains(errOut, refusal("bogus")) {
			t.Errorf("%s door with an unknown checker says %q, want %q", door, errOut, refusal("bogus"))
		}
	}
	out, err := exec.Command(binary(t, "mtc-experiments"), "-quick", "-exp", "table3", "-checker", "bogus").CombinedOutput()
	if err == nil || !strings.Contains(string(out), refusal("bogus")) {
		t.Errorf("mtc-experiments with an unknown checker: %v, %q, want %q", err, out, refusal("bogus"))
	}
	if _, help := mtc(t, 0, "-h"); !strings.Contains(help, "checker backend: "+valid+" (default") {
		t.Errorf("-h does not list exactly the table's names (%s):\n%s", valid, help)
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
// by the device side must check clean (exit 0); a missing file, a set whose
// provenance does not match, and a set without any are infrastructure errors.
func TestRunCheckOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sigs.bin")
	spec := dist.JobSpec{Iterations: 50, Seed: 2,
		Test: &mtracecheck.TestConfig{Threads: 2, OpsPerThread: 20, Words: 4, Seed: 1}}
	p, opts := build(t, spec)
	report, err := mtracecheck.RunProgram(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := dumpSignatures(path, report); err != nil {
		t.Fatal(err)
	}
	if code := runCheckOnly(path, campaign(t, p, opts), p, opts, false); code != exitPass {
		t.Errorf("clean signatures: exit %d, want %d", code, exitPass)
	}
	if code := runCheckOnly(filepath.Join(dir, "missing.bin"), campaign(t, p, opts), p, opts, false); code != exitInfra {
		t.Errorf("missing file: exit %d, want %d", code, exitInfra)
	}
	// A bare set body has no provenance to match: refused, not believed.
	var bare bytes.Buffer
	if err := sig.WriteSet(&bare, report.Signatures()); err != nil {
		t.Fatal(err)
	}
	headerless := filepath.Join(dir, "headerless.bin")
	if err := os.WriteFile(headerless, bare.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runCheckOnly(headerless, campaign(t, p, opts), p, opts, false); code != exitInfra {
		t.Errorf("headerless file: exit %d, want %d", code, exitInfra)
	}
	// Provenance mismatch: a different seed must be rejected before checking.
	opts.Seed = 99
	if code := runCheckOnly(path, campaign(t, p, opts), p, opts, false); code != exitInfra {
		t.Errorf("mismatched seed: exit %d, want %d", code, exitInfra)
	}
}

// TestCheckProgramLoadsOrGenerates: the program a campaign or a check-only run
// uses is the spec's — generated from the test flags, or parsed from the text
// -prog read — and the text -dump-prog writes reloads as the program it was.
func TestCheckProgramLoadsOrGenerates(t *testing.T) {
	spec := dist.JobSpec{Test: &mtracecheck.TestConfig{Threads: 2, OpsPerThread: 10, Words: 4, Seed: 3}}
	generated, _ := build(t, spec)
	spec.Program = prog.Format(generated)
	loaded, _ := build(t, spec)
	if prog.Format(loaded) != prog.Format(generated) {
		t.Errorf("reloaded program differs from the generated one:\n%s\n%s", prog.Format(loaded), prog.Format(generated))
	}
	spec.Program = "not a program"
	if _, _, err := dist.Build(spec); err == nil {
		t.Error("malformed program text accepted")
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
		opts := mtracecheck.Options{Checker: name}
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
	_, _, err := dist.Build(dist.JobSpec{Test: &mtracecheck.TestConfig{Threads: 2, OpsPerThread: 10, Words: 4}, Bug: "bogus"})
	if err == nil {
		t.Fatal("unknown bug accepted")
	}
	for _, valid := range []string{"sm-inv", "lsq-skip", "wb-race"} {
		if !strings.Contains(err.Error(), valid) {
			t.Errorf("error %q does not list %q", err, valid)
		}
	}
}
