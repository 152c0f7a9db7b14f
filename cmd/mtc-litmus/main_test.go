package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// litmus builds mtc-litmus, runs it with args and returns its combined output
// and exit code.
func litmus(t *testing.T, args ...string) (string, int) {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the binary with")
	}
	bin := filepath.Join(t.TempDir(), "mtc-litmus")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building mtc-litmus: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestUnknownTestRefused: a -test name outside the library is an error that
// names the known tests, not an empty table and a pass.
func TestUnknownTestRefused(t *testing.T) {
	out, code := litmus(t, "-test", "NOPE")
	if code != 1 || !strings.Contains(out, `"NOPE"`) || !strings.Contains(out, "SB, SB+F, MP") {
		t.Errorf("mtc-litmus -test NOPE: exit %d, output %q; want exit 1 naming the known tests", code, out)
	}
}

// TestOneTest: -test runs exactly the named test and passes a clean platform,
// the weak one included, where some outcomes the model allows are never
// reached (the never column): an unreached outcome is a coverage gap, not a
// failure.
func TestOneTest(t *testing.T) {
	for _, c := range []struct {
		args      []string
		test      string
		someNever bool
	}{
		{[]string{"-test", "MP", "-iters", "64"}, "MP", false},
		{[]string{"-isa", "ARM", "-test", "SB+F", "-iters", "64"}, "SB+F", true},
	} {
		out, code := litmus(t, c.args...)
		rows := strings.Split(strings.TrimSpace(out), "\n")
		if code != 0 || len(rows) != 4 {
			t.Errorf("mtc-litmus %v: exit %d, output\n%s", c.args, code, out)
			continue
		}
		// test forbidden observed reached never outside violations verdict
		cols := strings.Fields(rows[3])
		if len(cols) != 8 || cols[0] != c.test || cols[7] != "ok" || (cols[4] != "0") != c.someNever {
			t.Errorf("mtc-litmus %v: row %q, want %s judged ok with never > 0 = %v",
				c.args, rows[3], c.test, c.someNever)
		}
	}
}
