package mtracecheck

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateLicence = flag.Bool("update", false,
	"rewrite testdata/licence/detection.txt from the current engine (only on the parent of a change the licence is to judge)")

// detection is one bug's detection over the licence's Table 3 campaigns.
type detection struct {
	bug                 string
	tests, crashed      int // campaigns, and those that crashed
	violating, distinct int // violating unique signatures, unique signatures
}

// detectionCampaigns runs the paper's Table 3 bug campaigns — bug 1 on
// x86-4-50-8 (4 words/line), bug 2 on x86-7-200-32 (16 words/line), bug 3 on
// x86-7-200-64 (4 words/line) with a 4-set L1 — tests random programs × iters
// iterations each, seeded as internal/experiments' Table3 seeds them.
func detectionCampaigns(t *testing.T, tests, iters int) []detection {
	bug3 := BuggyPlatform(BugWBRace)
	bug3.Mem.Sets = 4
	campaigns := []struct {
		bug  string
		tc   TestConfig
		plat Platform
	}{
		{"bug1", TestConfig{Threads: 4, OpsPerThread: 50, Words: 8, WordsPerLine: 4}, BuggyPlatform(BugSMInv)},
		{"bug2", TestConfig{Threads: 7, OpsPerThread: 200, Words: 32, WordsPerLine: 16}, BuggyPlatform(BugLSQSkip)},
		{"bug3", TestConfig{Threads: 7, OpsPerThread: 200, Words: 64, WordsPerLine: 4}, bug3},
	}
	var out []detection
	for ci, c := range campaigns {
		d := detection{bug: c.bug, tests: tests}
		for test := range tests {
			tc := c.tc
			tc.Seed = 1 + int64(ci*10007+test)
			rep, err := Run(tc, Options{Platform: c.plat, Iterations: iters, Seed: tc.Seed + 1})
			if errors.Is(err, ErrCrash) {
				d.crashed++
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			d.violating += len(rep.Violations)
			d.distinct += rep.UniqueSignatures
		}
		out = append(out, d)
	}
	return out
}

// TestLicenceDetection is the licence's detection half (the distribution half
// is internal/sim's TestLicence): on the Table 3 campaigns, 40 tests × 256
// iterations per bug, the share of unique signatures that violate the model
// under bugs 1 and 2 must not be lower than the parent engine's, committed in
// testdata/licence/detection.txt, by a one-sided two-proportion z-test at
// α = 0.01; and bug 3 must still crash every test.
func TestLicenceDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("120 bug campaigns")
	}
	const tests, iters = 40, 256
	path := filepath.Join("testdata", "licence", "detection.txt")
	got := detectionCampaigns(t, tests, iters)
	if *updateLicence {
		text := fmt.Sprintf("# bug, campaigns, crashed, violating uniques, uniques: Table 3 campaigns, %d tests × %d iterations\n", tests, iters)
		for _, d := range got {
			text += fmt.Sprintf("%s %d %d %d %d\n", d.bug, d.tests, d.crashed, d.violating, d.distinct)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing parent detection results (capture them with -update on the parent engine): %v", err)
	}
	want := map[string]detection{}
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		var d detection
		if _, err := fmt.Sscan(line, &d.bug, &d.tests, &d.crashed, &d.violating, &d.distinct); err != nil {
			t.Fatalf("%s: bad line %q: %v", path, line, err)
		}
		want[d.bug] = d
	}
	for _, g := range got {
		w, ok := want[g.bug]
		if !ok {
			t.Fatalf("%s: no parent result in %s", g.bug, path)
		}
		t.Logf("%s: %d/%d crashed, %d/%d violating uniques; parent %d/%d, %d/%d",
			g.bug, g.crashed, g.tests, g.violating, g.distinct, w.crashed, w.tests, w.violating, w.distinct)
		if g.bug == "bug3" {
			if g.crashed != g.tests {
				t.Errorf("bug 3 crashed %d of %d tests, want every one", g.crashed, g.tests)
			}
			continue
		}
		if z := twoProportionZ(g.violating, g.distinct, w.violating, w.distinct); z < -2.326 {
			t.Errorf("%s: violating-unique rate %d/%d is below the parent's %d/%d (z = %.2f < -2.326, one-sided α = 0.01)",
				g.bug, g.violating, g.distinct, w.violating, w.distinct, z)
		}
	}
}

// twoProportionZ is the pooled two-proportion z statistic of x1/n1 against
// x2/n2.
func twoProportionZ(x1, n1, x2, n2 int) float64 {
	p1, p2 := float64(x1)/float64(n1), float64(x2)/float64(n2)
	p := float64(x1+x2) / float64(n1+n2)
	return (p1 - p2) / math.Sqrt(p*(1-p)*(1/float64(n1)+1/float64(n2)))
}
