// Command mtc-litmus runs the directed litmus library (SB, MP, LB, CoRR,
// WRC, IRIW, and fenced variants) on a chosen platform and reports how often
// each test's interesting outcome was observed, whether the model forbids
// it, and whether graph checking flagged any violation.
//
// Usage:
//
//	mtc-litmus                 # all tests on the x86 (TSO) platform
//	mtc-litmus -isa ARM        # the weakly-ordered platform
//	mtc-litmus -test SB -iters 4096
package main

import (
	"flag"
	"fmt"
	"os"

	"mtracecheck"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/sim"
)

func main() {
	var (
		isa   = flag.String("isa", "x86", "platform flavor: x86 (TSO) or ARM (weak)")
		model = flag.String("model", "", "override the platform's memory model (SC, TSO, PSO, RMO)")
		name  = flag.String("test", "", "run only the named litmus test")
		iters = flag.Int("iters", 2048, "iterations per test")
		seed  = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	plat, err := sim.PlatformFor(*isa, "", false)
	if err != nil {
		fatal(err)
	}
	if *model != "" {
		m, err := mcm.Parse(*model)
		if err != nil {
			fatal(err)
		}
		plat.Model = m
	}
	fmt.Printf("litmus audit on %s (%s), %d iterations per test\n\n",
		plat.Name, mtracecheck.ModelName(plat), *iters)
	fmt.Printf("%-6s %-9s %-10s %-10s %s\n", "test", "forbidden", "observed", "violations", "verdict")

	failed := false
	for _, l := range mtracecheck.LitmusTests() {
		if *name != "" && l.Name != *name {
			continue
		}
		observed, report, err := mtracecheck.RunLitmus(l, mtracecheck.Options{
			Platform: plat, Iterations: *iters, Seed: *seed,
		})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", l.Name, err))
		}
		forbidden := l.ForbiddenUnder(plat.Model)
		verdict := "ok"
		switch {
		case report.Failed():
			verdict = "GRAPH VIOLATION"
			failed = true
		case forbidden && observed > 0:
			verdict = "FORBIDDEN OUTCOME OBSERVED"
			failed = true
		case !forbidden && observed == 0:
			verdict = "ok (allowed outcome not observed)"
		}
		fmt.Printf("%-6s %-9v %-10d %-10d %s\n",
			l.Name, forbidden, observed, len(report.Violations), verdict)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mtc-litmus:", err)
	os.Exit(1)
}
