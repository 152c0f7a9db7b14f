// Command mtc-litmus runs the directed litmus library (SB, MP, LB, CoRR,
// WRC, IRIW, and fenced variants) on a chosen platform and judges each test
// against what the platform's memory model allows, as internal/oracle
// computes it: whether the model forbids the interesting outcome and how
// often it was observed, how many allowed outcomes were reached and how many
// never were, how many observed outcomes the model forbids, and how many
// violations graph checking flagged. Any forbidden outcome observed or graph
// violation exits 1, as does an unknown -test name.
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
	"mtracecheck/internal/testgen"
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
	tests := mtracecheck.LitmusTests()
	if *name != "" {
		l, err := testgen.LitmusByName(*name)
		if err != nil {
			fatal(err)
		}
		tests = []mtracecheck.Litmus{l}
	}
	fmt.Printf("litmus audit on %s (%s), %d iterations per test\n\n",
		plat.Name, mtracecheck.ModelName(plat), *iters)
	fmt.Printf("%-6s %-9s %-8s %-7s %-5s %-7s %-10s %s\n",
		"test", "forbidden", "observed", "reached", "never", "outside", "violations", "verdict")

	failed := false
	for _, l := range tests {
		res, err := mtracecheck.RunLitmus(l, mtracecheck.Options{
			Platform: plat, Iterations: *iters, Seed: *seed,
		})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", l.Name, err))
		}
		failed = failed || res.Failed
		fmt.Printf("%-6s %-9v %-8d %-7d %-5d %-7d %-10d %s\n", l.Name, res.Forbidden, res.Observed,
			res.Reached, res.NeverReached, res.Outside, len(res.Report.Violations), res.Verdict)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mtc-litmus:", err)
	os.Exit(1)
}
