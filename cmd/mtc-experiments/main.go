// Command mtc-experiments regenerates the paper's evaluation tables and
// figures on the simulated platform and prints them as text or Markdown.
//
// Usage:
//
//	mtc-experiments -exp all                  # everything, default scale
//	mtc-experiments -exp fig8 -iters 4096     # one figure, custom scale
//	mtc-experiments -exp table3 -quick        # smoke scale
//	mtc-experiments -exp all -markdown > out.md
//
// Experiments: the names of the experiments.All table (-h lists them; fig9
// includes fig14), or all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mtracecheck"
	"mtracecheck/internal/experiments"
	"mtracecheck/internal/experiments/report"
	"mtracecheck/internal/obs"
)

func main() {
	names := make([]string, len(experiments.All))
	for i, e := range experiments.All {
		names[i] = e.Name
	}
	var (
		exp      = flag.String("exp", "all", "experiment to run ("+strings.Join(names, ", ")+", all)")
		iters    = flag.Int("iters", 0, "override iterations per test run")
		tests    = flag.Int("tests", 0, "override tests per configuration")
		seed     = flag.Int64("seed", 1, "master seed")
		quick    = flag.Bool("quick", false, "smoke-test scale")
		markdown = flag.Bool("markdown", false, "emit Markdown instead of text")
		checker  = flag.String("checker", "", "checking backend for single-backend experiments (default collective): "+
			strings.Join(mtracecheck.CheckerNames(), ", "))
		corpusDir = flag.String("corpus", "", "directory for the corpus experiment's persistent signature corpora (default: a temporary directory)")

		metricsOut = flag.String("metrics-out", "", "write collection metrics (Prometheus text format) to this file at exit")
		progress   = flag.Bool("progress", false, "log rate-limited per-collection progress to stderr")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event timeline (open in Perfetto) to this file")
	)
	flag.Parse()

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *iters > 0 {
		cfg.Iterations = *iters
	}
	if *tests > 0 {
		cfg.Tests = *tests
	}
	cfg.Seed = *seed
	cfg.CorpusPath = *corpusDir
	cfg.Checker = *checker
	var err error
	if cfg.Observer, finishObs, err = obs.Attach(*metricsOut, *progress, *traceOut); err != nil {
		fatal(err)
	}
	defer finishObs()

	render := func(t *report.Table) {
		if *markdown {
			if err := t.WriteMarkdown(os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
		if err := t.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
	run := func(name string, fn func(experiments.Config) ([]*report.Table, error)) {
		start := time.Now()
		tables, err := fn(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		for _, t := range tables {
			render(t)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	name := strings.ToLower(*exp)
	if name == "fig14" {
		name = "fig9" // fig14 is produced alongside fig9
	}
	ran := false
	for _, e := range experiments.All {
		if name == "all" || name == e.Name {
			run(e.Name, e.Run)
			ran = true
		}
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q (want one of %s, all)", *exp, strings.Join(names, ", ")))
	}
}

// finishObs finalizes the observability artifacts; fatal runs it too,
// since os.Exit skips deferred calls and a partial trace/metrics file from
// a failed run is still worth keeping.
var finishObs = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mtc-experiments:", err)
	finishObs()
	os.Exit(1)
}
