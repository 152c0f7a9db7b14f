package main

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"mtracecheck"
)

// The summary every door prints. A distributed campaign's report comes from
// the merger an in-process run uses, so it summarizes byte-identically.

// writeHeadline prints a campaign's headline statistics.
func writeHeadline(w io.Writer, report *mtracecheck.Report) {
	fmt.Fprintf(w, "unique interleavings: %d / %d iterations (%.1f%%)\n",
		report.UniqueSignatures, report.Iterations,
		100*float64(report.UniqueSignatures)/float64(report.Iterations))
	fmt.Fprintf(w, "execution signature:  %d bytes\n", report.SignatureBytes)
	fmt.Fprintf(w, "simulated cycles:     %d total\n", report.TotalCycles)
}

// writeVerdict is the tail the run, -sigs-in and -trace doors share: the
// effort line of whichever backend checked, the degradation summary and the
// RESULT line, returning whether the report is a finding. The doors differ in
// what they call the thing that passed and in whether assertion failures can
// occur, and so are counted, on their side of the device/host split.
func writeVerdict(w io.Writer, report *mtracecheck.Report, subject string, countAsserts bool) bool {
	if line := report.CheckEffort(); line != "" {
		fmt.Fprintln(w, line)
	}
	writeDegradation(w, report)
	if !report.Failed() {
		fmt.Fprintf(w, "RESULT: PASS — %s consistent with the model\n", subject)
		return false
	}
	fmt.Fprintf(w, "RESULT: FAIL — %d graph violations", len(report.Violations))
	if countAsserts {
		fmt.Fprintf(w, ", %d assertion failures", len(report.AssertionFailures))
	}
	fmt.Fprintln(w)
	return true
}

// writeDegradation summarizes fault tolerance outcomes: resumed progress,
// injected faults, quarantined signatures, lost shards, and the signature
// corpus (the corpus lines vary between cold and warm runs by design; the
// verdict lines around them never do).
func writeDegradation(w io.Writer, report *mtracecheck.Report) {
	if report.ResumedIterations > 0 {
		fmt.Fprintf(w, "resumed:              %d iterations from checkpoint\n", report.ResumedIterations)
	}
	if report.CorpusConsulted {
		fmt.Fprintf(w, "signature corpus:     %d known-good hits, %d appended\n",
			report.CorpusHits, report.CorpusAppended)
	}
	if report.CorpusIgnored != nil {
		fmt.Fprintf(w, "signature corpus:     ignored, ran cold (%v)\n", report.CorpusIgnored)
	}
	if n := len(report.InjectedFaults); n > 0 {
		fmt.Fprintf(w, "injected faults:     ")
		// Sorted so the line is stable across runs (map order is not).
		for _, kind := range sortedCountKeys(report.InjectedFaults) {
			fmt.Fprintf(w, " %v=%d", kind, report.InjectedFaults[kind])
		}
		fmt.Fprintln(w)
	}
	if n := len(report.Quarantined); n > 0 {
		fmt.Fprintf(w, "quarantined:          %d signatures (%d decode)\n", n, n)
	}
	if report.Partial() {
		fmt.Fprintf(w, "PARTIAL: %d execution shards lost after retries:\n", len(report.ShardFailures))
		for _, sf := range report.ShardFailures {
			fmt.Fprintf(w, "  iterations [%d,%d): %d executed over %d attempts: %v\n",
				sf.Start, sf.Start+sf.Count, sf.Executed, sf.Attempts, sf.Err)
		}
	}
}

// sortedCountKeys returns m's keys sorted by their rendered names.
func sortedCountKeys[K comparable](m map[K]int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b K) int { return strings.Compare(fmt.Sprint(a), fmt.Sprint(b)) })
	return keys
}
