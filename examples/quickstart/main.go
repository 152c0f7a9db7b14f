// Quickstart: validate one constrained-random test on the simulated x86-TSO
// platform and print what MTraceCheck observed — the minimal end-to-end use
// of the public API.
package main

import (
	"fmt"
	"log"

	"mtracecheck"
)

func main() {
	// A four-thread test over 64 shared words, 50 memory operations per
	// thread — the paper's x86-4-50-64 configuration.
	cfg := mtracecheck.TestConfig{
		Threads:      4,
		OpsPerThread: 50,
		Words:        64,
		Seed:         42,
	}
	report, err := mtracecheck.Run(cfg, mtracecheck.Options{
		Platform:   mtracecheck.PlatformX86(),
		Iterations: 1024,
		Seed:       7,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("MTraceCheck quickstart — x86-4-50-64")
	fmt.Printf("  iterations run:         %d\n", report.Iterations)
	fmt.Printf("  unique interleavings:   %d (%.1f%% of iterations)\n",
		report.UniqueSignatures,
		100*float64(report.UniqueSignatures)/float64(report.Iterations))
	fmt.Printf("  execution signature:    %d bytes\n", report.SignatureBytes)
	complete, noResort, incremental := report.CheckStats.Counts()
	fmt.Printf("  order checking:         %d complete sorts, %d free, %d incremental\n",
		complete, noResort, incremental)
	if report.Failed() {
		fmt.Printf("  RESULT: FAIL (%d violations)\n", len(report.Violations))
		for _, v := range report.Violations {
			fmt.Printf("    cycle through operations %v\n", v.Cycle)
		}
		return
	}
	fmt.Println("  RESULT: PASS — every observed interleaving is TSO-consistent")
}
