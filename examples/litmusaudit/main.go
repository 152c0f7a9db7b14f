// Litmusaudit runs the directed litmus library against both simulated
// platforms and a hand-built scenario, showing how MTraceCheck separates
// outcomes that a model *allows* (non-determinism to be embraced) from
// outcomes it *forbids* (bugs to be flagged) — the motivation scenario of
// the paper's introduction. Which is which is computed from the model
// definitions (internal/oracle), and RunLitmus also says how many allowed
// outcomes the platform never produced.
package main

import (
	"fmt"
	"log"

	"mtracecheck"
)

func main() {
	platforms := []mtracecheck.Platform{
		mtracecheck.PlatformX86(),
		mtracecheck.PlatformARM(),
	}
	const iterations = 1024

	for _, plat := range platforms {
		fmt.Printf("== %s (%s), %d iterations per test ==\n",
			plat.Name, mtracecheck.ModelName(plat), iterations)
		for _, l := range mtracecheck.LitmusTests() {
			res, err := mtracecheck.RunLitmus(l, mtracecheck.Options{
				Platform:   plat,
				Iterations: iterations,
				Seed:       17,
			})
			if err != nil {
				log.Fatalf("%s: %v", l.Name, err)
			}
			status := "allowed"
			if res.Forbidden {
				status = "forbidden"
			}
			fmt.Printf("  %-6s %-9s observed %4d/%d   allowed outcomes reached %2d, never %2d   unique sigs %4d   %s\n",
				l.Name, status, res.Observed, iterations, res.Reached, res.NeverReached,
				res.Report.UniqueSignatures, res.Verdict)
		}
		fmt.Println()
	}

	// A hand-built scenario through the same pipeline: message passing with
	// a fence only on the writer side. Under the weak (RMO) platform the
	// reader may still reorder its loads, so the stale-data outcome remains
	// architecturally legal — a classic half-fixed synchronization bug in
	// software, not a hardware violation.
	b := mtracecheck.NewProgramBuilder("mp-writer-fence", 2)
	b.Thread().Store(0).Fence().Store(1) // writer: data, fence, flag
	b.Thread().Load(1).Load(0)           // reader: flag then data, unfenced
	p, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	report, err := mtracecheck.RunProgram(p, mtracecheck.Options{
		Platform:   mtracecheck.PlatformARM(),
		Iterations: iterations,
		Seed:       23,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hand-built %s on ARM: %d unique interleavings, violations: %d (expected 0 — hardware is correct even when software synchronization is not)\n",
		p.Name, report.UniqueSignatures, len(report.Violations))
}
