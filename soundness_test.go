package mtracecheck

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"mtracecheck/internal/check"
	"mtracecheck/internal/fault"
	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/mem"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
)

// TestNoFalsePositivesSweep is the framework's central soundness property:
// executions produced by a defect-free platform under model M must never be
// flagged when checked against M — across models, write-serialization
// modes, false-sharing layouts, and checker implementations. (The paper's
// §8 footnote recounts exactly such a false-positive episode, caused by a
// wrong store-atomicity assumption.)
func TestNoFalsePositivesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfgs := []TestConfig{
		{Threads: 2, OpsPerThread: 40, Words: 4, Seed: 1},
		{Threads: 4, OpsPerThread: 30, Words: 8, WordsPerLine: 4, Seed: 2},
		{Threads: 3, OpsPerThread: 30, Words: 4, FenceProb: 0.15, Seed: 3},
	}
	for _, model := range mcm.Models {
		for _, tc := range cfgs {
			plat := PlatformX86()
			plat.Model = model
			plat.AllocOrder = nil
			p := mustGenerate(tc)
			meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
			if err != nil {
				t.Fatal(err)
			}
			runner, err := sim.NewRunner(plat, p, 17)
			if err != nil {
				t.Fatal(err)
			}
			set := sig.NewSet()
			var execs []observedExecution
			for i := 0; i < 80; i++ {
				ex, err := runner.Run()
				if err != nil {
					t.Fatalf("%v %s: %v", model, tc.Name(), err)
				}
				s, err := meta.EncodeValues(ex.LoadValues)
				if err != nil {
					t.Fatalf("%v %s: assertion on clean platform: %v", model, tc.Name(), err)
				}
				set.Add(s)
				execs = append(execs, observedExecution{s, ex.WSByWord()})
			}
			for _, ws := range []graph.WSMode{graph.WSStatic, graph.WSObserved} {
				builder := graph.NewBuilder(p, model, graph.Options{
					Forwarding: true, WS: ws,
				})
				var items []check.Item
				if ws == graph.WSStatic {
					items, _, err = decodeItems(context.Background(), meta, set.Sorted(), true, emitter{})
					if err != nil {
						t.Fatal(err)
					}
				} else {
					items = observedItems(t, meta, builder, execs)
				}
				conv, _ := runBackend("conventional", builder, items)
				coll, err := runBackend("collective", builder, items)
				if err != nil {
					t.Fatal(err)
				}
				if len(conv.Violations) != 0 || len(coll.Violations) != 0 {
					t.Errorf("%v %s ws=%d: false positives (conv %d, coll %d)",
						model, tc.Name(), ws, len(conv.Violations), len(coll.Violations))
				}
			}
		}
	}
}

// observedExecution is one execution's signature and the write
// serialization the platform recorded for it.
type observedExecution struct {
	sig sig.Signature
	ws  graph.WS
}

// observedItems makes one edge-list item per execution on an observed-ws
// builder, so every execution's own store order is checked, not only the
// first one seen with its signature. The items are in ascending signature
// order, as the order-maintaining backends take them.
func observedItems(t *testing.T, meta *instrument.Meta, b *graph.Builder, execs []observedExecution) []check.Item {
	t.Helper()
	execs = slices.Clone(execs)
	slices.SortStableFunc(execs, func(x, y observedExecution) int { return x.sig.Compare(y.sig) })
	items := make([]check.Item, len(execs))
	for i, ex := range execs {
		rf := make([]int32, b.NumOps())
		if err := meta.DecodeInto(ex.sig, rf); err != nil {
			t.Fatal(err)
		}
		var err error
		if items[i], err = check.NewItem(b, ex.sig, rf, ex.ws); err != nil {
			t.Fatal(err)
		}
	}
	return items
}

// TestEngineGoldenSignatures is the simulator's bit-identity guard:
// fixed-seed campaigns at one and four workers must reproduce, byte for
// byte, the signature files and report digests recorded before the engine
// change they guard. Any drift in RNG draw order, event tie-breaking, or
// completion sequencing shows up here first.
//
// The goldens were last captured when the directory began to act on cache
// responses (invalidation acks, owner data, fill acks) at their arrival time
// without an event. Beside the x86/ARM clean
// and fault-injected campaigns, the os_*, gem5_* cases cover quanta beyond
// the wheel span (the far-heap path) with rotate()/flushPipeline pumping
// every thread, quanta inside the span, the tiny-L1 stall / writeback /
// PutM-race paths, both protocol-level squash bugs, and bug 3's deadlock
// pinned to its iteration.
//
// Regenerate the goldens with MTC_UPDATE_GOLDENS=1 only for a change that
// intentionally alters simulated timing, and only in a commit that passes
// the licence (TestLicence and TestLicenceCalibration in internal/sim,
// TestLicenceDetection here) against parent data committed before it.
func TestEngineGoldenSignatures(t *testing.T) {
	update := os.Getenv("MTC_UPDATE_GOLDENS") == "1"
	dir := filepath.Join("testdata", "engine_goldens")
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	small := mustGenerate(TestConfig{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 5})
	// Seven threads over 40 one-word lines: more threads than x86 has cores,
	// and more lines than the gem5 preset's 16-line L1 holds while staying
	// contended enough for S→M upgrades to race invalidations (per 256
	// iterations: ~330 way stalls, ~2,800 writebacks, bug 1 changes the
	// squash count, bug 3 deadlocks in iteration 3).
	wide := mustGenerate(TestConfig{Threads: 7, OpsPerThread: 60, Words: 40, Seed: 3})
	faults := FaultConfig{Seed: 99, Rate: fault.Rates{fault.KindBitFlip: 0.05, fault.KindTruncate: 0.03, fault.KindDuplicate: 0.05, fault.KindOutOfRange: 0.03, fault.KindPanic: 0.1, fault.KindStall: 0.05}, Hold: time.Millisecond}
	osMigrate := PlatformX86()
	osMigrate.OS = sim.OSConfig{Enabled: true, Quantum: 1500, QuantumJitter: 200, Migrate: true}
	osHousekeeping := PlatformX86()
	osHousekeeping.OS = sim.OSConfig{Enabled: true, QuantumJitter: 50} // default 400-cycle quantum
	cases := []struct {
		name  string
		prog  *Program
		plat  Platform
		fault FaultConfig
		iters int
	}{
		{"x86_clean", small, PlatformX86(), FaultConfig{}, 512},
		{"x86_fault", small, PlatformX86(), faults, 512},
		{"arm_clean", small, PlatformARM(), FaultConfig{}, 512},
		{"arm_fault", small, PlatformARM(), faults, 512},
		{"os_migrate", wide, osMigrate, FaultConfig{}, 256},
		{"os_housekeeping", small, osHousekeeping, FaultConfig{}, 256},
		{"gem5_clean", wide, PlatformGem5(mem.Bugs{}, sim.Bugs{}), FaultConfig{}, 256},
		{"gem5_stale_sm_inv", wide, PlatformGem5(mem.Bugs{StaleSMInv: true}, sim.Bugs{}), FaultConfig{}, 256},
		{"gem5_lq_squash_skip", wide, PlatformGem5(mem.Bugs{}, sim.Bugs{LQSquashSkip: true}), FaultConfig{}, 256},
		{"gem5_wb_race", wide, PlatformGem5(mem.Bugs{WBRaceDeadlock: true}, sim.Bugs{}), FaultConfig{}, 256},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			opts := Options{
				Platform: c.plat, Iterations: c.iters, Seed: 31, Workers: workers,
				ShardRetries: 2, Fault: c.fault,
			}
			var sigBuf bytes.Buffer
			var digest string
			report, err := RunProgram(c.prog, opts)
			if errors.Is(err, ErrCrash) {
				// A crashing platform has no signature set; the golden pins
				// the crash itself (kind and global iteration index).
				digest = fmt.Sprintf("crash: %v\n", err)
			} else {
				if err != nil {
					t.Fatalf("%s workers=%d: %v", c.name, workers, err)
				}
				uniques, err := CollectSignatures(c.prog, opts)
				if err != nil {
					t.Fatalf("%s workers=%d: collect: %v", c.name, workers, err)
				}
				if err := SaveSignatures(&sigBuf, report, uniques); err != nil {
					t.Fatal(err)
				}
				digest = fmt.Sprintf(
					"iters=%d uniques=%d cycles=%d squashes=%d violations=%d quarantined=%d asserts=%d shardfail=%d\n",
					report.Iterations, report.UniqueSignatures, report.TotalCycles,
					report.Squashes, len(report.Violations), len(report.Quarantined),
					len(report.AssertionFailures), len(report.ShardFailures))
			}
			sigPath := filepath.Join(dir, c.name+".sigs")
			digPath := filepath.Join(dir, c.name+".digest")
			if update && workers == 1 {
				if err := os.WriteFile(sigPath, sigBuf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(digPath, []byte(digest), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			wantSigs, err := os.ReadFile(sigPath)
			if err != nil {
				t.Fatalf("%s: missing golden (run with MTC_UPDATE_GOLDENS=1): %v", c.name, err)
			}
			if !bytes.Equal(sigBuf.Bytes(), wantSigs) {
				t.Errorf("%s workers=%d: signature file differs from golden (%d vs %d bytes)",
					c.name, workers, sigBuf.Len(), len(wantSigs))
			}
			wantDig, err := os.ReadFile(digPath)
			if err != nil {
				t.Fatal(err)
			}
			if digest != string(wantDig) {
				t.Errorf("%s workers=%d: report digest differs from golden:\n got %s want %s",
					c.name, workers, digest, wantDig)
			}
		}
	}
}

// TestStrongerModelExecutionsPassWeakerChecks: an execution legal under a
// strong model is legal under every weaker model (the relaxation lattice).
func TestStrongerModelExecutionsPassWeakerChecks(t *testing.T) {
	tc := TestConfig{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 5}
	p := mustGenerate(tc)
	plat := PlatformX86()
	plat.Model = mcm.SC
	plat.AllocOrder = nil
	meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := sim.NewRunner(plat, p, 23)
	if err != nil {
		t.Fatal(err)
	}
	var execs []observedExecution
	for i := 0; i < 60; i++ {
		ex, err := runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		s, err := meta.EncodeValues(ex.LoadValues)
		if err != nil {
			t.Fatal(err)
		}
		execs = append(execs, observedExecution{s, ex.WSByWord()})
	}
	for _, model := range mcm.Models {
		builder := graph.NewBuilder(p, model, graph.Options{Forwarding: true, WS: graph.WSObserved})
		res, err := runBackend("collective", builder, observedItems(t, meta, builder, execs))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Errorf("SC executions flagged under %v: %d violations", model, len(res.Violations))
		}
	}
}
