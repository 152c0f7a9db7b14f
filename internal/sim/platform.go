// Package sim is the execution engine of the simulated post-silicon
// validation platform: it runs multi-threaded test programs (package prog)
// over the coherent memory substrate (package mem) under a configurable
// memory consistency model, producing one Execution — observed load values,
// per-word write-serialization order, and timing — per test iteration.
//
// # Microarchitectural model
//
// Each thread issues its operations in program order into a bounded window.
//
//   - Loads perform speculatively: a load may read memory before earlier
//     (different-word) loads have performed. When the model orders ld→ld
//     (SC, TSO, PSO), the load queue squashes and replays any performed but
//     uncommitted load whose cache line is invalidated, recovering the
//     architectural appearance of load ordering — exactly the mechanism the
//     paper's bugs 1 and 2 break. Under RMO loads to different words are
//     architecturally unordered and no squashing is needed (same-word loads
//     perform in order to preserve coherence).
//   - Stores enter a per-thread store buffer at commit and drain to the
//     coherent memory system later: FIFO when the model orders st→st
//     (SC, TSO), in arbitrary order otherwise (PSO, RMO), always preserving
//     per-word order. Loads forward from the youngest same-word store
//     buffer entry when store atomicity permits.
//   - Under SC a load additionally waits for all earlier stores to drain
//     (st→ld preserved); under TSO and weaker it does not — which is what
//     makes the SB litmus outcome observable.
//   - Fences commit only when every earlier load has performed and every
//     earlier store has drained; later operations wait on earlier fences.
//
// Bug 2 of the paper ("LSQ issue") is injected here: the load queue receives
// the invalidation notification but fails to squash, leaving stale
// speculative loads visible as ld→ld violations.
package sim

import (
	"fmt"
	"strings"

	"mtracecheck/internal/eventq"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/mem"
)

// Bugs selects engine-level injected defects.
type Bugs struct {
	// LQSquashSkip is the paper's bug 2: invalidations do not squash
	// performed-but-uncommitted loads.
	LQSquashSkip bool
}

// OSConfig models running tests under an operating system instead of
// bare-metal (paper §6.1, "Impact of the Operating System"): threads are
// time-sliced over the cores and may migrate between them, adding
// thread-level (coarse) interference on top of the instruction-level (fine)
// timing jitter.
type OSConfig struct {
	Enabled       bool
	Quantum       int // scheduling quantum in cycles
	QuantumJitter int // uniform extra cycles per quantum
	Migrate       bool
}

// Platform describes one system-under-validation (paper Table 1).
type Platform struct {
	Name string
	// Model is the platform's memory consistency model.
	Model mcm.Model
	// Atomicity is the platform's store atomicity (forwarding behaviour).
	Atomicity mcm.Atomicity
	// Cores is the number of cores.
	Cores int
	// AllocOrder lists core IDs in thread-allocation order (paper §5: ARM
	// fills big cores first; x86 fills secondary cores before the
	// boot-strap core). Empty means identity order.
	AllocOrder []int
	// CoreDelay adds per-core cycles to each operation initiation,
	// modelling heterogeneous (big.LITTLE) cores. Empty means zero.
	CoreDelay []eventq.Time
	// RegWidthBits is the register width (64 for x86-64, 32 for ARMv7);
	// it bounds per-word signature capacity during instrumentation.
	RegWidthBits int
	// Mem configures the coherent memory substrate. Mem.Cores is
	// overwritten with Cores.
	Mem mem.Config
	// SBDepth is the store buffer capacity per thread.
	SBDepth int
	// Window is the per-thread issue window (maximum in-flight ops).
	Window int
	// DrainDelayMax adds a uniform random delay before each store-buffer
	// drain, widening the st→ld reordering window.
	DrainDelayMax int
	// IssueJitterMax adds a uniform random delay to each load's initiation,
	// modelling pipeline variability; it is what lets speculative loads
	// perform out of order with respect to each other.
	IssueJitterMax int
	// StartJitterMax skews each thread's start within an iteration,
	// modelling barrier-release and pipeline-warmup skew.
	StartJitterMax int
	// LateLoadProb is the probability a load's initiation is delayed by an
	// extra uniform [0, LateLoadMax] cycles, modelling out-of-order
	// scheduler gaps (bank conflicts, issue-port contention). These long
	// gaps are what allow genuinely out-of-order same-line load performs —
	// the window the load-queue squash machinery exists to repair.
	LateLoadProb float64
	LateLoadMax  int
	// OS configures optional OS-mode scheduling.
	OS OSConfig
	// Bugs selects engine-level injected defects.
	Bugs Bugs
}

// Validate checks the platform description.
func (p Platform) Validate() error {
	switch {
	case p.Cores < 1:
		return fmt.Errorf("sim: %d cores", p.Cores)
	case p.RegWidthBits != 32 && p.RegWidthBits != 64:
		return fmt.Errorf("sim: register width %d not 32 or 64", p.RegWidthBits)
	case p.SBDepth < 1:
		return fmt.Errorf("sim: store buffer depth %d", p.SBDepth)
	case p.Window < 1:
		return fmt.Errorf("sim: window %d", p.Window)
	case p.DrainDelayMax < 0 || p.IssueJitterMax < 0 || p.StartJitterMax < 0 || p.LateLoadMax < 0:
		return fmt.Errorf("sim: negative jitter")
	case p.LateLoadProb < 0 || p.LateLoadProb > 1:
		return fmt.Errorf("sim: late-load probability %v outside [0,1]", p.LateLoadProb)
	}
	if len(p.AllocOrder) != 0 {
		if len(p.AllocOrder) != p.Cores {
			return fmt.Errorf("sim: alloc order lists %d cores, platform has %d",
				len(p.AllocOrder), p.Cores)
		}
		seen := make(map[int]bool)
		for _, c := range p.AllocOrder {
			if c < 0 || c >= p.Cores || seen[c] {
				return fmt.Errorf("sim: bad alloc order %v", p.AllocOrder)
			}
			seen[c] = true
		}
	}
	if len(p.CoreDelay) != 0 && len(p.CoreDelay) != p.Cores {
		return fmt.Errorf("sim: core delays list %d cores, platform has %d",
			len(p.CoreDelay), p.Cores)
	}
	m := p.Mem
	m.Cores = p.Cores
	return m.Validate()
}

// coreOf maps a thread slot to its core under the allocation order.
func (p Platform) coreOf(slot int) int {
	if len(p.AllocOrder) == 0 {
		return slot % p.Cores
	}
	return p.AllocOrder[slot%p.Cores]
}

// PlatformX86 models the paper's System 1: a 4-core x86-64 desktop under
// x86-TSO with 64-bit registers (Table 1).
func PlatformX86() Platform {
	return Platform{
		Name:           "x86-64 Core2Quad",
		Model:          mcm.TSO,
		Atomicity:      mcm.MultiCopy,
		Cores:          4,
		AllocOrder:     []int{1, 2, 3, 0}, // secondary cores first, boot-strap last
		RegWidthBits:   64,
		Mem:            mem.DefaultConfig(4),
		SBDepth:        8,
		Window:         16,
		DrainDelayMax:  120,
		IssueJitterMax: 16,
		StartJitterMax: 300,
		LateLoadProb:   0.08,
		LateLoadMax:    250,
	}
}

// PlatformARM models the paper's System 2: an 8-core ARMv7 big.LITTLE SoC
// under a weakly-ordered model with 32-bit registers (Table 1). Threads are
// allocated to the big (Cortex-A15-like, cores 4–7) cluster first.
func PlatformARM() Platform {
	return Platform{
		Name:           "ARMv7 Exynos5422",
		Model:          mcm.RMO,
		Atomicity:      mcm.MultiCopy,
		Cores:          8,
		AllocOrder:     []int{4, 5, 6, 7, 0, 1, 2, 3},
		CoreDelay:      []eventq.Time{6, 6, 6, 6, 0, 0, 0, 0}, // little cores slower
		RegWidthBits:   32,
		Mem:            armMem(),
		SBDepth:        8,
		Window:         16,
		DrainDelayMax:  60,
		IssueJitterMax: 6,
		StartJitterMax: 40,
		LateLoadProb:   0.03,
		LateLoadMax:    250,
	}
}

// armMem tunes the memory substrate for the ARM-like preset: modest message
// jitter, as the SoC's fabric timing is far more repeatable than a desktop
// northbridge — keeping two-threaded tests' interleaving diversity low, as
// the paper observes for its ARM system.
func armMem() mem.Config {
	c := mem.DefaultConfig(8)
	c.Jitter = 3
	return c
}

// PlatformGem5 models the paper's §7 bug-injection target: an 8-core
// out-of-order x86 under gem5 with a deliberately tiny L1 (1 KiB 2-way) to
// intensify evictions.
func PlatformGem5(memBugs mem.Bugs, simBugs Bugs) Platform {
	p := Platform{
		Name:           "gem5 8-core x86",
		Model:          mcm.TSO,
		Atomicity:      mcm.MultiCopy,
		Cores:          8,
		RegWidthBits:   64,
		Mem:            mem.TinyCacheConfig(8),
		SBDepth:        8,
		Window:         16,
		DrainDelayMax:  120,
		IssueJitterMax: 16,
		StartJitterMax: 300,
		LateLoadProb:   0.10,
		LateLoadMax:    250,
		Bugs:           simBugs,
	}
	p.Mem.Bugs = memBugs
	return p
}

// forISA returns the platform flavor for a paper config label prefix.
func forISA(isa string) (Platform, error) {
	switch isa {
	case "ARM", "arm":
		return PlatformARM(), nil
	case "x86", "X86":
		return PlatformX86(), nil
	default:
		return Platform{}, fmt.Errorf("sim: unknown ISA %q", isa)
	}
}

// InjectedBugs is the paper's three §7 defects in the paper's order — a
// protocol issue (an invalidation during the S→M transient squashes no
// speculative load), an LSQ issue (the load queue ignores invalidations) and a
// writeback race that deadlocks the protocol — each as its number in the paper
// (the key mtracecheck.Bug's values look a row up by), the name the -bug flag
// and a job spec carry, and the switches PlatformGem5 takes.
var InjectedBugs = []struct {
	Paper int
	Name  string
	Mem   mem.Bugs
	Sim   Bugs
}{
	{1, "sm-inv", mem.Bugs{StaleSMInv: true}, Bugs{}},
	{2, "lsq-skip", mem.Bugs{}, Bugs{LQSquashSkip: true}},
	{3, "wb-race", mem.Bugs{WBRaceDeadlock: true}, Bugs{}},
}

// PlatformFor resolves the (isa, bug, os) triple the CLIs' flags and a dist
// job spec carry into one platform, so every door selects the same one. A bug
// — a name of InjectedBugs — switches to the gem5-like preset whatever the
// ISA; os adds the §6.1 Linux runs' scheduling (time-sliced threads with
// migration).
func PlatformFor(isa, bug string, os bool) (Platform, error) {
	var p Platform
	var err error
	if bug == "" {
		p, err = forISA(isa)
	} else {
		p, err = injected(bug)
	}
	if err != nil {
		return Platform{}, err
	}
	if os {
		p.OS = OSConfig{Enabled: true, Quantum: 400, QuantumJitter: 120, Migrate: true}
	}
	return p, nil
}

// injected returns the gem5-like preset with the named defect. An unknown
// name is rejected rather than silently validating the defect-free platform.
func injected(bug string) (Platform, error) {
	var names []string
	for _, b := range InjectedBugs {
		if b.Name == bug {
			return PlatformGem5(b.Mem, b.Sim), nil
		}
		names = append(names, b.Name)
	}
	return Platform{}, fmt.Errorf("sim: unknown bug %q (valid: %s)", bug, strings.Join(names, ", "))
}
