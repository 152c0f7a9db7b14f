// Package testgen produces the multi-threaded test programs MTraceCheck
// validates: constrained-random tests over the paper's parameter space
// (Table 2) and a library of classic directed litmus tests, each with its
// outcome of interest.
//
// Constrained-random tests use perfectly disambiguated addresses (every
// operation names a literal shared word), which is what allows the
// instrumentation pass to compute each load's complete candidate store set
// statically (paper §3.1).
package testgen

import (
	"fmt"
	"math/rand"

	"mtracecheck/internal/prog"
)

// Config parameterizes constrained-random test generation.
type Config struct {
	Label        string  // optional display name, e.g. "ARM-2-50-32"
	Threads      int     // number of test threads (paper: 2, 4, 7)
	OpsPerThread int     // static memory operations per thread (50, 100, 200)
	Words        int     // distinct shared words (32, 64, 128)
	LoadRatio    float64 // probability an op is a load; paper uses 0.5
	FenceProb    float64 // probability of inserting a fence before an op; paper tests use 0
	WordsPerLine int     // false-sharing layout; 1 = none (paper default)
	// HotWordBias concentrates accesses: with this probability an operation
	// targets the small "hot" subset (⅛ of the words) instead of a uniform
	// choice. The paper's generator is uniform (§5); contention biasing is a
	// simple instance of the advanced test generation its §9 defers to —
	// more same-word races per operation means more distinct interleavings
	// per iteration budget.
	HotWordBias float64
	Seed        int64 // RNG seed; same seed ⇒ same program
}

// maxOps bounds a generated program's memory operations, and its shared words
// and words per line with them — the bound internal/trace puts on a parsed
// trace, for the same reason: op IDs must fit the checkers' int32 vertices,
// and a description of a few bytes must not be able to ask for a program of
// any size.
const maxOps = 1 << 20

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Threads < 1:
		return fmt.Errorf("testgen: %d threads", c.Threads)
	case c.OpsPerThread < 1:
		return fmt.Errorf("testgen: %d ops per thread", c.OpsPerThread)
	case c.Threads > maxOps || c.OpsPerThread > maxOps || c.Threads*c.OpsPerThread > maxOps:
		return fmt.Errorf("testgen: %d threads of %d ops exceed the %d-operation bound", c.Threads, c.OpsPerThread, maxOps)
	case c.Words < 1:
		return fmt.Errorf("testgen: %d shared words", c.Words)
	case c.Words > maxOps || c.WordsPerLine > maxOps:
		return fmt.Errorf("testgen: %d shared words at %d per line exceed the bound of %d each", c.Words, c.WordsPerLine, maxOps)
	case c.LoadRatio < 0 || c.LoadRatio > 1:
		return fmt.Errorf("testgen: load ratio %v outside [0,1]", c.LoadRatio)
	case c.FenceProb < 0 || c.FenceProb > 1:
		return fmt.Errorf("testgen: fence probability %v outside [0,1]", c.FenceProb)
	case c.WordsPerLine < 1:
		return fmt.Errorf("testgen: %d words per line", c.WordsPerLine)
	case c.HotWordBias < 0 || c.HotWordBias > 1:
		return fmt.Errorf("testgen: hot-word bias %v outside [0,1]", c.HotWordBias)
	}
	return nil
}

// Name returns the config's label, or a synthesized "T-OPS-WORDS" name.
func (c Config) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return fmt.Sprintf("%d-%d-%d", c.Threads, c.OpsPerThread, c.Words)
}

// Default fills unset probabilistic fields with the paper's defaults:
// 50% loads, no fences, no false sharing.
func (c Config) Default() Config {
	if c.LoadRatio == 0 {
		c.LoadRatio = 0.5
	}
	if c.WordsPerLine == 0 {
		c.WordsPerLine = 1
	}
	return c
}

// Generate builds a constrained-random program from the configuration.
// Fences do not count against OpsPerThread (which counts memory operations,
// as in the paper).
func Generate(cfg Config) (*prog.Program, error) {
	cfg = cfg.Default()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	layout := prog.DefaultLayout()
	layout.WordsPerLine = cfg.WordsPerLine
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := prog.NewBuilder(cfg.Name(), cfg.Words, layout)
	hot := cfg.Words / 8
	if hot < 1 {
		hot = 1
	}
	for t := 0; t < cfg.Threads; t++ {
		b.Thread()
		for i := 0; i < cfg.OpsPerThread; i++ {
			if cfg.FenceProb > 0 && rng.Float64() < cfg.FenceProb {
				b.Fence()
			}
			word := rng.Intn(cfg.Words)
			if cfg.HotWordBias > 0 && rng.Float64() < cfg.HotWordBias {
				word = rng.Intn(hot)
			}
			if rng.Float64() < cfg.LoadRatio {
				b.Load(word)
			} else {
				b.Store(word)
			}
		}
	}
	return b.Build()
}

// ISA labels the two platform flavors used in the paper's evaluation.
// "ARM" selects the weak (RMO) model with fixed-width RISC encoding;
// "x86" selects TSO with variable-width CISC encoding.
type ISA string

const (
	// ISAARM is the weakly-ordered (RMO) RISC-encoded platform flavor.
	ISAARM ISA = "ARM"
	// ISAX86 is the TSO CISC-encoded platform flavor.
	ISAX86 ISA = "x86"
)

// PaperConfig couples a generation config with the platform flavor it runs
// on, named per the paper's [ISA]-[threads]-[ops]-[addrs] convention.
type PaperConfig struct {
	ISA ISA
	Config
}

// PaperConfigs returns the paper's 21 representative test configurations
// (§5, x-axis of Fig. 8), in the paper's presentation order.
func PaperConfigs() []PaperConfig {
	type triple struct{ t, o, w int }
	arm := []triple{
		{2, 50, 32}, {2, 50, 64}, {2, 100, 32}, {2, 100, 64}, {2, 200, 32}, {2, 200, 64},
		{4, 50, 64}, {4, 100, 64}, {4, 200, 64},
		{7, 50, 64}, {7, 50, 128}, {7, 100, 64}, {7, 100, 128}, {7, 200, 64}, {7, 200, 128},
	}
	x86 := []triple{
		{2, 50, 32}, {2, 100, 32}, {2, 200, 32},
		{4, 50, 64}, {4, 100, 64}, {4, 200, 64},
	}
	var out []PaperConfig
	add := func(isa ISA, ts []triple) {
		for _, tr := range ts {
			label := fmt.Sprintf("%s-%d-%d-%d", isa, tr.t, tr.o, tr.w)
			out = append(out, PaperConfig{
				ISA: isa,
				Config: Config{
					Label:        label,
					Threads:      tr.t,
					OpsPerThread: tr.o,
					Words:        tr.w,
					LoadRatio:    0.5,
					WordsPerLine: 1,
					Seed:         int64(len(out)) + 1,
				},
			})
		}
	}
	add(ISAARM, arm)
	add(ISAX86, x86)
	return out
}
