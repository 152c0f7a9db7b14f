package testgen

import (
	"strings"
	"testing"

	"mtracecheck/internal/prog"
)

// mustGenerate is Generate, panicking on error.
func mustGenerate(cfg Config) *prog.Program {
	p, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

func TestGenerateValidProgram(t *testing.T) {
	cfg := Config{Threads: 4, OpsPerThread: 50, Words: 32, Seed: 1}
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumThreads() != 4 {
		t.Errorf("threads = %d, want 4", p.NumThreads())
	}
	for ti, th := range p.Threads {
		mem := 0
		for _, op := range th.Ops {
			if op.IsMemory() {
				mem++
			}
		}
		if mem != 50 {
			t.Errorf("thread %d: %d memory ops, want 50", ti, mem)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Threads: 2, OpsPerThread: 30, Words: 8, Seed: 42}
	a := mustGenerate(cfg)
	b := mustGenerate(cfg)
	if a.String() != b.String() {
		t.Error("same seed produced different programs")
	}
	cfg.Seed = 43
	c := mustGenerate(cfg)
	if a.String() == c.String() {
		t.Error("different seeds produced identical programs (suspicious)")
	}
}

func TestGenerateLoadRatio(t *testing.T) {
	cfg := Config{Threads: 2, OpsPerThread: 2000, Words: 16, LoadRatio: 0.5, Seed: 7}
	p := mustGenerate(cfg)
	loads := 0
	for _, op := range p.Ops() {
		if op.Kind == prog.Load {
			loads++
		}
	}
	total := p.NumOps()
	frac := float64(loads) / float64(total)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("load fraction = %v, want ≈0.5", frac)
	}
}

func TestGenerateFences(t *testing.T) {
	cfg := Config{Threads: 2, OpsPerThread: 100, Words: 8, FenceProb: 0.3, Seed: 3}
	p := mustGenerate(cfg)
	fences := 0
	for _, op := range p.Ops() {
		if op.Kind == prog.Fence {
			fences++
		}
	}
	if fences == 0 {
		t.Error("FenceProb=0.3 produced no fences")
	}
	// Memory ops per thread still exactly OpsPerThread.
	for ti, th := range p.Threads {
		mem := 0
		for _, op := range th.Ops {
			if op.IsMemory() {
				mem++
			}
		}
		if mem != 100 {
			t.Errorf("thread %d: %d memory ops, want 100", ti, mem)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{Threads: 0, OpsPerThread: 1, Words: 1},
		{Threads: 1, OpsPerThread: 0, Words: 1},
		{Threads: 1, OpsPerThread: 1, Words: 0},
		{Threads: 1, OpsPerThread: 1, Words: 1, LoadRatio: 1.5},
		{Threads: 1, OpsPerThread: 1, Words: 1, FenceProb: -0.1},
		// Sizes no program is generated for: refused before a byte is built,
		// products that overflow an int included.
		{Threads: 1025, OpsPerThread: 1024, Words: 1},
		{Threads: 1 << 40, OpsPerThread: 1 << 40, Words: 1},
		{Threads: 1, OpsPerThread: 1, Words: maxOps + 1},
		{Threads: 1, OpsPerThread: 1, Words: 1, WordsPerLine: maxOps + 1},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: Generate accepted %+v", i, cfg)
		}
	}
}

func TestConfigName(t *testing.T) {
	c := Config{Threads: 2, OpsPerThread: 50, Words: 32}
	if got := c.Name(); got != "2-50-32" {
		t.Errorf("Name = %q", got)
	}
	c.Label = "ARM-2-50-32"
	if got := c.Name(); got != "ARM-2-50-32" {
		t.Errorf("Name = %q", got)
	}
}

func TestPaperConfigs(t *testing.T) {
	cfgs := PaperConfigs()
	if len(cfgs) != 21 {
		t.Fatalf("%d paper configs, want 21", len(cfgs))
	}
	arm, x86 := 0, 0
	seen := map[string]bool{}
	for _, pc := range cfgs {
		if seen[pc.Label] {
			t.Errorf("duplicate config %s", pc.Label)
		}
		seen[pc.Label] = true
		switch pc.ISA {
		case ISAARM:
			arm++
		case ISAX86:
			x86++
		default:
			t.Errorf("unknown ISA %q", pc.ISA)
		}
		if _, err := Generate(pc.Config); err != nil {
			t.Errorf("%s: %v", pc.Label, err)
		}
	}
	if arm != 15 || x86 != 6 {
		t.Errorf("ARM=%d x86=%d, want 15/6", arm, x86)
	}
	if cfgs[0].Label != "ARM-2-50-32" {
		t.Errorf("first config %s, want ARM-2-50-32", cfgs[0].Label)
	}
}

func TestLitmusLibrary(t *testing.T) {
	tests := LitmusTests()
	if len(tests) != 10 {
		t.Fatalf("%d litmus tests, want 10", len(tests))
	}
	for _, l := range tests {
		if err := l.Prog.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
		}
		if len(l.Interesting) == 0 {
			t.Errorf("%s: empty interesting outcome", l.Name)
		}
		for id := range l.Interesting {
			if op := l.Prog.OpByID(id); op.Kind != prog.Load {
				t.Errorf("%s: outcome references non-load op %d (%v)", l.Name, id, op.Kind)
			}
		}
	}
}

func TestLitmusByName(t *testing.T) {
	l, err := LitmusByName("SB")
	if err != nil || l.Name != "SB" {
		t.Errorf("LitmusByName(SB) = %v, %v", l.Name, err)
	}
	if _, err := LitmusByName("nope"); err == nil || !strings.Contains(err.Error(), "SB, SB+F, MP") {
		t.Errorf("LitmusByName(nope) = %v, want an error listing the known tests", err)
	}
}

func TestOutcomeMatches(t *testing.T) {
	o := Outcome{3: 7, 5: 0}
	if !o.MatchesValues([]uint32{3: 7, 5: 0, 9: 1}) {
		t.Error("MatchesValues rejected satisfying observation")
	}
	if o.MatchesValues([]uint32{3: 7, 5: 2}) {
		t.Error("MatchesValues accepted wrong value")
	}
	if o.MatchesValues([]uint32{3: 7}) {
		t.Error("MatchesValues accepted missing load")
	}
}

func TestHotWordBias(t *testing.T) {
	biased := mustGenerate(Config{Threads: 2, OpsPerThread: 2000, Words: 64, HotWordBias: 0.8, Seed: 4})
	uniform := mustGenerate(Config{Threads: 2, OpsPerThread: 2000, Words: 64, Seed: 4})
	count := func(p *prog.Program) int {
		hotOps := 0
		for _, op := range p.Ops() {
			if op.IsMemory() && op.Word < 8 {
				hotOps++
			}
		}
		return hotOps
	}
	if b, u := count(biased), count(uniform); b < 2*u {
		t.Errorf("bias not effective: %d hot ops biased vs %d uniform", b, u)
	}
	if _, err := Generate(Config{Threads: 1, OpsPerThread: 1, Words: 1, HotWordBias: 2}); err == nil {
		t.Error("bias > 1 accepted")
	}
}
