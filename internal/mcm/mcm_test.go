package mcm

import (
	"fmt"
	"slices"
	"testing"

	"mtracecheck/internal/prog"
)

func TestOrderedMatrix(t *testing.T) {
	// want[model][first][second] for first,second in {Load, Store}.
	type pair struct{ a, b prog.OpKind }
	ordered := map[Model]map[pair]bool{
		SC: {
			{prog.Load, prog.Load}: true, {prog.Load, prog.Store}: true,
			{prog.Store, prog.Load}: true, {prog.Store, prog.Store}: true,
		},
		TSO: {
			{prog.Load, prog.Load}: true, {prog.Load, prog.Store}: true,
			{prog.Store, prog.Load}: false, {prog.Store, prog.Store}: true,
		},
		PSO: {
			{prog.Load, prog.Load}: true, {prog.Load, prog.Store}: true,
			{prog.Store, prog.Load}: false, {prog.Store, prog.Store}: false,
		},
		RMO: {
			{prog.Load, prog.Load}: false, {prog.Load, prog.Store}: false,
			{prog.Store, prog.Load}: false, {prog.Store, prog.Store}: false,
		},
	}
	for m, table := range ordered {
		for p, want := range table {
			if got := m.Ordered(p.a, p.b); got != want {
				t.Errorf("%v.Ordered(%v, %v) = %v, want %v", m, p.a, p.b, got, want)
			}
		}
	}
}

func TestFencesOrderEverything(t *testing.T) {
	kinds := []prog.OpKind{prog.Load, prog.Store, prog.Fence}
	for _, m := range Models {
		for _, k := range kinds {
			if !m.Ordered(prog.Fence, k) {
				t.Errorf("%v: fence->%v not ordered", m, k)
			}
			if !m.Ordered(k, prog.Fence) {
				t.Errorf("%v: %v->fence not ordered", m, k)
			}
		}
	}
}

// relaxations lists the program-order kind pairs the model relaxes, as
// "first->second" strings.
func (m Model) relaxations() []string {
	kinds := []prog.OpKind{prog.Load, prog.Store}
	var out []string
	for _, a := range kinds {
		for _, b := range kinds {
			if !m.Ordered(a, b) {
				out = append(out, fmt.Sprintf("%s->%s", a, b))
			}
		}
	}
	return out
}

func TestWeakerThanHierarchy(t *testing.T) {
	// SC < TSO < PSO < RMO in weakness: each model relaxes everything the
	// one before it does, and something more.
	chain := []Model{SC, TSO, PSO, RMO}
	for i := 1; i < len(chain); i++ {
		strong, weak := chain[i-1].relaxations(), chain[i].relaxations()
		if len(weak) <= len(strong) {
			t.Errorf("%v relaxes %v, no more than %v's %v", chain[i], weak, chain[i-1], strong)
		}
		for _, r := range strong {
			if !slices.Contains(weak, r) {
				t.Errorf("%v relaxes %s, the weaker %v does not", chain[i-1], r, chain[i])
			}
		}
	}
}

func TestRelaxationCounts(t *testing.T) {
	want := map[Model]int{SC: 0, TSO: 1, PSO: 2, RMO: 4}
	for m, n := range want {
		if got := len(m.relaxations()); got != n {
			t.Errorf("%v: %d relaxations (%v), want %d", m, got, m.relaxations(), n)
		}
	}
}

func TestParse(t *testing.T) {
	good := map[string]Model{
		"sc": SC, "SC": SC,
		"tso": TSO, "x86": TSO, "X86-TSO": TSO,
		"rmo": RMO, "weak": RMO, "arm": RMO,
		"pso": PSO, " TSO ": TSO,
	}
	for s, want := range good {
		got, err := Parse(s)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", s, got, err, want)
		}
		// Every trace check parses its model name: a name is matched in place.
		if allocs := testing.AllocsPerRun(10, func() { _, _ = Parse(s) }); allocs != 0 {
			t.Errorf("Parse(%q) allocates %.0f times", s, allocs)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Error("Parse accepted bogus model name")
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, m := range Models {
		back, err := Parse(m.String())
		if err != nil || back != m {
			t.Errorf("Parse(%v.String()) = %v, %v", m, back, err)
		}
	}
}

func TestAtomicity(t *testing.T) {
	if SingleCopy.AllowsForwarding() {
		t.Error("single-copy must not forward")
	}
	if !MultiCopy.AllowsForwarding() || !NonMultiCopy.AllowsForwarding() {
		t.Error("multi-copy and non-multi-copy must forward")
	}
	names := map[Atomicity]string{
		MultiCopy: "multi-copy", SingleCopy: "single-copy", NonMultiCopy: "non-multi-copy",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}
