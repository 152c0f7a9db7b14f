package instrument

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mtracecheck/internal/prog"
	"mtracecheck/internal/testgen"
)

// referenceAnalyze is Analyze as it was before the one-pass store index: the
// definition, kept as the model the production code is compared with. Each
// load rescans the program for the stores to its word (O(loads × ops)) and
// sorts its candidates by store ID.
//
// It computes per-load candidate sets and assigns weights (paper §3.1).
//
// A load's candidates are the latest preceding same-thread store to its word
// (or the initial value when none exists) plus every other thread's store to
// that word. Weights use consecutive multiples: the first load in a word has
// multiplier 1, and each subsequent load's multiplier is the previous
// multiplier times the previous load's candidate count, guaranteeing a 1:1
// mapping between signature values and reads-from patterns. When a word
// would overflow the register width, a fresh word starts and the multiplier
// resets (§3.2).
func referenceAnalyze(p *prog.Program, regWidthBits int, prune Pruner) (*Meta, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if regWidthBits != 32 && regWidthBits != 64 {
		return nil, fmt.Errorf("instrument: register width %d not 32 or 64", regWidthBits)
	}
	cap64 := capacity(regWidthBits)
	meta := &Meta{Prog: p, RegWidthBits: regWidthBits}
	for ti, th := range p.Threads {
		tm := ThreadMeta{Words: 1}
		var product uint64 = 1
		lastOwnStore := map[int]prog.Op{} // word -> latest own store so far
		for _, op := range th.Ops {
			switch op.Kind {
			case prog.Store:
				lastOwnStore[op.Word] = op
				continue
			case prog.Fence:
				continue
			}
			// Candidate set: own latest store or initial, then other
			// threads' stores in ID order.
			var cands []Candidate
			if own, ok := lastOwnStore[op.Word]; ok {
				cands = append(cands, Candidate{Value: own.Value, Store: own.ID})
			} else {
				cands = append(cands, Candidate{Value: prog.InitialValue, Store: -1})
			}
			for _, st := range p.StoresToWord(op.Word) {
				if st.Thread != ti {
					cands = append(cands, Candidate{Value: st.Value, Store: st.ID})
				}
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i].Store < cands[j].Store })
			if prune != nil {
				cands = prune(op, cands)
			}
			if len(cands) == 0 {
				return nil, fmt.Errorf("instrument: load %d pruned to an empty candidate set", op.ID)
			}

			n := uint64(len(cands))
			li := LoadInfo{Op: op, Candidates: cands}
			if n > 1 && product > cap64/n {
				// Word overflow: spill and start a fresh word (§3.2).
				tm.Words++
				product = 1
			}
			li.Multiplier = product
			li.recip = reciprocal(product)
			li.WordIndex = tm.Words - 1
			product *= n
			tm.Loads = append(tm.Loads, li)
		}
		meta.Threads = append(meta.Threads, tm)
	}
	for _, tm := range meta.Threads {
		lo := 0
		for w := 0; w < tm.Words; w++ {
			wl := wordLoads{bound: 1}
			hi := lo
			for ; hi < len(tm.Loads) && tm.Loads[hi].WordIndex == w; hi++ {
				wl.bound *= uint64(len(tm.Loads[hi].Candidates))
			}
			wl.loads = tm.Loads[lo:hi:hi]
			meta.words = append(meta.words, wl)
			lo = hi
		}
	}
	return meta, nil
}

// checkAgainstReference analyzes p both ways and fails t unless the results
// are deep-equal: every load's candidates, multiplier and word, every word's
// loads and bound, or the same error.
func checkAgainstReference(t *testing.T, p *prog.Program, width int, prune Pruner) {
	t.Helper()
	got, err := Analyze(p, width, prune)
	want, wantErr := referenceAnalyze(p, width, prune)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s width %d: Analyze error %v, reference %v", p.Name, width, err, wantErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got.Threads, want.Threads) {
		for ti := range want.Threads {
			if !reflect.DeepEqual(got.Threads[ti], want.Threads[ti]) {
				t.Fatalf("%s width %d: thread %d differs from the reference:\n got %+v\nwant %+v",
					p.Name, width, ti, got.Threads[ti], want.Threads[ti])
			}
		}
		t.Fatalf("%s width %d: threads differ from the reference", p.Name, width)
	}
	if !reflect.DeepEqual(layout(got), layout(want)) {
		t.Fatalf("%s width %d: word layout differs from the reference", p.Name, width)
	}
	if got.Prog != want.Prog || got.RegWidthBits != want.RegWidthBits {
		t.Fatalf("%s width %d: program or width differs from the reference", p.Name, width)
	}
}

// wordShape is one signature word's layout: the op ID of its first load (-1:
// none), its load count and its bound.
type wordShape struct {
	first, loads int
	bound        uint64
}

// layout returns m's word layout. Its words' loads are runs of the threads'
// loads, which checkAgainstReference compares in full.
func layout(m *Meta) []wordShape {
	var out []wordShape
	for _, wl := range m.words {
		ws := wordShape{first: -1, loads: len(wl.loads), bound: wl.bound}
		if len(wl.loads) > 0 {
			ws.first = wl.loads[0].Op.ID
		}
		out = append(out, ws)
	}
	return out
}

// TestAnalyzeMatchesReference holds the one-pass analysis to the definition
// on the litmus library and on a grid of generated programs: 1–8 threads,
// five lengths, four word counts, three seeds, both register widths, with and
// without a skew pruner. Under -short the grid stops at 50 operations per
// thread, where the reference's rescans stop dominating the package's time.
func TestAnalyzeMatchesReference(t *testing.T) {
	for _, l := range testgen.LitmusTests() {
		for _, width := range []int{32, 64} {
			checkAgainstReference(t, l.Prog, width, nil)
		}
	}
	for threads := 1; threads <= 8; threads++ {
		for _, ops := range []int{1, 7, 50, 120, 200} {
			if testing.Short() && ops > 50 {
				continue
			}
			for _, words := range []int{1, 3, 8, 64} {
				for seed := int64(1); seed <= 3; seed++ {
					p := mustGenerate(testgen.Config{Threads: threads, OpsPerThread: ops, Words: words,
						FenceProb: 0.05, Seed: seed})
					p.Name = fmt.Sprintf("%d×%d×%d seed %d", threads, ops, words, seed)
					for _, width := range []int{32, 64} {
						checkAgainstReference(t, p, width, nil)
						checkAgainstReference(t, p, width, SkewPruner(p, 5))
					}
				}
			}
		}
	}
}

// referenceSkew is SkewPruner as its definition reads, one candidate at a time.
func referenceSkew(p *prog.Program, maxSkew int) Pruner {
	return func(load prog.Op, cands []Candidate) []Candidate {
		var kept []Candidate
		for _, c := range cands {
			if c.Store >= 0 {
				st := p.OpByID(c.Store)
				d := st.Index - load.Index
				if st.Thread != load.Thread && (d > maxSkew || -d > maxSkew) {
					continue
				}
			}
			kept = append(kept, c)
		}
		return kept
	}
}

// TestSkewPrunerMatchesDefinition: SkewPruner's arithmetic keeps what the
// definition keeps, at every bound from none (negative) to all.
func TestSkewPrunerMatchesDefinition(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 4, OpsPerThread: 60, Words: 3, Seed: 9})
	for _, skew := range []int{-5, -1, 0, 1, 7, 59, 60, 1000} {
		got, err := Analyze(p, 64, SkewPruner(p, skew))
		want, wantErr := Analyze(p, 64, referenceSkew(p, skew))
		if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(got.Threads, want.Threads) {
			t.Errorf("skew %d: SkewPruner gives %v, the definition %v", skew, err, wantErr)
		}
	}
}

// TestAnalyzeRefusesWhatIsNotPruning: a pruner may only remove candidates and
// keep the rest in order. Analyze accepts any such result, in place or in a
// slice of the pruner's own, and refuses every other one: an added, repeated,
// reordered or changed candidate, or one the unpruned set never held (an
// own-thread store other than the latest preceding one, the initial value
// behind such a store, another word's store).
func TestAnalyzeRefusesWhatIsNotPruning(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 3, OpsPerThread: 40, Words: 2, Seed: 4})
	want, err := Analyze(p, 64, SkewPruner(p, 6))
	if err != nil {
		t.Fatal(err)
	}
	skew := SkewPruner(p, 6)
	copied, err := Analyze(p, 64, func(load prog.Op, cands []Candidate) []Candidate {
		return skew(load, append([]Candidate(nil), cands...))
	})
	if err != nil || !reflect.DeepEqual(copied.Threads, want.Threads) {
		t.Errorf("a pruner filtering a copy: %v, or a result other than in place", err)
	}
	if _, err := Analyze(p, 64, func(_ prog.Op, cands []Candidate) []Candidate { return cands }); err != nil {
		t.Errorf("a pruner keeping everything: %v", err)
	}

	// What a load's candidates could wrongly be, and the first load each
	// applies to.
	ownStore := func(load prog.Op, earlier bool) (Candidate, bool) {
		var found []prog.Op
		for _, op := range p.Threads[load.Thread].Ops {
			if op.Kind == prog.Store && op.Word == load.Word && (op.Index < load.Index) == earlier {
				found = append(found, op)
			}
		}
		if earlier && len(found) > 1 {
			return Candidate{Value: found[0].Value, Store: found[0].ID}, true // not the latest
		}
		if !earlier && len(found) > 0 {
			return Candidate{Value: found[0].Value, Store: found[0].ID}, true
		}
		return Candidate{}, false
	}
	insert := func(cands []Candidate, c Candidate) []Candidate {
		out := append([]Candidate(nil), cands...)
		i := sort.Search(len(out), func(i int) bool { return out[i].Store >= c.Store })
		return append(out[:i], append([]Candidate{c}, out[i:]...)...)
	}
	otherWord := func(load prog.Op) (Candidate, bool) {
		for _, th := range p.Threads {
			for _, op := range th.Ops {
				if op.Kind == prog.Store && op.Word != load.Word {
					return Candidate{Value: op.Value, Store: op.ID}, true
				}
			}
		}
		return Candidate{}, false
	}
	for name, bad := range map[string]func(prog.Op, []Candidate) ([]Candidate, bool){
		"added at the end": func(_ prog.Op, c []Candidate) ([]Candidate, bool) {
			return append(c, Candidate{Value: 1 << 30, Store: p.NumOps()}), true
		},
		"repeated": func(_ prog.Op, c []Candidate) ([]Candidate, bool) {
			return append(append([]Candidate(nil), c...), c[len(c)-1]), true
		},
		"reordered": func(_ prog.Op, c []Candidate) ([]Candidate, bool) {
			if len(c) < 2 {
				return nil, false
			}
			c[0], c[1] = c[1], c[0]
			return c, true
		},
		"value changed": func(_ prog.Op, c []Candidate) ([]Candidate, bool) {
			c[len(c)-1].Value++
			return c, true
		},
		"an earlier own store": func(load prog.Op, c []Candidate) ([]Candidate, bool) {
			own, ok := ownStore(load, true)
			return insert(c, own), ok
		},
		"a later own store": func(load prog.Op, c []Candidate) ([]Candidate, bool) {
			own, ok := ownStore(load, false)
			return insert(c, own), ok
		},
		"the initial value behind an own store": func(_ prog.Op, c []Candidate) ([]Candidate, bool) {
			if c[0].Store < 0 {
				return nil, false
			}
			return insert(c, Candidate{Value: prog.InitialValue, Store: -1}), true
		},
		"another word's store": func(load prog.Op, c []Candidate) ([]Candidate, bool) {
			other, ok := otherWord(load)
			return insert(c, other), ok
		},
	} {
		applied := false
		_, err := Analyze(p, 64, func(load prog.Op, cands []Candidate) []Candidate {
			if applied {
				return cands
			}
			out, ok := bad(load, cands)
			if !ok {
				return cands
			}
			applied = true
			return out
		})
		if !applied {
			t.Fatalf("%s: no load to apply it to", name)
		}
		if err == nil || !strings.Contains(err.Error(), "did more than remove candidates") {
			t.Errorf("%s: Analyze returned %v", name, err)
		}
	}
}

// TestAnalyzeAllocBudget holds an analysis to a fixed number of allocations,
// whatever the program's size: the store index, one candidate arena, one
// LoadInfo arena and the tables (the per-load definition makes 1,356 on the
// first program and 70,352 on the second).
func TestAnalyzeAllocBudget(t *testing.T) {
	const budget = 32
	for _, cfg := range []testgen.Config{
		{Threads: 4, OpsPerThread: 50, Words: 8, Seed: 1},
		{Threads: 8, OpsPerThread: 1000, Words: 64, Seed: 1},
	} {
		p := mustGenerate(cfg)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Analyze(p, 32, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("%s: Analyze made %.0f allocations, budget %d", cfg.Name(), allocs, budget)
		}
	}
}

// FuzzAnalyze compares the one-pass analysis with the definition on
// fuzz-chosen generated programs, register widths and skew bounds (a
// negative bound: no pruner).
func FuzzAnalyze(f *testing.F) {
	f.Add(uint8(4), uint8(50), uint8(8), uint8(0), int64(1), false, int8(-1))
	f.Add(uint8(2), uint8(30), uint8(1), uint8(20), int64(2), true, int8(3))
	f.Add(uint8(7), uint8(200), uint8(64), uint8(5), int64(3), false, int8(0))
	f.Fuzz(func(t *testing.T, threads, ops, words, fencePct uint8, seed int64, wide bool, skew int8) {
		cfg := testgen.Config{
			Threads:      1 + int(threads%8),
			OpsPerThread: 1 + int(ops),
			Words:        1 + int(words%128),
			FenceProb:    float64(fencePct%101) / 100,
			Seed:         seed,
		}
		p := mustGenerate(cfg)
		width := 32
		if wide {
			width = 64
		}
		var prune Pruner
		if skew >= 0 {
			prune = SkewPruner(p, int(skew))
		}
		checkAgainstReference(t, p, width, prune)
	})
}

// TestDivmodMatchesDivide: the decoder's reciprocal digit step gives Go's /
// and % at the divisors where a reciprocal is most likely off by one — the
// smallest, those around 2³² and the largest — and at every multiplier of the
// ARM 7×200 program at both register widths (at 64 bits the largest sit next
// to the word cap), each at 0, 1, d−1, d and 2⁶⁴−1.
func TestDivmodMatchesDivide(t *testing.T) {
	divisors := []uint64{1, 2, 3, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 63, math.MaxUint64}
	p := mustGenerate(testgen.Config{Threads: 7, OpsPerThread: 200, Words: 64, Seed: 1})
	for _, width := range []int{32, 64} {
		meta, err := Analyze(p, width, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tm := range meta.Threads {
			for _, li := range tm.Loads {
				divisors = append(divisors, li.Multiplier)
			}
		}
	}
	for _, d := range divisors {
		li := LoadInfo{Multiplier: d, recip: reciprocal(d)}
		for _, v := range []uint64{0, 1, d - 1, d, math.MaxUint64} {
			if q, r := li.divmod(v); q != v/d || r != v%d {
				t.Fatalf("%d divmod %d = (%d, %d), want (%d, %d)", v, d, q, r, v/d, v%d)
			}
		}
	}
}
