package instrument

import (
	"errors"
	"math/rand"
	"testing"

	"mtracecheck/internal/mcm"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/testgen"
)

func TestDynamicEncoderRejectsWeakModels(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 2, OpsPerThread: 10, Words: 2, Seed: 1})
	meta, err := Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDynamicEncoder(meta, mcm.RMO); err == nil {
		t.Error("dynamic pruning accepted RMO (ld->ld unordered)")
	}
	for _, m := range []mcm.Model{mcm.SC, mcm.TSO, mcm.PSO} {
		if _, err := NewDynamicEncoder(meta, m); err != nil {
			t.Errorf("%v rejected: %v", m, err)
		}
	}
}

// coherentRF builds a random execution respecting the frontier invariants
// (monotone per-(word,source-thread) observation, no initial after store) —
// what a correct ld→ld-ordered platform produces.
func coherentRF(meta *Meta, rng *rand.Rand) []uint32 {
	vals := make([]uint32, meta.Prog.NumOps())
	for _, tm := range meta.Threads {
		f := newFrontier()
		for _, li := range tm.Loads {
			cands := f.admissible(meta, li)
			c := cands[rng.Intn(len(cands))]
			vals[li.Op.ID] = c.Value
			f.observe(meta, li, c)
		}
	}
	return vals
}

func TestDynamicRoundTrip(t *testing.T) {
	for _, width := range []int{32, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			p := mustGenerate(testgen.Config{
				Threads: 4, OpsPerThread: 60, Words: 4, Seed: seed,
			})
			meta, err := Analyze(p, width, nil)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := NewDynamicEncoder(meta, mcm.TSO)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed * 7))
			for trial := 0; trial < 25; trial++ {
				vals := coherentRF(meta, rng)
				s, err := enc.Encode(vals)
				if err != nil {
					t.Fatal(err)
				}
				back, err := enc.Decode(s)
				if err != nil {
					t.Fatalf("width %d seed %d: %v (sig %v)", width, seed, err, s)
				}
				for id, v := range vals {
					if back[id].Value != v {
						t.Fatalf("load %d: decoded %d, want %d", id, back[id].Value, v)
					}
				}
			}
		}
	}
}

// TestDynamicShorterThanStatic: the whole point — frontier pruning shrinks
// signatures on contended tests.
func TestDynamicShorterThanStatic(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 4, OpsPerThread: 100, Words: 4, Seed: 3})
	meta, err := Analyze(p, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewDynamicEncoder(meta, mcm.TSO)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	staticWords := meta.TotalWords()
	maxDyn, sum, n := 0, 0, 0
	for trial := 0; trial < 30; trial++ {
		vals := coherentRF(meta, rng)
		s, err := enc.Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		dynWords := s.Len() - p.NumThreads() // exclude per-thread length words
		if dynWords > maxDyn {
			maxDyn = dynWords
		}
		sum += dynWords
		n++
	}
	if avg := float64(sum) / float64(n); avg >= float64(staticWords) {
		t.Errorf("dynamic avg %.1f words not below static %d", avg, staticWords)
	}
}

func TestDynamicAssertOnFrontierViolation(t *testing.T) {
	// t0: st x (value 1)   t1: ld x, ld x
	p := prog.NewBuilder("corr", 1, prog.DefaultLayout()).
		Thread().Store(0).
		Thread().Load(0).Load(0).
		MustBuild()
	meta, err := Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewDynamicEncoder(meta, mcm.TSO)
	if err != nil {
		t.Fatal(err)
	}
	// Coherence violation: new value then initial — the frontier prunes the
	// initial value, so the dynamic instrumentation asserts inline, without
	// any graph checking (the very violation static encoding only catches
	// at graph time).
	_, err = enc.Encode([]uint32{1: 1, 2: 0})
	var ae *AssertionError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want AssertionError", err)
	}
	// The static encoder accepts the same values (graph checking needed).
	if _, err := meta.EncodeValues([]uint32{1: 1, 2: 0}); err != nil {
		t.Fatalf("static encoder rejected: %v", err)
	}
}

func TestDynamicDecodeRejectsGarbage(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 2, OpsPerThread: 30, Words: 2, Seed: 5})
	meta, err := Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewDynamicEncoder(meta, mcm.TSO)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]uint64{
		{},                    // empty
		{0},                   // zero count
		{1},                   // truncated section
		{99, 0},               // absurd count
		{1, ^uint64(0), 1, 0}, // out-of-range digits
	}
	for i, words := range bad {
		if _, err := enc.Decode(sigOfWords(words)); err == nil {
			t.Errorf("case %d: garbage decoded", i)
		}
	}
}

func sigOfWords(words []uint64) sig.Signature { return sig.New(words) }
