package instrument

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mtracecheck/internal/isa"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/testgen"
)

// mustGenerate is testgen.Generate, panicking on error.
func mustGenerate(cfg testgen.Config) *prog.Program {
	p, err := testgen.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// fig3Program reconstructs the paper's Fig. 3 example (IDs here are 0-based;
// the paper's figure numbers operations from 1). Word 0 is the figure's
// 0x100, word 1 is 0x104.
func fig3Program() *prog.Program {
	return prog.NewBuilder("fig3", 2, prog.DefaultLayout()).
		Thread().Store(0).Load(0).Load(1).Store(0). // ops 0-3
		Thread().Store(1).Store(0).Load(0).         // ops 4-6
		Thread().Store(1).Store(0).Store(1).        // ops 7-9
		MustBuild()
}

func TestFig3CandidatesAndWeights(t *testing.T) {
	p := fig3Program()
	meta, err := Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	t0 := meta.Threads[0]
	if len(t0.Loads) != 2 {
		t.Fatalf("thread 0: %d loads, want 2", len(t0.Loads))
	}
	// Load op 1 (paper's #2): candidates {own st 0, t1 st 5, t2 st 8},
	// multiplier 1.
	l2 := t0.Loads[0]
	wantStores := []int{0, 5, 8}
	if len(l2.Candidates) != 3 || l2.Multiplier != 1 {
		t.Fatalf("load 1: %d candidates, multiplier %d", len(l2.Candidates), l2.Multiplier)
	}
	for i, c := range l2.Candidates {
		if c.Store != wantStores[i] {
			t.Errorf("load 1 candidate %d: store %d, want %d", i, c.Store, wantStores[i])
		}
	}
	// Load op 2 (paper's #3): candidates {initial, st 4, st 7, st 9},
	// multiplier 3 (the previous load had 3 candidates).
	l3 := t0.Loads[1]
	wantStores = []int{-1, 4, 7, 9}
	if len(l3.Candidates) != 4 || l3.Multiplier != 3 {
		t.Fatalf("load 2: %d candidates, multiplier %d", len(l3.Candidates), l3.Multiplier)
	}
	for i, c := range l3.Candidates {
		if c.Store != wantStores[i] {
			t.Errorf("load 2 candidate %d: store %d, want %d", i, c.Store, wantStores[i])
		}
	}
	// Thread 1's load (op 6, paper's #7): own store 5 plus stores 0, 3, 8.
	l7 := meta.Threads[1].Loads[0]
	wantStores = []int{0, 3, 5, 8}
	if len(l7.Candidates) != 4 || l7.Multiplier != 1 {
		t.Fatalf("load 6: %d candidates, multiplier %d", len(l7.Candidates), l7.Multiplier)
	}
	for i, c := range l7.Candidates {
		if c.Store != wantStores[i] {
			t.Errorf("load 6 candidate %d: store %d, want %d", i, c.Store, wantStores[i])
		}
	}
	// Thread 2 has no loads but still contributes one zero word.
	if meta.Threads[2].Words != 1 || len(meta.Threads[2].Loads) != 0 {
		t.Errorf("thread 2: %d words, %d loads", meta.Threads[2].Words, len(meta.Threads[2].Loads))
	}
}

func TestFig3SignatureValue(t *testing.T) {
	// Paper: thread 0 observes store #9 (0-based 8) at the first load and
	// store #8 (0-based 7) at the second: signature 2 + 6 = 8.
	p := fig3Program()
	meta, err := Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	values := []uint32{
		1: 9, // store 8 writes value 9
		2: 8, // store 7 writes value 8
		6: 1, // thread 1's load reads store 0 (value 1): weight 0
	}
	s, err := meta.EncodeValues(values)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("signature has %d words, want 3", s.Len())
	}
	if s.Word(0) != 8 {
		t.Errorf("thread 0 word = %d, want 8", s.Word(0))
	}
	if s.Word(1) != 0 || s.Word(2) != 0 {
		t.Errorf("threads 1/2 words = %d/%d, want 0/0", s.Word(1), s.Word(2))
	}
}

// decode is DecodeInto over a fresh dense reads-from slice.
func decode(meta *Meta, s sig.Signature) ([]int32, error) {
	rf := make([]int32, meta.Prog.NumOps())
	return rf, meta.DecodeInto(s, rf)
}

// valueOf is the value a load observes reading from store (-1: the initial
// value) — the inverse of the candidate lookup the encoder performs.
func valueOf(meta *Meta, store int32) uint32 {
	if store < 0 {
		return prog.InitialValue
	}
	return meta.Prog.OpByID(int(store)).Value
}

// randomRF picks a random candidate for every load; the values are dense by
// op ID, the shape the encoder takes.
func randomRF(meta *Meta, rng *rand.Rand) []uint32 {
	vals := make([]uint32, meta.Prog.NumOps())
	for _, tm := range meta.Threads {
		for _, li := range tm.Loads {
			vals[li.Op.ID] = li.Candidates[rng.Intn(len(li.Candidates))].Value
		}
	}
	return vals
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, width := range []int{32, 64} {
		for seed := int64(1); seed <= 5; seed++ {
			p := mustGenerate(testgen.Config{
				Threads: 4, OpsPerThread: 60, Words: 8, Seed: seed,
			})
			meta, err := Analyze(p, width, nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed * 31))
			for trial := 0; trial < 20; trial++ {
				vals := randomRF(meta, rng)
				s, err := meta.EncodeValues(vals)
				if err != nil {
					t.Fatal(err)
				}
				rf, err := decode(meta, s)
				if err != nil {
					t.Fatal(err)
				}
				for _, tm := range meta.Threads {
					for _, li := range tm.Loads {
						id := li.Op.ID
						if got := valueOf(meta, rf[id]); got != vals[id] {
							t.Fatalf("width %d seed %d: load %d decoded %d, want %d",
								width, seed, id, got, vals[id])
						}
					}
				}
			}
		}
	}
}

// TestSignatureUniqueness: distinct reads-from patterns must yield distinct
// signatures (the 1:1 mapping of §3.1).
func TestSignatureUniqueness(t *testing.T) {
	p := mustGenerate(testgen.Config{
		Threads: 3, OpsPerThread: 30, Words: 4, Seed: 9,
	})
	meta, err := Analyze(p, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	seen := map[string]string{} // sig key -> rf fingerprint
	for trial := 0; trial < 500; trial++ {
		vals := randomRF(meta, rng)
		fp := ""
		for _, tm := range meta.Threads {
			for _, li := range tm.Loads {
				fp += string(rune(vals[li.Op.ID])) + ","
			}
		}
		s, err := meta.EncodeValues(vals)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[s.Key()]; ok && prev != fp {
			t.Fatal("two distinct reads-from patterns share a signature")
		}
		seen[s.Key()] = fp
	}
}

func TestMultiWordOverflow32(t *testing.T) {
	// High contention on few words with 32-bit registers forces multi-word
	// per-thread signatures.
	p := mustGenerate(testgen.Config{
		Threads: 4, OpsPerThread: 100, Words: 4, Seed: 3,
	})
	meta32, err := Analyze(p, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	meta64, err := Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta32.TotalWords() <= p.NumThreads() {
		t.Errorf("32-bit words = %d, expected overflow beyond %d",
			meta32.TotalWords(), p.NumThreads())
	}
	if meta32.TotalWords() <= meta64.TotalWords() {
		t.Errorf("32-bit words (%d) should exceed 64-bit words (%d)",
			meta32.TotalWords(), meta64.TotalWords())
	}
	// Capacity invariant: within each word, the product of candidate counts
	// fits the register.
	for _, tm := range meta32.Threads {
		prod := map[int]float64{}
		for _, li := range tm.Loads {
			prod[li.WordIndex] = math.Max(prod[li.WordIndex], 1)
			prod[li.WordIndex] *= float64(len(li.Candidates))
		}
		for w, pr := range prod {
			if pr > math.Pow(2, 32) {
				t.Errorf("word %d holds %g > 2^32 combinations", w, pr)
			}
		}
	}
}

func TestAssertionError(t *testing.T) {
	p := fig3Program()
	meta, err := Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	vals := []uint32{1: 99, 2: 0, 6: 1} // 99 written by nobody
	_, err = meta.EncodeValues(vals)
	var ae *AssertionError
	if !errors.As(err, &ae) {
		t.Fatalf("EncodeValues error = %v, want AssertionError", err)
	}
	if ae.Load.ID != 1 || ae.Value != 99 {
		t.Errorf("AssertionError = %+v", ae)
	}
}

func TestDecodeRejectsCorruptSignatures(t *testing.T) {
	p := fig3Program()
	meta, err := Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Word 0 max valid value is 2 + 9 = 11; 12 decodes out of range.
	if _, err := decode(meta, sig.New([]uint64{12, 0, 0})); err == nil {
		t.Error("DecodeInto accepted out-of-range word")
	}
	if _, err := decode(meta, sig.New([]uint64{0, 0})); err == nil {
		t.Error("DecodeInto accepted wrong word count")
	}
}

func TestPrunerShrinksSignatures(t *testing.T) {
	p := mustGenerate(testgen.Config{
		Threads: 4, OpsPerThread: 100, Words: 4, Seed: 3,
	})
	full, err := Analyze(p, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Keep only candidates whose store is "nearby" in ID space — a crude
	// stand-in for LSQ-bounded pruning (§8).
	pruned, err := Analyze(p, 32, func(load prog.Op, cands []Candidate) []Candidate {
		kept := cands[:0]
		for _, c := range cands {
			if d := c.Store - load.ID; c.Store < 0 || d < 40 && d > -40 {
				kept = append(kept, c)
			}
		}
		return kept
	})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.SignatureBytes() >= full.SignatureBytes() {
		t.Errorf("pruned signature %dB not smaller than full %dB",
			pruned.SignatureBytes(), full.SignatureBytes())
	}
	// Every candidate is the initial value or a store to its load's word,
	// with and without pruning: a decoded row is one the graph builder
	// accepts, so the checkers take it without a second look.
	skew, err := Analyze(p, 32, SkewPruner(p, 8))
	if err != nil {
		t.Fatal(err)
	}
	for name, meta := range map[string]*Meta{"full": full, "pruned": pruned, "skew": skew} {
		for _, tm := range meta.Threads {
			for _, li := range tm.Loads {
				for _, c := range li.Candidates {
					if c.Store == -1 {
						continue
					}
					if c.Store < 0 || c.Store >= p.NumOps() || p.OpByID(c.Store).Kind != prog.Store || p.OpByID(c.Store).Word != li.Op.Word {
						t.Errorf("%s: load %d (word %d) has candidate %d, not a store to its word", name, li.Op.ID, li.Op.Word, c.Store)
					}
				}
			}
		}
	}
}

func TestGenerateCodeShapes(t *testing.T) {
	p := fig3Program()
	meta, err := Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []isa.Encoding{isa.EncodingRISC, isa.EncodingCISC} {
		gp, err := Generate(meta, enc)
		if err != nil {
			t.Fatal(err)
		}
		orig, inst, flush := gp.CodeSizes()
		if inst <= orig {
			t.Errorf("%v: instrumented %dB not larger than original %dB", enc, inst, orig)
		}
		if flush <= orig {
			t.Errorf("%v: flush %dB not larger than original %dB", enc, flush, orig)
		}
		// The flush variant adds exactly one STR per load.
		for ti, code := range gp.Flush {
			strs := 0
			for _, ins := range code {
				if ins.Op == isa.STR {
					strs++
				}
			}
			loads := len(p.Threads[ti].Loads())
			if strs != loads {
				t.Errorf("thread %d flush: %d STRs, want %d", ti, strs, loads)
			}
		}
		// Instrumented code ends each thread with a final signature store;
		// total STRs per thread equal the thread's word count.
		for ti, code := range gp.Instrumented {
			strs := 0
			fails := 0
			for _, ins := range code {
				if ins.Op == isa.STR {
					strs++
				}
				if ins.Op == isa.FAIL {
					fails++
				}
			}
			if strs != meta.Threads[ti].Words {
				t.Errorf("thread %d: %d signature stores, want %d", ti, strs, meta.Threads[ti].Words)
			}
			if fails != len(meta.Threads[ti].Loads) {
				t.Errorf("thread %d: %d assert traps, want %d", ti, fails, len(meta.Threads[ti].Loads))
			}
		}
	}
}

func TestSignatureBytes(t *testing.T) {
	p := fig3Program()
	meta32, _ := Analyze(p, 32, nil)
	meta64, _ := Analyze(p, 64, nil)
	if got := meta32.SignatureBytes(); got != 3*4 {
		t.Errorf("32-bit signature bytes = %d, want 12", got)
	}
	if got := meta64.SignatureBytes(); got != 3*8 {
		t.Errorf("64-bit signature bytes = %d, want 24", got)
	}
}
