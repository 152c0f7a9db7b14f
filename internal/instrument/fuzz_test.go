package instrument

import (
	"slices"
	"testing"

	"mtracecheck/internal/sig"
	"mtracecheck/internal/testgen"
)

// FuzzDecode feeds arbitrary signature words to the Algorithm 1 decoder:
// it must either decode cleanly or reject with an error — never panic, and
// anything it accepts must re-encode to the same signature (decode/encode
// inverse property). Decodable must accept exactly what DecodeInto accepts,
// and DecodeRow over the row of a decodable prev must decode only the words
// that differ and leave DecodeInto's row.
func FuzzDecode(f *testing.F) {
	p := mustGenerate(testgen.Config{Threads: 3, OpsPerThread: 30, Words: 4, Seed: 11})
	meta, err := Analyze(p, 64, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint64(2), uint64(3))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0))
	// Mutated valid signatures — the fault injector's corruption model:
	// start from real encodings and flip single bits or blow out one word,
	// so the fuzzer explores the boundary between decodable and corrupt.
	valid := validSignature(f, meta)
	f.Add(valid.Word(0), valid.Word(1), valid.Word(2))
	for w := 0; w < valid.Len(); w++ {
		for _, bit := range []uint{0, 1, 7, 31, 63} {
			words := valid.Words()
			words[w] ^= 1 << bit
			f.Add(words[0], words[1], words[2])
		}
		words := valid.Words()
		words[w] = ^uint64(0)
		f.Add(words[0], words[1], words[2])
	}
	f.Fuzz(func(t *testing.T, w0, w1, w2 uint64) {
		s := sig.New([]uint64{w0, w1, w2})
		rf, err := decode(meta, s)
		if ok := meta.Decodable(s); ok != (err == nil) {
			t.Fatalf("Decodable(%v) = %t, DecodeInto: %v", s, ok, err)
		}
		for _, prev := range deltaBases(meta, s, valid) {
			checkDecodeRow(t, meta, s, prev, rf, err)
		}
		if err != nil {
			return // rejected: fine
		}
		vals := make([]uint32, len(rf))
		for _, tm := range meta.Threads {
			for _, li := range tm.Loads {
				vals[li.Op.ID] = valueOf(meta, rf[li.Op.ID])
			}
		}
		back, err := meta.EncodeValues(vals)
		if err != nil {
			t.Fatalf("decoded values failed to re-encode: %v", err)
		}
		if !back.Equal(s) {
			t.Fatalf("decode/encode mismatch: %v -> %v", s, back)
		}
	})
}

// deltaBases are the decodable signatures DecodeRow of s is tried against:
// the all-zero one, valid, and s with one word taken from valid.
func deltaBases(meta *Meta, s, valid sig.Signature) []sig.Signature {
	bases := []sig.Signature{sig.Zero(s.Len()), valid}
	for w := 0; w < s.Len(); w++ {
		words := s.Words()
		words[w] = valid.Word(w)
		if b := sig.New(words); meta.Decodable(b) {
			bases = append(bases, b)
		}
	}
	return bases
}

// checkDecodeRow: decoding s over prev's row changes the loads of the words
// in which they differ and only those, gives DecodeInto's row (want, or its
// error wantErr) and reports the loads it decoded.
func checkDecodeRow(t *testing.T, meta *Meta, s, prev sig.Signature, want []int32, wantErr error) {
	t.Helper()
	base, err := decode(meta, prev)
	if err != nil {
		t.Fatalf("base %v: %v", prev, err)
	}
	row := slices.Clone(base)
	got, loads, err := meta.DecodeRow(s, prev, row, nil)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("DecodeRow(%v over %v): %v, DecodeInto: %v", s, prev, err, wantErr)
	}
	if err != nil {
		return
	}
	var wantLoads []int32
	k := 0
	for _, tm := range meta.Threads {
		for _, li := range tm.Loads {
			if s.Word(k+li.WordIndex) != prev.Word(k+li.WordIndex) {
				wantLoads = append(wantLoads, int32(li.Op.ID))
			}
			if id := li.Op.ID; got[id] != want[id] {
				t.Fatalf("DecodeRow(%v over %v): load %d reads %d, DecodeInto: %d", s, prev, id, got[id], want[id])
			}
		}
		k += tm.Words
	}
	slices.Sort(loads)
	if !slices.Equal(loads, wantLoads) {
		t.Fatalf("DecodeRow(%v over %v) reports loads %v, the differing words hold %v", s, prev, loads, wantLoads)
	}
}

// validSignature builds a real encoding without running the simulator:
// every load observes its last (highest-weight) candidate, which the
// encoder must accept by construction.
func validSignature(f *testing.F, meta *Meta) sig.Signature {
	f.Helper()
	vals := make([]uint32, meta.Prog.NumOps())
	for _, tm := range meta.Threads {
		for _, li := range tm.Loads {
			vals[li.Op.ID] = li.Candidates[len(li.Candidates)-1].Value
		}
	}
	s, err := meta.EncodeValues(vals)
	if err != nil {
		f.Fatalf("constructed execution failed to encode: %v", err)
	}
	return s
}

// TestDecodeRejectsOutOfRange pins the decoder's reaction to the fault
// injector's out-of-range corruption: a signature word forced to all-ones
// must produce a decode error (not a panic, not a silent acceptance),
// whichever word is hit.
func TestDecodeRejectsOutOfRange(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 3, OpsPerThread: 30, Words: 4, Seed: 11})
	meta, err := Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint32, meta.Prog.NumOps())
	for _, tm := range meta.Threads {
		for _, li := range tm.Loads {
			vals[li.Op.ID] = li.Candidates[0].Value
		}
	}
	valid, err := meta.EncodeValues(vals)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(meta, valid); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	for w := 0; w < valid.Len(); w++ {
		words := valid.Words()
		words[w] = ^uint64(0)
		if _, err := decode(meta, sig.New(words)); err == nil {
			t.Errorf("all-ones word %d decoded without error", w)
		}
	}
	// Wrong word count is likewise an error, not a panic.
	if _, err := decode(meta, sig.New(valid.Words()[:valid.Len()-1])); err == nil {
		t.Error("short signature decoded without error")
	}
}

// FuzzEncodeValues feeds arbitrary load values to the encoder: any accepted
// execution must round-trip through DecodeInto.
func FuzzEncodeValues(f *testing.F) {
	p := mustGenerate(testgen.Config{Threads: 2, OpsPerThread: 20, Words: 2, Seed: 13})
	meta, err := Analyze(p, 32, nil)
	if err != nil {
		f.Fatal(err)
	}
	var loadIDs []int
	for _, tm := range meta.Threads {
		for _, li := range tm.Loads {
			loadIDs = append(loadIDs, li.Op.ID)
		}
	}
	f.Add(uint32(0), uint32(1), uint32(7))
	f.Fuzz(func(t *testing.T, a, b, c uint32) {
		vals := make([]uint32, meta.Prog.NumOps())
		pick := []uint32{a, b, c}
		for i, id := range loadIDs {
			vals[id] = pick[i%len(pick)]
		}
		s, err := meta.EncodeValues(vals)
		if err != nil {
			return // value outside candidate set: the assert path
		}
		rf, err := decode(meta, s)
		if err != nil {
			t.Fatalf("encoded signature failed to decode: %v", err)
		}
		for _, id := range loadIDs {
			if got := valueOf(meta, rf[id]); got != vals[id] {
				t.Fatalf("load %d: decoded %d, encoded %d", id, got, vals[id])
			}
		}
	})
}
