package sig

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCompareSingleWord(t *testing.T) {
	a := New([]uint64{5})
	b := New([]uint64{9})
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Errorf("Compare ordering wrong: %d %d %d", a.Compare(b), b.Compare(a), a.Compare(a))
	}
}

func TestCompareMultiWordMostSignificantFirst(t *testing.T) {
	// First word dominates: {1, 0} > {0, ^0}.
	hi := New([]uint64{1, 0})
	lo := New([]uint64{0, ^uint64(0)})
	if hi.Compare(lo) != 1 {
		t.Error("most-significant-first comparison violated")
	}
}

func TestCompareLengths(t *testing.T) {
	short := New([]uint64{9})
	long := New([]uint64{0, 0})
	if short.Compare(long) != -1 || long.Compare(short) != 1 {
		t.Error("length comparison wrong")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(a, b, c uint64) bool {
		// Bytes is the big-endian encoding, most significant word first.
		var words [3]uint64
		for i, enc := 0, New([]uint64{a, b, c}).Bytes(); i < len(words) && len(enc) == 24; i++ {
			words[i] = binary.BigEndian.Uint64(enc[8*i:])
		}
		return words == [3]uint64{a, b, c}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyUniqueness(t *testing.T) {
	a := New([]uint64{1, 2})
	b := New([]uint64{1, 3})
	c := New([]uint64{1, 2})
	if a.Key() == b.Key() {
		t.Error("distinct signatures share a key")
	}
	if a.Key() != c.Key() {
		t.Error("equal signatures have different keys")
	}
}

// dedup is the slice-at-once definition Set is compared with: sort (in
// place), then count runs of equal signatures.
func dedup(sigs []Signature) []Unique {
	if len(sigs) == 0 {
		return nil
	}
	Sort(sigs)
	out := make([]Unique, 0, len(sigs))
	out = append(out, Unique{Sig: sigs[0], Count: 1})
	for _, s := range sigs[1:] {
		if s.Equal(out[len(out)-1].Sig) {
			out[len(out)-1].Count++
		} else {
			out = append(out, Unique{Sig: s, Count: 1})
		}
	}
	return out
}

func TestSortAndDedup(t *testing.T) {
	sigs := []Signature{
		New([]uint64{3}), New([]uint64{1}), New([]uint64{3}),
		New([]uint64{2}), New([]uint64{1}), New([]uint64{1}),
	}
	u := dedup(sigs)
	if len(u) != 3 {
		t.Fatalf("Dedup: %d unique, want 3", len(u))
	}
	wantVals := []uint64{1, 2, 3}
	wantCounts := []int{3, 1, 2}
	for i := range u {
		if u[i].Sig.Word(0) != wantVals[i] || u[i].Count != wantCounts[i] {
			t.Errorf("Dedup[%d] = %v x%d, want %d x%d",
				i, u[i].Sig, u[i].Count, wantVals[i], wantCounts[i])
		}
	}
	if !slices.IsSortedFunc(sigs, Signature.Compare) {
		t.Error("input not sorted in place")
	}
}

func TestDedupEmpty(t *testing.T) {
	if got := dedup(nil); got != nil {
		t.Errorf("dedup(nil) = %v, want nil", got)
	}
}

func TestSetMatchesDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sigs []Signature
	set := NewSet()
	for i := 0; i < 500; i++ {
		s := New([]uint64{uint64(rng.Intn(20)), uint64(rng.Intn(3))})
		sigs = append(sigs, s)
		set.Add(s)
	}
	fromSet := set.Sorted()
	fromSlice := dedup(sigs)
	if len(fromSet) != len(fromSlice) {
		t.Fatalf("Set: %d unique, Dedup: %d", len(fromSet), len(fromSlice))
	}
	for i := range fromSet {
		if !fromSet[i].Sig.Equal(fromSlice[i].Sig) || fromSet[i].Count != fromSlice[i].Count {
			t.Errorf("mismatch at %d: set %v x%d, slice %v x%d", i,
				fromSet[i].Sig, fromSet[i].Count, fromSlice[i].Sig, fromSlice[i].Count)
		}
	}
	if set.Total() != 500 {
		t.Errorf("Total = %d, want 500", set.Total())
	}
}

func TestSetAddReportsNew(t *testing.T) {
	set := NewSet()
	s := New([]uint64{42})
	if !set.Add(s) {
		t.Error("first Add reported duplicate")
	}
	if set.Add(s) {
		t.Error("second Add reported new")
	}
	if set.Len() != 1 {
		t.Errorf("Len = %d, want 1", set.Len())
	}
}

func TestStringFormat(t *testing.T) {
	if got := New([]uint64{0x2, 0x84}).String(); got != "0x2:0x84" {
		t.Errorf("String = %q", got)
	}
	if got := (Signature{}).String(); got != "0x0" {
		t.Errorf("empty String = %q", got)
	}
}

func TestNewCopiesInput(t *testing.T) {
	w := []uint64{1, 2}
	s := New(w)
	w[0] = 99
	if s.Word(0) != 1 {
		t.Error("New aliased caller slice")
	}
	got := s.Words()
	got[1] = 77
	if s.Word(1) != 2 {
		t.Error("Words aliased internal slice")
	}
}

// Property: Compare is a total order consistent with big-endian byte
// comparison of the encodings (equal lengths).
func TestCompareMatchesByteOrder(t *testing.T) {
	f := func(a1, a2, b1, b2 uint64) bool {
		a := New([]uint64{a1, a2})
		b := New([]uint64{b1, b2})
		byteCmp := 0
		ab, bb := a.Bytes(), b.Bytes()
		for i := range ab {
			if ab[i] != bb[i] {
				if ab[i] < bb[i] {
					byteCmp = -1
				} else {
					byteCmp = 1
				}
				break
			}
		}
		return a.Compare(b) == byteCmp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZero(t *testing.T) {
	z := Zero(3)
	if z.Len() != 3 {
		t.Fatalf("Len = %d", z.Len())
	}
	for i := 0; i < 3; i++ {
		if z.Word(i) != 0 {
			t.Errorf("word %d = %d", i, z.Word(i))
		}
	}
}

func TestMergeSetsSumsDuplicateCounts(t *testing.T) {
	// Three shards with overlapping signatures: the merge must be the same
	// as one set fed every observation.
	obs := [][]uint64{
		{1}, {3}, {5}, {3}, // shard 0
		{2}, {3}, {5}, // shard 1
		{5}, {5}, {9}, // shard 2
	}
	bounds := []int{0, 4, 7, 10}
	var shards []*Set
	global := NewSet()
	for s := 0; s+1 < len(bounds); s++ {
		set := NewSet()
		for _, w := range obs[bounds[s]:bounds[s+1]] {
			set.Add(New(w))
			global.Add(New(w))
		}
		shards = append(shards, set)
	}
	merged := MergeSets(shards...)
	want := global.Sorted()
	if len(merged) != len(want) {
		t.Fatalf("merged %d uniques, want %d", len(merged), len(want))
	}
	total := 0
	for i := range merged {
		if !merged[i].Sig.Equal(want[i].Sig) || merged[i].Count != want[i].Count {
			t.Errorf("unique %d: got %v x%d, want %v x%d", i,
				merged[i].Sig, merged[i].Count, want[i].Sig, want[i].Count)
		}
		total += merged[i].Count
	}
	if total != len(obs) {
		t.Errorf("merged counts sum to %d, want %d", total, len(obs))
	}
	// The signature 5 appears in every shard: its counts must sum.
	for _, u := range merged {
		if u.Sig.Equal(New([]uint64{5})) && u.Count != 4 {
			t.Errorf("signature 0x5 count = %d, want 4", u.Count)
		}
	}
}

func TestMergeSetsRandomizedMatchesGlobalSet(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(5)
		shards := make([]*Set, k)
		for i := range shards {
			shards[i] = NewSet()
		}
		global := NewSet()
		for i := 0; i < 300; i++ {
			s := New([]uint64{uint64(rng.Intn(10)), uint64(rng.Intn(4))})
			shards[rng.Intn(k)].Add(s)
			global.Add(s)
		}
		merged := MergeSets(shards...)
		want := global.Sorted()
		if len(merged) != len(want) {
			t.Fatalf("trial %d: merged %d uniques, want %d", trial, len(merged), len(want))
		}
		for i := range merged {
			if !merged[i].Sig.Equal(want[i].Sig) || merged[i].Count != want[i].Count {
				t.Fatalf("trial %d: unique %d mismatch", trial, i)
			}
		}
	}
}

func TestMergeSetsDegenerate(t *testing.T) {
	if got := MergeSets(); got != nil {
		t.Errorf("MergeSets() = %v, want nil", got)
	}
	if got := MergeSets(nil, NewSet(), nil); got != nil {
		t.Errorf("MergeSets of empty sets = %v, want nil", got)
	}
	one := NewSet()
	one.Add(New([]uint64{7}))
	one.Add(New([]uint64{7}))
	got := MergeSets(nil, one, NewSet())
	if len(got) != 1 || got[0].Count != 2 {
		t.Errorf("single-set merge = %v, want one unique x2", got)
	}
}

// TestSetCollisionChain files different signatures under one forced hash
// value: each is found and counted on its own, a signature under another hash
// is not confused with them, and Entries keeps first-observation order.
func TestSetCollisionChain(t *testing.T) {
	a, b, c, d := New([]uint64{1, 2}), New([]uint64{3, 4}), New([]uint64{5, 6}), New([]uint64{7, 8})
	set := NewSet()
	for _, step := range []struct {
		h     uint64
		s     Signature
		count int
		isNew bool
	}{
		{42, a, 1, true}, {42, b, 1, true}, {42, a, 2, false}, {7, d, 1, true},
		{42, c, 1, true}, {42, b, 1, false}, {42, c, 4, false}, {42, a, 1, false},
	} {
		if got := set.add(step.h, Unique{Sig: step.s, Count: step.count}, true); got != step.isNew {
			t.Fatalf("add %v under %d: new = %v, want %v", step.s, step.h, got, step.isNew)
		}
	}
	want := []Unique{{a, 4}, {b, 2}, {d, 1}, {c, 5}}
	got := set.Entries()
	if len(got) != len(want) {
		t.Fatalf("Entries = %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Sig.Equal(want[i].Sig) || got[i].Count != want[i].Count {
			t.Errorf("entry %d = %v ×%d, want %v ×%d", i, got[i].Sig, got[i].Count, want[i].Sig, want[i].Count)
		}
	}
	if set.Len() != 4 || set.Total() != 12 || len(set.index) != 2 {
		t.Errorf("Len %d, Total %d, %d hashes; want 4, 12, 2", set.Len(), set.Total(), len(set.index))
	}
}

// TestSetKeepsOneCopy: a new signature added by words is copied once, into
// its entry, and one folded in by AddUnique is shared, not copied.
func TestSetKeepsOneCopy(t *testing.T) {
	words := []uint64{9, 10}
	set := NewSet()
	set.AddWords(words)
	words[0] = 99
	if got := set.Entries()[0].Sig; !got.Equal(New([]uint64{9, 10})) {
		t.Fatalf("entry %v changed with the caller's slice", got)
	}
	u := Unique{Sig: New([]uint64{11, 12}), Count: 3}
	set.AddUnique(u)
	if &set.Entries()[1].Sig.words[0] != &u.Sig.words[0] {
		t.Error("AddUnique copied a signature the caller already owns")
	}
}
