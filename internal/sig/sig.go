// Package sig implements memory-access interleaving signatures (paper §3):
// fixed-shape multi-word unsigned integers produced by the instrumented test
// code, one per test iteration. A signature is the concatenation of
// per-thread signature words; the first thread's words occupy the most
// significant position, and within a thread the first word is most
// significant (paper §4.1's layout, which the authors found yields the best
// structural similarity between adjacent sorted signatures).
//
// The package provides comparison, sorting, de-duplication with occurrence
// counts, and a compact binary encoding used to move signatures off the
// "device" (the simulated platform) to the checking host.
package sig

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
)

// Signature is one execution signature: concatenated per-thread words,
// most significant word first. All signatures produced by the same
// instrumented test have the same number of words, so lexicographic
// comparison over the word slice is numeric comparison.
type Signature struct {
	words []uint64
}

// New returns a signature over the given words (most significant first).
// The slice is copied.
func New(words []uint64) Signature {
	w := make([]uint64, len(words))
	copy(w, words)
	return Signature{words: w}
}

// Zero returns the all-zero signature with n words.
func Zero(n int) Signature { return Signature{words: make([]uint64, n)} }

// Len returns the number of words.
func (s Signature) Len() int { return len(s.words) }

// Word returns the i-th word (0 = most significant).
func (s Signature) Word(i int) uint64 { return s.words[i] }

// Words returns a copy of the word slice, most significant first.
func (s Signature) Words() []uint64 {
	out := make([]uint64, len(s.words))
	copy(out, s.words)
	return out
}

// Compare returns -1, 0, or +1 comparing s and t numerically.
// Signatures of different lengths compare by length first; that case never
// arises within one test's signature set.
func (s Signature) Compare(t Signature) int {
	switch {
	case len(s.words) < len(t.words):
		return -1
	case len(s.words) > len(t.words):
		return 1
	}
	for i := range s.words {
		switch {
		case s.words[i] < t.words[i]:
			return -1
		case s.words[i] > t.words[i]:
			return 1
		}
	}
	return 0
}

// Equal reports whether s and t are identical.
func (s Signature) Equal(t Signature) bool { return s.Compare(t) == 0 }

// Key returns a string usable as a map key identifying the signature.
func (s Signature) Key() string { return string(s.AppendBinary(nil)) }

// AppendBinary appends the big-endian encoding of the signature to b.
func (s Signature) AppendBinary(b []byte) []byte {
	for _, w := range s.words {
		b = binary.BigEndian.AppendUint64(b, w)
	}
	return b
}

// Bytes returns the big-endian binary encoding.
func (s Signature) Bytes() []byte { return s.AppendBinary(nil) }

// String renders the signature as grouped hex words, e.g. "0x2:0x84".
func (s Signature) String() string {
	if len(s.words) == 0 {
		return "0x0"
	}
	parts := make([]string, len(s.words))
	for i, w := range s.words {
		parts[i] = fmt.Sprintf("%#x", w)
	}
	return strings.Join(parts, ":")
}

// Sort sorts signatures ascending in place (paper §4.1: adjacent signatures
// correspond to structurally similar constraint graphs).
func Sort(sigs []Signature) {
	slices.SortFunc(sigs, Signature.Compare)
}

// Unique is a de-duplicated signature with its observation count.
type Unique struct {
	Sig   Signature
	Count int // number of iterations that produced Sig
}

// Set accumulates signatures online, tracking unique values and counts.
// It is what the on-device collection buffer holds before the host-side
// sort; methods are not safe for concurrent use.
//
// Each unique is stored once, as its entry. The index maps a 64-bit
// hash/maphash value of the signature, under a seed drawn by NewSet, to the
// first entry with that hash; next chains the entries that share one, and a
// lookup confirms a match by comparing words. Adding an already-seen
// signature (the common case — the paper's runs see far fewer uniques than
// iterations) is one encode into a reusable scratch buffer, one hash, one map
// lookup and one word comparison, with no allocation. Sets are also built
// from device and checkpoint files, so the seed is per set: crafted inputs
// cannot aim at one hash value.
type Set struct {
	seed    maphash.Seed
	index   map[uint64]int32 // hash → first entry with it
	next    []int32          // per entry: the next entry with its hash, or -1
	entries []Unique
	total   int
	scratch []byte
}

// NewSet returns an empty Set with a fresh hash seed.
func NewSet() *Set {
	return &Set{seed: maphash.MakeSeed(), index: make(map[uint64]int32)}
}

// hash returns the seeded hash of the signature formed by words.
func (set *Set) hash(words []uint64) uint64 {
	b := set.scratch[:0]
	for _, w := range words {
		b = binary.BigEndian.AppendUint64(b, w)
	}
	set.scratch = b
	return maphash.Bytes(set.seed, b)
}

// AddWords inserts one observation of the signature formed by words (most
// significant first), reporting whether it was new. The words are copied
// only when new, into the entry that is the set's one copy of them; the
// caller keeps ownership of the slice. This is the hot-path form of Add.
func (set *Set) AddWords(words []uint64) bool {
	return set.add(set.hash(words), Unique{Sig: Signature{words: words}, Count: 1}, true)
}

// Add inserts one observation of s, reporting whether s was new.
func (set *Set) Add(s Signature) bool { return set.AddWords(s.words) }

// AddUnique folds an already-counted unique into the set, weighting the
// observation total and the per-signature count by u.Count, and reports
// whether the signature was new to this set. A new u.Sig is shared, not
// copied. It is the streaming pipeline's incremental merge step: absorbing
// each completed chunk's uniques as the chunk lands is equivalent to a final
// mergeUniques over all chunks, so the global sort can wait for the barrier
// while dedup happens online.
func (set *Set) AddUnique(u Unique) bool {
	return set.add(set.hash(u.Sig.words), u, false)
}

// add folds u into the set under hash h and reports whether it was new. A
// new u becomes an entry, its words copied first when borrowed.
func (set *Set) add(h uint64, u Unique, borrowed bool) bool {
	set.total += u.Count
	first, ok := set.index[h]
	if !ok {
		first = -1
	}
	last := first
	for i := first; i >= 0; last, i = i, set.next[i] {
		if set.entries[i].Sig.Equal(u.Sig) {
			set.entries[i].Count += u.Count
			return false
		}
	}
	if borrowed {
		u.Sig = New(u.Sig.words)
	}
	n := int32(len(set.entries))
	set.entries = append(set.entries, u)
	set.next = append(set.next, -1)
	if last < 0 {
		set.index[h] = n
	} else {
		set.next[last] = n
	}
	return true
}

// Entries returns the unique signatures in first-observation order with
// their current counts. The slice is borrowed from the set — it is valid
// until the next Add*/merge call and must not be mutated. Use Sorted for an
// owned, ascending copy.
func (set *Set) Entries() []Unique { return set.entries }

// Len returns the number of unique signatures.
func (set *Set) Len() int { return len(set.entries) }

// Total returns the number of observations added.
func (set *Set) Total() int { return set.total }

// Sorted returns the unique signatures ascending with counts.
func (set *Set) Sorted() []Unique {
	out := make([]Unique, len(set.entries))
	copy(out, set.entries)
	slices.SortFunc(out, func(a, b Unique) int { return a.Sig.Compare(b.Sig) })
	return out
}

// MergeSets merges per-shard signature sets into one global ascending
// unique slice — a k-way merge over each set's already-sorted uniques,
// summing the occurrence counts of signatures observed by several shards.
// It is the reduction step of the sharded execution pipeline; nil and empty
// sets are skipped. MergeSets of a single set is equivalent to its Sorted.
func MergeSets(sets ...*Set) []Unique {
	lists := make([][]Unique, 0, len(sets))
	for _, s := range sets {
		if s == nil || s.Len() == 0 {
			continue
		}
		lists = append(lists, s.Sorted())
	}
	return mergeUniques(lists...)
}

// mergeUniques k-way merges already-sorted unique lists, summing the counts
// of signatures present in several lists. Nil and empty lists are skipped;
// a single non-empty list is returned as-is (not copied). It generalizes
// MergeSets to pre-sorted slices, e.g. a checkpointed set merged with the
// post-resume shards' sets.
func mergeUniques(lists ...[]Unique) []Unique {
	kept := make([][]Unique, 0, len(lists))
	size := 0
	for _, l := range lists {
		if len(l) == 0 {
			continue
		}
		kept = append(kept, l)
		size += len(l)
	}
	lists = kept
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	heads := make([]int, len(lists))
	out := make([]Unique, 0, size)
	for {
		best := -1
		for li, l := range lists {
			if heads[li] >= len(l) {
				continue
			}
			if best < 0 || l[heads[li]].Sig.Compare(lists[best][heads[best]].Sig) < 0 {
				best = li
			}
		}
		if best < 0 {
			return out
		}
		u := lists[best][heads[best]]
		heads[best]++
		if n := len(out); n > 0 && out[n-1].Sig.Equal(u.Sig) {
			out[n-1].Count += u.Count
		} else {
			out = append(out, u)
		}
	}
}
