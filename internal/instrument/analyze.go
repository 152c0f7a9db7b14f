// Package instrument implements MTraceCheck's observability-enhancing code
// instrumentation (paper §3): static analysis of each load's candidate store
// set, weight and multiplier assignment with multi-word overflow handling
// (§3.2), signature encoding of an execution's reads-from pattern, the
// signature decoding procedure (Algorithm 1), and generation of instrumented
// pseudo-ISA code — including the register-flushing baseline the paper
// compares against for intrusiveness (Fig. 11).
package instrument

import (
	"fmt"
	"math"
	"math/bits"

	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
)

// Candidate is one value a load could observe: a specific store's unique
// value, or the initial memory value.
type Candidate struct {
	Value uint32 // observable value; prog.InitialValue for the initial value
	Store int    // source store op ID; -1 for the initial value
}

// Pruner optionally filters candidate sets using extra microarchitectural
// knowledge (paper §8, "static pruning"). It is called once per load with the
// load's candidates, in store-ID order, the initial value (Store -1) first,
// and returns those it keeps: it may only remove candidates, and must keep
// the rest in order. It may filter cands in place, but must not keep it past
// the call. Analyze refuses any other result. A nil Pruner keeps the paper's
// conservative default: every memory operation may be reordered
// independently.
type Pruner func(load prog.Op, cands []Candidate) []Candidate

// LoadInfo is the instrumentation metadata for one load: its candidates in
// weight order, its weight multiplier, and which per-thread signature word
// it contributes to. The candidate at index i carries weight i×Multiplier.
type LoadInfo struct {
	Op         prog.Op
	Candidates []Candidate
	Multiplier uint64
	WordIndex  int

	recip uint64 // reciprocal(Multiplier), the decoder's digit step
}

// reciprocal returns ⌊(2⁶⁴−1)/m⌋, with which divmod divides by m.
func reciprocal(m uint64) uint64 { return math.MaxUint64 / m }

// divmod returns v / Multiplier and v % Multiplier without a 64-bit divide:
// the high word of v·recip undershoots the quotient by at most one, since
// recip ≥ 2⁶⁴/m − 1 gives v·recip/2⁶⁴ ≥ v/m − v/2⁶⁴ > v/m − 1, and one
// correction mends it.
func (li *LoadInfo) divmod(v uint64) (q, r uint64) {
	q, _ = bits.Mul64(v, li.recip)
	r = v - q*li.Multiplier
	if r >= li.Multiplier {
		q++
		r -= li.Multiplier
	}
	return q, r
}

// ThreadMeta aggregates a thread's loads (in program order) and the number
// of signature words the thread produces. Threads with no loads still emit
// one (always-zero) word, as in the paper's Fig. 3 ("thread 2 always stores
// sig=0 to memory").
type ThreadMeta struct {
	Loads []LoadInfo
	Words int
}

// Meta is the full instrumentation metadata for a program: the paper's
// "multipliers" and "store_maps" tables plus word-layout information.
type Meta struct {
	Prog         *prog.Program
	RegWidthBits int
	Threads      []ThreadMeta

	words []wordLoads // by signature word
}

// wordLoads is one signature word's share of the metadata: its loads (a
// contiguous run of its thread's, in program order) and bound, the product of
// their candidate counts — the word's mixed radix, below which every value
// decodes.
type wordLoads struct {
	loads []LoadInfo
	bound uint64
}

// capacity returns the number of distinct values one signature word can
// hold (2^width, saturated to MaxUint64 for width 64).
func capacity(widthBits int) uint64 {
	if widthBits >= 64 {
		return math.MaxUint64
	}
	return 1 << uint(widthBits)
}

// Analyze computes per-load candidate sets and assigns weights (paper §3.1).
//
// A load's candidates are the latest preceding same-thread store to its word
// (or the initial value when none exists) plus every other thread's store to
// that word, in store-ID order. Weights use consecutive multiples: the first
// load in a word has multiplier 1, and each subsequent load's multiplier is
// the previous multiplier times the previous load's candidate count,
// guaranteeing a 1:1 mapping between signature values and reads-from
// patterns. When a word would overflow the register width, a fresh word
// starts and the multiplier resets (§3.2).
//
// No load rescans the program: the stores are laid out by word once
// (storeIndex), and every candidate list is filled, handed to the pruner and
// cut from one arena sized for the unpruned sets, so an analysis costs O(ops +
// words + Σ candidates) and a fixed number of allocations.
func Analyze(p *prog.Program, regWidthBits int, prune Pruner) (*Meta, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if regWidthBits != 32 && regWidthBits != 64 {
		return nil, fmt.Errorf("instrument: register width %d not 32 or 64", regWidthBits)
	}
	cap64 := capacity(regWidthBits)
	x := newStoreIndex(p, prune != nil)
	size := 0
	for _, th := range p.Threads {
		x.enter(th)
		for _, op := range th.Ops {
			if op.Kind == prog.Load {
				size += x.candidates(op.Word)
			}
		}
	}
	x.rewind()
	arena := make([]Candidate, size)
	infos := make([]LoadInfo, x.loads)
	meta := &Meta{Prog: p, RegWidthBits: regWidthBits, Threads: make([]ThreadMeta, len(p.Threads))}
	free, next, words := arena, 0, 0
	for ti, th := range p.Threads {
		x.enter(th)
		tm := ThreadMeta{Words: 1}
		var product uint64 = 1
		first := next
		for _, op := range th.Ops {
			switch op.Kind {
			case prog.Store:
				x.seen[op.Word]++
				continue
			case prog.Fence:
				continue
			}
			cands := x.fill(free[:0], op.Word) // within free's capacity
			if prune != nil {
				kept := prune(op, cands[:len(cands):len(cands)])
				if !x.holds(op.Word, kept) {
					return nil, fmt.Errorf("instrument: pruner of load %d did more than remove candidates", op.ID)
				}
				cands = free[:copy(free, kept)]
			}
			if len(cands) == 0 {
				return nil, fmt.Errorf("instrument: load %d pruned to an empty candidate set", op.ID)
			}
			cands, free = cands[:len(cands):len(cands)], free[len(cands):]
			n := uint64(len(cands))
			if n > 1 && product > cap64/n {
				// Word overflow: spill and start a fresh word (§3.2).
				tm.Words++
				product = 1
			}
			infos[next] = LoadInfo{Op: op, Candidates: cands, Multiplier: product, WordIndex: tm.Words - 1, recip: reciprocal(product)}
			next++
			product *= n
		}
		if next > first {
			tm.Loads = infos[first:next:next]
		}
		meta.Threads[ti] = tm
		words += tm.Words
	}
	meta.words = make([]wordLoads, 0, words)
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

// storeIndex is a program's stores laid out once by word, in store-ID order:
// word w's are stores[start[w]:start[w+1]]. Store IDs are thread-major, so a
// word's run is grouped by thread, in thread order. While the threads are
// walked in order (enter), the entered thread's stores to w are the own[w]
// entries from before[w] in w's run, and seen[w] of them precede the op being
// walked.
type storeIndex struct {
	start             []int
	stores            []Candidate
	before, own, seen []int       // per word
	loads             int         // the program's loads
	cur               prog.Thread // the entered thread
	// written is kept when pruning only: by op ID, a store's writeKey, and
	// noWrite for any other op.
	written []uint64
}

// writeKey is what a store writes where, as one comparable word.
func writeKey(w int, v uint32) uint64 { return uint64(w)<<32 | uint64(v) }

// noWrite is the written entry of an op that is not a store: no word's key.
const noWrite = math.MaxUint64

// newStoreIndex lays out p's stores; byID also keeps what each op writes.
func newStoreIndex(p *prog.Program, byID bool) *storeIndex {
	nw := p.NumWords
	x := &storeIndex{
		start:  make([]int, nw+1),
		before: make([]int, nw),
		own:    make([]int, nw),
		seen:   make([]int, nw),
	}
	if byID {
		x.written = make([]uint64, 0, p.NumOps())
	}
	for _, th := range p.Threads {
		for _, op := range th.Ops {
			key := uint64(noWrite)
			switch op.Kind {
			case prog.Store:
				x.start[op.Word+1]++
				key = writeKey(op.Word, op.Value)
			case prog.Load:
				x.loads++
			}
			if byID {
				x.written = append(x.written, key) // IDs are dense and thread-major
			}
		}
	}
	for w := 0; w < nw; w++ {
		x.start[w+1] += x.start[w]
	}
	x.stores = make([]Candidate, x.start[nw])
	for _, th := range p.Threads {
		for _, op := range th.Ops {
			if op.Kind == prog.Store {
				x.stores[x.start[op.Word]+x.seen[op.Word]] = Candidate{Value: op.Value, Store: op.ID}
				x.seen[op.Word]++
			}
		}
	}
	clear(x.seen)
	return x
}

// enter makes th, the thread after the entered one, the entered thread. It
// touches only the words the two threads access, so a walk over every thread
// costs O(ops), whatever the word count.
func (x *storeIndex) enter(th prog.Thread) {
	for _, op := range x.cur.Ops {
		if op.IsMemory() {
			w := op.Word
			x.before[w] += x.own[w]
			x.own[w], x.seen[w] = 0, 0
		}
	}
	for _, op := range th.Ops {
		if op.Kind == prog.Store {
			x.own[op.Word]++
		}
	}
	x.cur = th
}

// rewind returns the walk to before the first thread.
func (x *storeIndex) rewind() {
	x.enter(prog.Thread{})
	clear(x.before)
}

// candidates returns the size of the entered thread's loads' unpruned
// candidate sets for word w: the other threads' stores to w plus one slot.
func (x *storeIndex) candidates(w int) int {
	return x.start[w+1] - x.start[w] - x.own[w] + 1
}

// fill appends to dst the unpruned candidate set of the entered thread's
// next load of word w, in store-ID order: the initial value or the thread's
// latest preceding store to w sits between the earlier threads' stores and the
// later ones'.
func (x *storeIndex) fill(dst []Candidate, w int) []Candidate {
	run := x.stores[x.start[w]:x.start[w+1]]
	b, o, s := x.before[w], x.own[w], x.seen[w]
	if s == 0 {
		dst = append(dst, Candidate{Value: prog.InitialValue, Store: -1})
	}
	dst = append(dst, run[:b]...)
	if s > 0 {
		dst = append(dst, run[b+s-1])
	}
	return append(dst, run[b+o:]...)
}

// holds reports whether kept is what a pruner may leave of the entered
// thread's next load of word w: a subsequence of the unpruned set fill gives.
// Both are in store-ID order, so it is enough that kept's IDs rise and that
// each is in the set: the initial value first, if the thread has not stored
// to w yet, and otherwise a store to w of the value kept says, from another
// thread or the entered thread's latest preceding one. The loop decides
// nothing per candidate but the bounds check: it collects what is wrong and
// answers once.
func (x *storeIndex) holds(w int, kept []Candidate) bool {
	latest := -1
	if s := x.seen[w]; s > 0 {
		latest = x.stores[x.start[w]+x.before[w]+s-1].Store
	}
	if len(kept) > 0 && kept[0].Store < 0 {
		if latest >= 0 || kept[0] != (Candidate{Value: prog.InitialValue, Store: -1}) {
			return false
		}
		kept = kept[1:]
	}
	own, n := 0, uint(len(x.cur.Ops)) // the entered thread's IDs: own, own+1, ...
	if n > 0 {
		own = x.cur.Ops[0].ID
	}
	written, key, wrong, prev := x.written, writeKey(w, 0), 0, -1
	for _, c := range kept {
		id := c.Store
		if uint(id) >= uint(len(written)) {
			return false
		}
		wrong |= b2i(id <= prev) | b2i(written[id] != key|uint64(c.Value)) | b2i(uint(id-own) < n)&b2i(id != latest)
		prev = id
	}
	return wrong == 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TotalWords returns the execution signature's total word count.
func (m *Meta) TotalWords() int {
	n := 0
	for _, t := range m.Threads {
		n += t.Words
	}
	return n
}

// SignatureBytes returns the execution signature size in bytes at the
// platform's register width (the quantity inside the bars of Fig. 11).
func (m *Meta) SignatureBytes() int { return m.TotalWords() * m.RegWidthBits / 8 }

// candIndex returns the index of value v in the load's candidate set, or -1.
func candIndex(li *LoadInfo, v uint32) int {
	for i, c := range li.Candidates {
		if c.Value == v {
			return i
		}
	}
	return -1
}

// EncodeExecutionInto computes the execution signature for dense observed
// load values (indexed by op ID, the shape sim.Execution.LoadValues uses)
// into dst, returning dst resized to TotalWords. It allocates only when
// dst's capacity is insufficient, so a reused buffer makes steady-state
// encoding allocation-free. A value outside a load's candidate set returns
// an AssertionError — the instrumentation's inline assertion (paper §3.1)
// that catches, e.g., program-order violations without any graph checking.
func (m *Meta) EncodeExecutionInto(dst []uint64, vals []uint32) ([]uint64, error) {
	total := m.TotalWords()
	if cap(dst) < total {
		dst = make([]uint64, total)
	} else {
		dst = dst[:total]
		clear(dst)
	}
	base := 0
	for ti := range m.Threads {
		tm := &m.Threads[ti]
		for i := range tm.Loads {
			li := &tm.Loads[i]
			if li.Op.ID >= len(vals) {
				return dst, fmt.Errorf("instrument: no observed value for load %d", li.Op.ID)
			}
			v := vals[li.Op.ID]
			idx := candIndex(li, v)
			if idx < 0 {
				return dst, &AssertionError{Load: li.Op, Value: v}
			}
			// Within a thread the first word is most significant: word 0 of
			// the thread sits at offset 0.
			dst[base+li.WordIndex] += li.Multiplier * uint64(idx)
		}
		base += tm.Words
	}
	return dst, nil
}

// EncodeValues is EncodeExecutionInto with a freshly allocated signature —
// the convenient form for callers off the hot path.
func (m *Meta) EncodeValues(vals []uint32) (sig.Signature, error) {
	words, err := m.EncodeExecutionInto(nil, vals)
	if err != nil {
		return sig.Signature{}, err
	}
	return sig.New(words), nil
}

// AssertionError reports a loaded value outside the statically computed
// candidate set — caught instantly by the instrumented code's assert chain.
type AssertionError struct {
	Load  prog.Op
	Value uint32
}

func (e *AssertionError) Error() string {
	return fmt.Sprintf("instrument: assertion failed: load %d (%s, thread %d) observed value %d outside its candidate set",
		e.Load.ID, e.Load, e.Load.Thread, e.Value)
}

// DecodeInto reconstructs the reads-from relation from an execution
// signature (paper Algorithm 1: per thread, per word, loads are walked from
// last to first, dividing by each load's multiplier) into rf, a dense slice
// indexed by operation ID: rf[loadID] = source store op ID, or -1 when the
// load read the initial value. Entries for non-load operations are left
// untouched. rf must be at least m.Prog.NumOps() long. Words without loads
// (threads with no loads emit one always-zero word) still get the residue
// check.
func (m *Meta) DecodeInto(s sig.Signature, rf []int32) error {
	if err := m.checkShape(s, rf); err != nil {
		return err
	}
	for k := range m.words {
		if _, err := m.decodeWord(k, s.Word(k), rf, nil, reportNone); err != nil {
			return err
		}
	}
	return nil
}

// DecodeRow is DecodeInto for a caller that holds, in rf, the row of prev, a
// signature of the same length this metadata decoded: only the words in which
// s differs from prev are decoded into rf, and of their loads the IDs of those
// whose source changes are appended to loads; every other load reads what it
// reads in prev's row. A prev of another length (the zero Signature) decodes
// every word and reports every load, whatever rf holds. It returns rf and the
// extended loads; its errors are DecodeInto's, after which rf holds some of
// s's sources. Sorted neighbours often share words (paper §4.2), which a
// checker installing signatures in order then does not decode, and most loads
// of a word that differs keep their source, which it then need not visit. It
// implements check.RowSource.
func (m *Meta) DecodeRow(s, prev sig.Signature, rf, loads []int32) ([]int32, []int32, error) {
	if err := m.checkShape(s, rf); err != nil {
		return nil, loads, err
	}
	mode := reportChanged
	if prev.Len() != s.Len() {
		mode = reportAll
	}
	for k := range m.words {
		v := s.Word(k)
		if mode == reportChanged && v == prev.Word(k) {
			continue
		}
		var err error
		if loads, err = m.decodeWord(k, v, rf, loads, mode); err != nil {
			return nil, loads, err
		}
	}
	return rf, loads, nil
}

// Decodable reports whether DecodeInto accepts s, without decoding it: s has
// TotalWords words, each below the product of its loads' candidate counts.
func (m *Meta) Decodable(s sig.Signature) bool {
	if s.Len() != len(m.words) {
		return false
	}
	for k := range m.words {
		if s.Word(k) >= m.words[k].bound {
			return false
		}
	}
	return true
}

// checkShape rejects a row buffer or a signature the decoders cannot use.
func (m *Meta) checkShape(s sig.Signature, rf []int32) error {
	if n := m.Prog.NumOps(); len(rf) < n {
		return fmt.Errorf("instrument: rf buffer has %d entries, program has %d ops", len(rf), n)
	}
	if s.Len() != m.TotalWords() {
		return fmt.Errorf("instrument: signature has %d words, metadata expects %d",
			s.Len(), m.TotalWords())
	}
	return nil
}

// report is which of the loads it decodes decodeWord appends to set.
type report uint8

const (
	reportNone    report = iota // none
	reportChanged               // those whose entry in rf it changes
	reportAll                   // every one
)

// decodeWord decodes value v of signature word k into rf, from the word's
// last load to its first, appending to set the loads mode reports.
func (m *Meta) decodeWord(k int, v uint64, rf, set []int32, mode report) ([]int32, error) {
	loads := m.words[k].loads
	for i := len(loads) - 1; i >= 0; i-- {
		li := &loads[i]
		idx, r := li.divmod(v)
		v = r
		if idx >= uint64(len(li.Candidates)) {
			return set, fmt.Errorf("instrument: signature word %d decodes load %d to index %d of %d candidates",
				k, li.Op.ID, idx, len(li.Candidates))
		}
		id, src := li.Op.ID, int32(li.Candidates[idx].Store)
		if mode == reportAll || mode == reportChanged && rf[id] != src {
			set = append(set, int32(id))
		}
		rf[id] = src
	}
	if v != 0 {
		return set, fmt.Errorf("instrument: signature word %d has residue %d after decoding", k, v)
	}
	return set, nil
}

// InformationBits returns the information content of the static signature
// encoding: the log2 of the number of distinct reads-from patterns it can
// represent (Σ log2 of candidate counts over all loads).
func (m *Meta) InformationBits() float64 {
	var bits float64
	for _, tm := range m.Threads {
		for _, li := range tm.Loads {
			bits += math.Log2(float64(len(li.Candidates)))
		}
	}
	return bits
}
