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
	"sort"

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
// knowledge (paper §8, "static pruning"). Returning false removes the
// candidate. A nil Pruner keeps the paper's conservative default: every
// memory operation may be reordered independently.
type Pruner func(load prog.Op, c Candidate) bool

// LoadInfo is the instrumentation metadata for one load: its candidates in
// weight order, its weight multiplier, and which per-thread signature word
// it contributes to. The candidate at index i carries weight i×Multiplier.
type LoadInfo struct {
	Op         prog.Op
	Candidates []Candidate
	Multiplier uint64
	WordIndex  int
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
// that word. Weights use consecutive multiples: the first load in a word has
// multiplier 1, and each subsequent load's multiplier is the previous
// multiplier times the previous load's candidate count, guaranteeing a 1:1
// mapping between signature values and reads-from patterns. When a word
// would overflow the register width, a fresh word starts and the multiplier
// resets (§3.2).
func Analyze(p *prog.Program, regWidthBits int, prune Pruner) (*Meta, error) {
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
			if prune != nil {
				kept := cands[:0]
				for _, c := range cands {
					if prune(op, c) {
						kept = append(kept, c)
					}
				}
				cands = kept
			}
			if len(cands) == 0 {
				return nil, fmt.Errorf("instrument: load %d pruned to an empty candidate set", op.ID)
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i].Store < cands[j].Store })

			n := uint64(len(cands))
			li := LoadInfo{Op: op, Candidates: cands}
			if n > 1 && product > cap64/n {
				// Word overflow: spill and start a fresh word (§3.2).
				tm.Words++
				product = 1
			}
			li.Multiplier = product
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
		if err := m.decodeWord(k, s.Word(k), rf); err != nil {
			return err
		}
	}
	return nil
}

// DecodeRow is DecodeInto for a caller that holds the row of prev, a
// signature of the same length this metadata decoded: only the words in which
// s differs from prev are decoded into rf, and the IDs of their loads are
// appended to loads; every other load reads what it reads in prev's row. A
// prev of another length (the zero Signature) decodes every word. It returns
// rf and the extended loads; its errors are DecodeInto's. Sorted neighbours
// often share words (paper §4.2), which a checker installing signatures in
// order then does not decode. It implements check.RowSource.
func (m *Meta) DecodeRow(s, prev sig.Signature, rf, loads []int32) ([]int32, []int32, error) {
	if err := m.checkShape(s, rf); err != nil {
		return nil, loads, err
	}
	whole := prev.Len() != s.Len()
	for k := range m.words {
		v := s.Word(k)
		if !whole && v == prev.Word(k) {
			continue
		}
		if err := m.decodeWord(k, v, rf); err != nil {
			return nil, loads, err
		}
		for i := range m.words[k].loads {
			loads = append(loads, int32(m.words[k].loads[i].Op.ID))
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

// decodeWord decodes value v of signature word k into rf, from the word's
// last load to its first.
func (m *Meta) decodeWord(k int, v uint64, rf []int32) error {
	loads := m.words[k].loads
	for i := len(loads) - 1; i >= 0; i-- {
		li := &loads[i]
		idx := v / li.Multiplier
		v %= li.Multiplier
		if idx >= uint64(len(li.Candidates)) {
			return fmt.Errorf("instrument: signature word %d decodes load %d to index %d of %d candidates",
				k, li.Op.ID, idx, len(li.Candidates))
		}
		rf[li.Op.ID] = int32(li.Candidates[idx].Store)
	}
	if v != 0 {
		return fmt.Errorf("instrument: signature word %d has residue %d after decoding", k, v)
	}
	return nil
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
