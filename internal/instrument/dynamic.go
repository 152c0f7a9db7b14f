package instrument

import (
	"fmt"
	"math"

	"mtracecheck/internal/mcm"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
)

// Dynamic pruning (paper §8): "in a strong MCM (e.g., TSO), we can also
// apply a runtime technique to reduce signature size. At runtime, each
// thread would track the set of the recent store operations performed by
// other threads, computing a frontier of memory operations. Any value
// loaded from a store operation behind this frontier would be considered
// invalid. However, with this dynamic pruning, signature decoding becomes
// complicated as the length of signatures varies."
//
// The frontier rule implemented here is sound exactly when the model
// preserves ld→ld program order (SC, TSO, PSO) — the paper's "strong MCM"
// condition — plus per-location coherence:
//
//   - once one of my loads observed any store to word w, a later load of
//     mine on w can no longer observe the initial value;
//   - once one of my loads observed store index j of thread u on word w
//     (same-thread stores drain in per-word order), a later load of mine on
//     w cannot observe an earlier store of u on w.
//
// Because candidate counts now depend on earlier observations, the encoding
// uses a little-endian mixed-radix scheme decoded FORWARD (first load in
// the least significant position), so the decoder can replay the frontier
// state as it goes — unlike the static Algorithm 1, which walks backward
// with precomputed multipliers. Per-thread word counts vary by execution;
// each thread's section is prefixed by one word holding its length.

// DynamicEncoder encodes and decodes frontier-pruned signatures for one
// instrumented program.
type DynamicEncoder struct {
	meta  *Meta
	model mcm.Model
	cap   uint64
}

// NewDynamicEncoder validates the model's ld→ld ordering and returns an
// encoder bound to the metadata.
func NewDynamicEncoder(meta *Meta, model mcm.Model) (*DynamicEncoder, error) {
	if !model.Ordered(prog.Load, prog.Load) {
		return nil, fmt.Errorf("instrument: dynamic pruning requires a model preserving ld->ld order; %v does not", model)
	}
	return &DynamicEncoder{meta: meta, model: model, cap: capacity(meta.RegWidthBits)}, nil
}

// frontier tracks one observing thread's knowledge.
type frontier struct {
	sawStore map[int]bool   // word -> some store observed
	minIndex map[[2]int]int // (word, source thread) -> min admissible store Index
}

func newFrontier() *frontier {
	return &frontier{sawStore: map[int]bool{}, minIndex: map[[2]int]int{}}
}

// admissible filters a load's static candidates by the frontier.
func (f *frontier) admissible(meta *Meta, li LoadInfo) []Candidate {
	out := make([]Candidate, 0, len(li.Candidates))
	for _, c := range li.Candidates {
		if c.Store < 0 {
			if f.sawStore[li.Op.Word] {
				continue // coherence: no going back to the initial value
			}
			out = append(out, c)
			continue
		}
		st := meta.Prog.OpByID(c.Store)
		if min, ok := f.minIndex[[2]int{li.Op.Word, st.Thread}]; ok && st.Index < min {
			continue // behind the frontier
		}
		out = append(out, c)
	}
	return out
}

// observe advances the frontier with a load's observed candidate.
func (f *frontier) observe(meta *Meta, li LoadInfo, c Candidate) {
	if c.Store < 0 {
		return
	}
	f.sawStore[li.Op.Word] = true
	st := meta.Prog.OpByID(c.Store)
	key := [2]int{li.Op.Word, st.Thread}
	if st.Index > f.minIndex[key] {
		f.minIndex[key] = st.Index
	}
}

// Encode computes the frontier-pruned signature for dense observed load
// values (indexed by op ID, the shape sim.Execution.LoadValues uses).
// The layout is, per thread: [wordCount, w0, w1, ...], threads concatenated
// in order. Values outside the (pruned) candidate set return an
// AssertionError — under a correct ld→ld-ordered platform the frontier
// never prunes the actually observed value.
func (d *DynamicEncoder) Encode(vals []uint32) (sig.Signature, error) {
	var words []uint64
	for _, tm := range d.meta.Threads {
		f := newFrontier()
		var tw []uint64
		var acc, radix uint64 = 0, 1
		flush := func() {
			tw = append(tw, acc)
			acc, radix = 0, 1
		}
		for _, li := range tm.Loads {
			if li.Op.ID >= len(vals) {
				return sig.Signature{}, fmt.Errorf("instrument: no observed value for load %d", li.Op.ID)
			}
			v := vals[li.Op.ID]
			cands := f.admissible(d.meta, li)
			idx := -1
			for i, c := range cands {
				if c.Value == v {
					idx = i
					break
				}
			}
			if idx < 0 {
				return sig.Signature{}, &AssertionError{Load: li.Op, Value: v}
			}
			n := uint64(len(cands))
			if n > 1 {
				if radix > d.cap/n {
					flush()
				}
				// Little-endian mixed radix: the first load occupies the
				// least significant digits, so the decoder replays forward.
				acc += uint64(idx) * radix
				radix *= n
			}
			f.observe(d.meta, li, cands[idx])
		}
		flush()
		words = append(words, uint64(len(tw)))
		words = append(words, tw...)
	}
	return sig.New(words), nil
}

// Decode reconstructs the reads-from relation from a frontier-pruned
// signature by replaying the frontier forward.
func (d *DynamicEncoder) Decode(s sig.Signature) (map[int]Candidate, error) {
	rf := make(map[int]Candidate)
	pos := 0
	next := func() (uint64, error) {
		if pos >= s.Len() {
			return 0, fmt.Errorf("instrument: dynamic signature truncated at word %d", pos)
		}
		w := s.Word(pos)
		pos++
		return w, nil
	}
	for _, tm := range d.meta.Threads {
		countW, err := next()
		if err != nil {
			return nil, err
		}
		count := int(countW)
		if count < 1 || count > s.Len()-pos+1 {
			return nil, fmt.Errorf("instrument: implausible per-thread word count %d", count)
		}
		cur, err := next()
		if err != nil {
			return nil, err
		}
		used := 1
		var radix uint64 = 1
		f := newFrontier()
		for _, li := range tm.Loads {
			cands := f.admissible(d.meta, li)
			n := uint64(len(cands))
			if n == 0 {
				return nil, fmt.Errorf("instrument: load %d has no admissible candidates", li.Op.ID)
			}
			var idx uint64
			if n > 1 {
				if radix > d.cap/n {
					if cur != 0 {
						return nil, fmt.Errorf("instrument: residue %d in dynamic signature word", cur)
					}
					if used >= count {
						return nil, fmt.Errorf("instrument: dynamic signature thread section exhausted")
					}
					cur, err = next()
					if err != nil {
						return nil, err
					}
					used++
					radix = 1
				}
				idx = cur % n
				cur /= n
				radix *= n
			}
			if idx >= n {
				return nil, fmt.Errorf("instrument: dynamic decode index %d out of %d", idx, n)
			}
			rf[li.Op.ID] = cands[idx]
			f.observe(d.meta, li, cands[idx])
		}
		if cur != 0 {
			return nil, fmt.Errorf("instrument: residue %d after decoding thread section", cur)
		}
		if used != count {
			return nil, fmt.Errorf("instrument: thread section used %d of %d words", used, count)
		}
	}
	if pos != s.Len() {
		return nil, fmt.Errorf("instrument: %d trailing signature words", s.Len()-pos)
	}
	return rf, nil
}

// InformationBits returns the information content (log2 of the number of
// representable reads-from patterns) of the frontier-pruned encoding for
// one execution — the quantity dynamic pruning reduces relative to
// Meta.InformationBits.
func (d *DynamicEncoder) InformationBits(vals []uint32) (float64, error) {
	var bits float64
	for _, tm := range d.meta.Threads {
		f := newFrontier()
		for _, li := range tm.Loads {
			if li.Op.ID >= len(vals) {
				return 0, fmt.Errorf("instrument: no observed value for load %d", li.Op.ID)
			}
			v := vals[li.Op.ID]
			cands := f.admissible(d.meta, li)
			idx := -1
			for i, c := range cands {
				if c.Value == v {
					idx = i
					break
				}
			}
			if idx < 0 {
				return 0, &AssertionError{Load: li.Op, Value: v}
			}
			bits += math.Log2(float64(len(cands)))
			f.observe(d.meta, li, cands[idx])
		}
	}
	return bits, nil
}
