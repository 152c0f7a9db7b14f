package instrument

import (
	"math"

	"mtracecheck/internal/prog"
)

// SkewPruner returns a static candidate pruner (paper §8, "static pruning")
// that drops remote-store candidates whose program position is further than
// maxSkew operations from the load's own position.
//
// The bound models microarchitectural knowledge the paper alludes to: with
// barrier-started iterations, bounded start skew, and LSQ-bounded numbers of
// outstanding operations, two free-running threads cannot drift arbitrarily
// far apart within one iteration, so a load cannot observe a remote store
// "from the distant future" nor miss every store "from the distant past"
// except through its own thread's last write. Own-thread candidates and the
// initial value are always kept.
//
// Pruning trades signature and code size for a soundness obligation: if the
// platform's real skew exceeds maxSkew, the instrumentation's inline assert
// fires (an AssertionError at encode time) rather than corrupting
// signatures — the same fail-loud behaviour the paper's assert chains give.
func SkewPruner(p *prog.Program, maxSkew int) Pruner {
	// Each op's thread and index, by ID: IDs are dense and thread-major
	// (Program.Validate), so appending the threads' ops in order lands each
	// at its ID, in a table small enough to stay in cache.
	s := &skewPruner{at: make([]uint64, 0, p.NumOps()), maxSkew: maxSkew}
	for _, t := range p.Threads {
		for _, op := range t.Ops {
			s.at = append(s.at, uint64(op.Thread)<<32|uint64(op.Index))
		}
	}
	return s.prune
}

// skewPruner's prune is handed out as a method value, not a closure: inlined
// with SkewPruner into a caller, the closure was compiled with b2i as a call.
type skewPruner struct {
	at      []uint64 // by op ID: thread<<32 | index
	maxSkew int
}

// prune keeps the initial value, the own thread's candidate and every store
// within maxSkew of the load's index, deciding each with arithmetic, not a
// branch: skew windows keep runs of each thread's stores, whose ends a branch
// would mispredict.
func (s *skewPruner) prune(load prog.Op, cands []Candidate) []Candidate {
	at, k := s.at, 0
	if len(cands) > 0 && cands[0].Store < 0 {
		k = 1
	}
	own, li, window := uint64(load.Thread), uint64(load.Index+s.maxSkew), uint64(2*s.maxSkew)
	if s.maxSkew < 0 {
		li, window = math.MaxUint64, 0 // no remote store is near enough
	}
	for i := k; i < len(cands); i++ {
		c := cands[i]
		t := at[c.Store]
		cands[k] = c
		k += b2i(t>>32 == own) | b2i(li-uint64(uint32(t)) <= window)
	}
	return cands[:k]
}
