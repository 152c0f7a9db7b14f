package instrument

import "mtracecheck/internal/prog"

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
	// Each op's (thread, index), by ID: IDs are dense and thread-major
	// (Program.Validate), so appending the threads' ops in order lands each
	// at its ID, in a table small enough to stay in cache.
	at := make([][2]int32, 0, p.NumOps())
	for _, t := range p.Threads {
		for _, op := range t.Ops {
			at = append(at, [2]int32{int32(op.Thread), int32(op.Index)})
		}
	}
	return func(load prog.Op, c Candidate) bool {
		if c.Store < 0 {
			return true // the initial value is always observable
		}
		st := at[c.Store]
		if int(st[0]) == load.Thread {
			return true // own-thread candidate: program order, not skew
		}
		d := int(st[1]) - load.Index
		if d < 0 {
			d = -d
		}
		return d <= maxSkew
	}
}
