package mtracecheck

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/obs"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
)

// The chunk API exports the campaign's worker-invariant execution grid for
// out-of-process use: the distributed service leases chunks to remote
// workers and merges their results here. Any runner can execute any chunk:
// a chunk's signatures and counters are a pure function of (program,
// options, chunk index), so a chunk re-executed by another worker — after a
// crash, hang, or partition — produces bit-identical results, and
// ChunkMerger makes redispatch and duplicate completions harmless.

// ChunkSize is the execution grid's granule, for the in-process
// work-stealing scheduler and the exported grid alike: exported chunk i
// covers iterations [i*ChunkSize, min((i+1)*ChunkSize, Iterations)). The
// grid is independent of the worker count, so chunk boundaries — and the
// fault plans, retry outcomes, and degradation bookkeeping keyed by them —
// are worker-invariant by construction. 64 iterations amortize scheduling
// and channel overhead while keeping enough chunks in flight that a slow
// chunk (OS-mode scheduling, an injected stall) does not straggle the stage.
//
// Caveat: the in-process scheduler restarts its grid at every checkpoint
// segment and resume point, so its chunk bounds equal the exported grid's
// only when segments are multiples of ChunkSize. Signatures never depend on
// the grid (seeds are per iteration); injected shard faults and
// ShardFailures do, and agree between local and dist runs only then.
const ChunkSize = 64

// NumChunks returns the number of chunks in the campaign's execution grid.
func (c *Campaign) NumChunks() int {
	return (c.opts.Iterations + ChunkSize - 1) / ChunkSize
}

// ChunkBounds returns the global iteration range [start, start+count) of
// one grid chunk.
func (c *Campaign) ChunkBounds(idx int) (start, count int) {
	start = idx * ChunkSize
	count = min(ChunkSize, c.opts.Iterations-start)
	return start, count
}

// SignatureWords returns the per-signature word count every chunk result
// must carry — the upload-validation width for remote results.
func (c *Campaign) SignatureWords() int { return c.meta.TotalWords() }

// chunkable rejects option combinations the chunk grid cannot honor: chunk
// results must be self-contained and worker-invariant, which rules out
// recorded write serializations, retained executions, and prefix-resume.
func (c *Campaign) chunkable() error {
	switch {
	case c.opts.ObservedWS:
		return errors.New("mtracecheck: chunked execution requires the static ws mode")
	case c.opts.KeepExecutions:
		return errors.New("mtracecheck: chunked execution cannot retain executions")
	case c.opts.Resume:
		return errors.New("mtracecheck: chunked execution resumes through ChunkMerger.Restore, not Options.Resume")
	case c.opts.Iterations <= 0:
		return errors.New("mtracecheck: chunked execution requires Iterations > 0")
	}
	return nil
}

// ChunkStats is one executed chunk's accounting, serializable for the wire.
// Asserts carries assertion-failure messages (paper bug class 2) rather
// than structured errors so results survive transport.
type ChunkStats struct {
	Iterations int
	Cycles     int64
	Squashes   int
	Asserts    []string
}

// ChunkResult is one executed chunk: its grid coordinates, accounting, and
// the sorted unique signatures it observed. Results are bit-identical
// regardless of which ChunkRunner computed them.
type ChunkResult struct {
	Chunk   int
	Start   int
	Count   int
	Stats   ChunkStats
	Uniques []Unique
}

// ChunkRunner executes grid chunks on a private simulator runner, reusing
// it across chunks the way an in-process worker does (and rebuilding it
// after a panicking attempt). It is owned by a single goroutine.
type ChunkRunner struct {
	c      *Campaign
	runner *sim.Runner
}

// NewChunkRunner validates that the campaign's options permit chunked
// execution and returns a runner for its grid.
func (c *Campaign) NewChunkRunner() (*ChunkRunner, error) {
	if err := c.chunkable(); err != nil {
		return nil, err
	}
	r, err := sim.NewRunner(c.opts.Platform, c.prog, c.opts.Seed)
	if err != nil {
		return nil, err
	}
	return &ChunkRunner{c: c, runner: r}, nil
}

// Run executes one grid chunk with the campaign's full retry/backoff and
// fault-injection semantics and returns its result. On failure the result
// still carries the final attempt's partial accounting; the error is
// ErrCrash for platform findings, ErrShardFailed for infra failures that
// survived every retry, or the context's error.
func (cr *ChunkRunner) Run(ctx context.Context, idx int) (*ChunkResult, error) {
	c := cr.c
	if idx < 0 || idx >= c.NumChunks() {
		return nil, fmt.Errorf("mtracecheck: chunk %d outside grid of %d", idx, c.NumChunks())
	}
	start, count := c.ChunkBounds(idx)
	seeds := make([]int64, count)
	stream := sim.NewSeedStream(c.opts.Seed)
	stream.Skip(start)
	stream.Fill(seeds)
	out := c.runChunkRetrying(ctx, 0, &cr.runner, start, count, seeds)
	res := &ChunkResult{
		Chunk: idx, Start: start, Count: count,
		Stats: ChunkStats{
			Iterations: out.iterations, Cycles: out.cycles, Squashes: out.squashes,
		},
		Uniques: out.set.Sorted(),
	}
	for _, a := range out.asserts {
		res.Stats.Asserts = append(res.Stats.Asserts, a.Error())
	}
	return res, out.err
}

// assertFailure carries a transported assertion-failure message in the
// report's AssertionFailures list.
type assertFailure string

func (a assertFailure) Error() string { return string(a) }

// ChunkMerger is the campaign's one merger: the streaming consumer of
// completed execution chunks, whoever executed them. It folds each chunk's
// signatures into the campaign-wide accumulator, so the merge overlaps
// execution instead of waiting behind it. Decoding does not: it is a delta
// between sorted neighbours, which exist only at the barrier (finish).
//
// Run and Collect feed it from the work-stealing scheduler's reorder buffer,
// strictly in chunk order; the exported Absorb feeds it in any order and is
// idempotent per chunk index, so duplicate completions (stragglers, retried
// uploads, redispatch races) merge to the same state. Both land in the same
// absorb and end in the same finish: a chunk-API report equals the
// in-process one by construction. Not safe for concurrent use.
type ChunkMerger struct {
	c      *Campaign
	began  time.Time
	report *Report  // execution accounting lands here as chunks are absorbed
	acc    *sig.Set // campaign-wide dedup accumulator
	check  bool     // finish runs the host side (false: Collect)

	// Grid bookkeeping, exported API only (the in-process grid restarts at
	// every checkpoint segment, so it has no stable index): makes Absorb
	// idempotent and keeps transported assertion messages in chunk order.
	stats []ChunkStats // per chunk; valid where done[i]
	done  []bool
	nDone int

	// In-process only — chunkable() rejects the options behind them for the
	// exported API. First-observation ws needs chunks absorbed in order plus
	// a per-chunk ws map, and retained executions (report.Executions) are
	// whole simulator states; ChunkResult carries neither over the wire.
	wsBySig map[string]graph.WS // first-global-observation ws (ObservedWS)
}

// newMerger starts a campaign (start time, campaign-start event) and returns
// the empty merger its chunks land in. check says whether the host side will
// follow.
func (c *Campaign) newMerger(check bool) *ChunkMerger {
	m := &ChunkMerger{c: c, began: time.Now(), report: c.newReport(), acc: sig.NewSet(), check: check}
	if c.opts.ObservedWS {
		m.wsBySig = make(map[string]graph.WS)
	}
	c.em.campaignStart(c.prog, c.opts, c.opts.Iterations, c.workers, m.began)
	return m
}

// NewChunkMerger returns an empty merger over the campaign's grid and
// emits the campaign-start event (the merger is the distributed campaign's
// host side, so its lifetime brackets the observable campaign).
func (c *Campaign) NewChunkMerger() (*ChunkMerger, error) {
	if err := c.chunkable(); err != nil {
		return nil, err
	}
	m := c.newMerger(true)
	m.stats, m.done = make([]ChunkStats, c.NumChunks()), make([]bool, c.NumChunks())
	return m, nil
}

// Done returns how many grid chunks have been absorbed.
func (m *ChunkMerger) Done() int { return m.nDone }

// IsDone reports whether one chunk has been absorbed.
func (m *ChunkMerger) IsDone(idx int) bool {
	return idx >= 0 && idx < len(m.done) && m.done[idx]
}

// Complete reports whether every grid chunk has been absorbed.
func (m *ChunkMerger) Complete() bool { return m.nDone == len(m.done) }

// Merged returns the sorted unique signatures absorbed so far — the
// checkpoint payload.
func (m *ChunkMerger) Merged() []Unique { return m.acc.Sorted() }

// Stats returns one absorbed chunk's accounting (the zero value when the
// chunk is not done).
func (m *ChunkMerger) Stats(idx int) ChunkStats {
	if !m.IsDone(idx) {
		return ChunkStats{}
	}
	return m.stats[idx]
}

// absorb folds one completed chunk into the campaign state: report
// accounting, incremental dedup, and first-observation ws capture. entries are
// the chunk's uniques in any order. What is order-sensitive here — executions,
// assertion failures, first-observation ws — is in-process only, where chunks
// land strictly in chunk order whatever the worker count.
func (m *ChunkMerger) absorb(out *shardOut, entries []Unique) {
	r := m.report
	r.Iterations += out.iterations
	r.TotalCycles += out.cycles
	r.Squashes += out.squashes
	r.Executions = append(r.Executions, out.execs...)
	r.AssertionFailures = append(r.AssertionFailures, out.asserts...)
	for _, u := range entries {
		if !m.acc.AddUnique(u) || m.wsBySig == nil {
			continue
		}
		// New to the campaign means first observed in this chunk, and chunks
		// land in order: first-in-chunk is first-globally.
		key := u.Sig.Key()
		if ws, ok := out.ws[key]; ok {
			m.wsBySig[key] = ws
		}
	}
}

// seed folds a checkpoint's merged unique set in as one batch without
// execution accounting (callers restore their own). Both resume paths —
// Options.Resume's prefix and Restore's chunk bitmap — come through here.
func (m *ChunkMerger) seed(uniques []Unique) { m.absorb(&shardOut{}, uniques) }

// finish is the one campaign tail: Run, Collect and Report all end here.
// The merged set is sorted, device-side corruption is injected, and (unless
// the merger only collects) the host side decodes and checks it. A failed
// execution stage skips all that: a crash is a finding (paper bug 3), the
// report covers what executed, and the error names the earliest crash.
func (m *ChunkMerger) finish(ctx context.Context, runErr error) (*Report, error) {
	c, report := m.c, m.report
	if runErr != nil {
		report.UniqueSignatures = m.acc.Len()
		c.em.campaignEnd(report, runErr, m.began)
		return report, runErr
	}
	uniques := m.acc.Sorted()
	var injected obs.FaultCounts
	if c.inj != nil {
		uniques, report.InjectedFaults = c.inj.Corrupt(uniques)
		injected = faultCounts(report.InjectedFaults)
	}
	report.UniqueSignatures = len(uniques)
	report.signatures = uniques
	c.em.mergeDone(report.Iterations, len(uniques), injected, true)
	var err error
	if m.check {
		err = c.decodeAndCheck(ctx, uniques, m.wsBySig, report)
	}
	c.em.campaignEnd(report, err, m.began)
	return report, err
}

// Absorb folds one chunk result into the merger. It returns false with no
// state change when the chunk was already absorbed (a deduplicated
// duplicate completion), and an error when the result does not fit the
// campaign's grid — wrong bounds, wrong signature width, impossible
// counters — which the distributed server treats as a validation strike
// against the uploading worker.
func (m *ChunkMerger) Absorb(r *ChunkResult) (fresh bool, err error) {
	if r == nil {
		return false, errors.New("mtracecheck: nil chunk result")
	}
	if r.Chunk < 0 || r.Chunk >= len(m.done) {
		return false, fmt.Errorf("mtracecheck: chunk %d outside grid of %d", r.Chunk, len(m.done))
	}
	start, count := m.c.ChunkBounds(r.Chunk)
	if r.Start != start || r.Count != count {
		return false, fmt.Errorf("mtracecheck: chunk %d claims iterations [%d,%d), grid says [%d,%d)",
			r.Chunk, r.Start, r.Start+r.Count, start, start+count)
	}
	if r.Stats.Iterations != count {
		return false, fmt.Errorf("mtracecheck: chunk %d completed %d of %d iterations",
			r.Chunk, r.Stats.Iterations, count)
	}
	// A completed iteration yields one signature observation or one assertion
	// failure, so the two add up to the chunk; inflated counts would otherwise
	// reach SaveSignatures. Each count is bounded before it is summed.
	words, observed := m.c.SignatureWords(), len(r.Stats.Asserts)
	for i := range r.Uniques {
		if r.Uniques[i].Sig.Len() != words {
			return false, fmt.Errorf("mtracecheck: chunk %d signature %d has %d words, campaign signatures have %d",
				r.Chunk, i, r.Uniques[i].Sig.Len(), words)
		}
		if n := r.Uniques[i].Count; n <= 0 || n > count {
			return false, fmt.Errorf("mtracecheck: chunk %d signature %d claims %d observations",
				r.Chunk, i, n)
		}
		if observed += r.Uniques[i].Count; observed > count {
			break
		}
	}
	if observed != count {
		return false, fmt.Errorf("mtracecheck: chunk %d accounts for %d observations and assertion failures over %d iterations",
			r.Chunk, observed, count)
	}
	if m.done[r.Chunk] {
		return false, nil
	}
	m.land(r.Chunk, r.Stats, r.Uniques)
	return true, nil
}

// land marks one grid chunk done and absorbs it. Its assertion messages
// stay in stats until Report lists them in chunk order.
func (m *ChunkMerger) land(idx int, st ChunkStats, uniques []Unique) {
	m.stats[idx], m.done[idx] = st, true
	m.nDone++
	m.absorb(&shardOut{idx: idx, iterations: st.Iterations, cycles: st.Cycles, squashes: st.Squashes}, uniques)
}

// Restore seeds the merger from a checkpoint: the merged unique set
// collected before the restart plus the per-chunk stats of the chunks it
// covered. The restored merger continues exactly where the checkpointed one
// stopped — completed chunks are never re-executed. A checkpoint that does
// not fit the campaign is rejected whole: the merger is left empty.
func (m *ChunkMerger) Restore(uniques []Unique, done map[int]ChunkStats) error {
	if m.nDone > 0 || m.acc.Len() > 0 {
		return errors.New("mtracecheck: Restore requires an empty merger")
	}
	for idx, st := range done {
		if idx < 0 || idx >= len(m.done) {
			return fmt.Errorf("mtracecheck: restored chunk %d outside grid of %d", idx, len(m.done))
		}
		if start, count := m.c.ChunkBounds(idx); st.Iterations != count {
			return fmt.Errorf("mtracecheck: restored chunk %d covers %d of %d iterations (grid start %d)",
				idx, st.Iterations, count, start)
		}
	}
	words := m.c.SignatureWords()
	for i := range uniques {
		if uniques[i].Sig.Len() != words {
			return fmt.Errorf("mtracecheck: restored signature %d has %d words, campaign signatures have %d",
				i, uniques[i].Sig.Len(), words)
		}
	}
	m.seed(uniques)
	for idx, st := range done {
		m.land(idx, st, nil)
	}
	return nil
}

// Report runs the host side over the merged results — corruption injection,
// decode, quarantine gate, collective check — and returns the campaign
// report, bit-identical to an uninterrupted in-process run of the same
// (program, options). It requires every grid chunk to have been absorbed.
func (m *ChunkMerger) Report(ctx context.Context) (*Report, error) {
	if !m.Complete() {
		return nil, fmt.Errorf("mtracecheck: report requires all %d chunks, have %d", len(m.done), m.nDone)
	}
	// Assertion messages crossed the wire as strings and chunks landed in
	// any order: list them now, ascending, as in-process absorption does.
	m.report.AssertionFailures = nil
	for idx := range m.stats {
		for _, a := range m.stats[idx].Asserts {
			m.report.AssertionFailures = append(m.report.AssertionFailures, assertFailure(a))
		}
	}
	return m.finish(ctx, nil)
}
