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
// are worker-invariant by construction, and the same whether the campaign
// runs in-process or distributed, checkpoints or not, from the start or from
// a checkpoint. 64 iterations amortize scheduling and channel overhead while
// keeping enough chunks in flight that a slow chunk (OS-mode scheduling, an
// injected stall) does not straggle the stage.
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

// chunkable rejects option combinations the exported chunk API cannot honor:
// chunk results must be self-contained and worker-invariant, which rules out
// recorded write serializations and retained executions.
func (c *Campaign) chunkable() error {
	switch {
	case c.opts.ObservedWS:
		return errors.New("mtracecheck: chunked execution requires the static ws mode")
	case c.opts.KeepExecutions:
		return errors.New("mtracecheck: chunked execution cannot retain executions")
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

// assertErrors turns assertion-failure messages that crossed a wire or a
// checkpoint back into the report's error values.
func assertErrors(msgs []string) []error {
	if len(msgs) == 0 {
		return nil
	}
	errs := make([]error, len(msgs))
	for i, msg := range msgs {
		errs[i] = assertFailure(msg)
	}
	return errs
}

// ChunkMerger is the campaign's one merger: the streaming consumer of
// completed execution chunks, whoever executed them. It folds each chunk's
// signatures into the campaign-wide accumulator, so the merge overlaps
// execution instead of waiting behind it. Decoding does not: it is a delta
// between sorted neighbours, which exist only at the barrier (finish).
//
// Run and Collect feed it from the work-stealing scheduler's reorder buffer,
// strictly in chunk order; the exported Absorb feeds it in any order and is
// idempotent per chunk index, so duplicate completions (stragglers, retried
// uploads, redispatch races) merge to the same state. Both come through the
// same land and end in the same finish: a chunk-API report equals the
// in-process one by construction. The merger is also the only owner of what a
// checkpoint holds, which campaign it belongs to and when one is due
// (Checkpoint, Restore, CheckpointDue), so a file written by either door
// resumes through either and both doors save at the same frontiers. Not safe
// for concurrent use.
type ChunkMerger struct {
	c      *Campaign
	began  time.Time
	report *Report  // execution accounting lands here as chunks are absorbed
	acc    *sig.Set // campaign-wide dedup accumulator
	check  bool     // finish runs the host side (false: Collect)

	// The grid: which chunks have landed and what each contributed. It makes
	// Absorb idempotent, keeps assertion failures in chunk order whatever order
	// chunks land in, and is what a checkpoint records beside the merged set.
	chunks []landedChunk
	nDone  int
	saved  int // nDone at the last Checkpoint or Restore

	// In-process only — chunkable() rejects the options behind them for the
	// exported API. First-observation ws needs chunks absorbed in order plus
	// a per-chunk ws map, and retained executions (report.Executions) are
	// whole simulator states; ChunkResult carries neither over the wire.
	wsBySig map[string]graph.WS // first-global-observation ws (ObservedWS)
}

// landedChunk is the merger's record of one grid chunk; the counters are
// valid where done.
type landedChunk struct {
	done       bool
	iterations int
	cycles     int64
	squashes   int
	asserts    []error // error values in-process, assertFailure off a wire or checkpoint
}

// newMerger starts a campaign (start time, campaign-start event) and returns
// the empty merger its chunks land in. check says whether the host side will
// follow.
func (c *Campaign) newMerger(check bool) *ChunkMerger {
	m := &ChunkMerger{c: c, began: time.Now(), report: c.newReport(), acc: sig.NewSet(), check: check,
		chunks: make([]landedChunk, c.NumChunks())}
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
	return c.newMerger(true), nil
}

// Done returns how many grid chunks have been absorbed.
func (m *ChunkMerger) Done() int { return m.nDone }

// IsDone reports whether one chunk has been absorbed.
func (m *ChunkMerger) IsDone(idx int) bool {
	return idx >= 0 && idx < len(m.chunks) && m.chunks[idx].done
}

// Complete reports whether every grid chunk has been absorbed.
func (m *ChunkMerger) Complete() bool { return m.nDone == len(m.chunks) }

// land marks one grid chunk done and folds it into the campaign state: its
// record in the grid, report accounting, incremental dedup. What is
// order-sensitive here — executions, first-observation ws — is in-process
// only, where chunks land in ascending order whatever the worker count.
func (m *ChunkMerger) land(idx int, out *shardOut, entries []Unique) {
	m.chunks[idx] = landedChunk{done: true, iterations: out.iterations,
		cycles: out.cycles, squashes: out.squashes, asserts: out.asserts}
	m.nDone++
	r := m.report
	r.Iterations += out.iterations
	r.TotalCycles += out.cycles
	r.Squashes += out.squashes
	r.Executions = append(r.Executions, out.execs...)
	m.merge(entries, out.ws)
}

// merge folds uniques, in any order, into the accumulator. ws is the chunk's
// first-observation write serializations (ObservedWS) and nil otherwise.
func (m *ChunkMerger) merge(entries []Unique, ws map[string]graph.WS) {
	for _, u := range entries {
		if !m.acc.AddUnique(u) || m.wsBySig == nil {
			continue
		}
		// New to the campaign means first observed in this chunk, and chunks
		// land in order: first-in-chunk is first-globally.
		key := u.Sig.Key()
		if w, ok := ws[key]; ok {
			m.wsBySig[key] = w
		}
	}
}

// finish is the one campaign tail: Run, Collect and Report all end here.
// Assertion failures are listed in chunk order, the merged set is sorted,
// device-side corruption is injected, and (unless the merger only collects)
// the host side decodes and checks it. A failed execution stage skips all but
// the first: a crash is a finding (paper bug 3), the report covers what
// executed, and the error names the earliest crash.
func (m *ChunkMerger) finish(ctx context.Context, runErr error) (*Report, error) {
	c, report := m.c, m.report
	report.AssertionFailures = nil
	for i := range m.chunks {
		report.AssertionFailures = append(report.AssertionFailures, m.chunks[i].asserts...)
	}
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
	if r.Chunk < 0 || r.Chunk >= len(m.chunks) {
		return false, fmt.Errorf("mtracecheck: chunk %d outside grid of %d", r.Chunk, len(m.chunks))
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
	if m.chunks[r.Chunk].done {
		return false, nil
	}
	m.land(r.Chunk, &shardOut{iterations: r.Stats.Iterations, cycles: r.Stats.Cycles,
		squashes: r.Stats.Squashes, asserts: assertErrors(r.Stats.Asserts)}, r.Uniques)
	return true, nil
}

// CheckpointDue reports whether the campaign's cadence asks for a checkpoint
// now: it has a CheckpointPath, and either Options.CheckpointEvery iterations'
// worth of whole chunks have landed since the last Checkpoint (or Restore), or
// the last chunk has. Both doors ask after every landed chunk, so they save at
// the same frontiers.
func (m *ChunkMerger) CheckpointDue() bool {
	return m.c.opts.CheckpointPath != "" &&
		(m.nDone-m.saved >= m.c.ckptChunks || m.Complete())
}

// Checkpoint returns the merger's resumable state: the campaign's identity
// (seed, program hash), the grid with every landed chunk's accounting, and the
// merged set, sorted. It restarts the cadence CheckpointDue counts. The
// in-process campaign writes it as it is; the dist server fills in the leases
// it holds (leased, attempt, worker). Restore is its inverse.
func (m *ChunkMerger) Checkpoint() sig.Checkpoint {
	m.saved = m.nDone
	ck := sig.Checkpoint{
		Seed: m.c.opts.Seed, ProgHash: progHash(m.c.prog),
		ChunkSize: ChunkSize, Chunks: make([]sig.CkptChunk, len(m.chunks)),
		Uniques: m.acc.Sorted(),
	}
	for idx := range m.chunks {
		if lc := &m.chunks[idx]; lc.done {
			cc := &ck.Chunks[idx]
			cc.Status, cc.Iterations, cc.Cycles, cc.Squashes = sig.ChunkDone, lc.iterations, lc.cycles, lc.squashes
			for _, a := range lc.asserts {
				cc.Asserts = append(cc.Asserts, a.Error())
			}
		}
	}
	return ck
}

// Restore seeds an empty merger from a checkpoint, whichever door wrote it,
// and is the whole gate a checkpoint passes: same seed, same program, same
// chunk size and signature width, and every done chunk covering exactly the
// iterations the resuming campaign's grid gives that index. The restored
// merger continues where the checkpointed one stopped — done chunks are never
// re-executed, and their cycles, squashes and assertion failures reach the
// report as if they had been. A campaign may therefore be extended (more
// Iterations than the checkpointed one had) when the earlier length is a
// multiple of ChunkSize: a trailing partial chunk is already merged into the
// set and cannot be completed without double counting. A checkpoint that does
// not fit is rejected whole: the merger is left empty.
func (m *ChunkMerger) Restore(ck sig.Checkpoint) error {
	c := m.c
	switch {
	case m.nDone > 0 || m.acc.Len() > 0:
		return errors.New("mtracecheck: resume: Restore requires an empty merger")
	case ck.Seed != c.opts.Seed:
		return fmt.Errorf("mtracecheck: resume: checkpoint seed %d does not match campaign seed %d", ck.Seed, c.opts.Seed)
	case ck.ProgHash != progHash(c.prog):
		return errors.New("mtracecheck: resume: checkpoint was written for a different test program")
	case ck.ChunkSize != ChunkSize:
		return fmt.Errorf("mtracecheck: resume: checkpoint grid has %d-iteration chunks, campaign grids have %d", ck.ChunkSize, ChunkSize)
	}
	for idx := range ck.Chunks {
		if ck.Chunks[idx].Status != sig.ChunkDone {
			continue
		}
		start, count := c.ChunkBounds(idx)
		switch have := ck.Chunks[idx].Iterations; {
		case idx >= len(m.chunks) || have > count:
			return fmt.Errorf("mtracecheck: resume: checkpoint covers iterations [%d,%d), campaign requests only %d",
				start, start+have, c.opts.Iterations)
		case have < count:
			return fmt.Errorf("mtracecheck: resume: checkpoint stops at iteration %d, inside chunk %d of the campaign's grid; a campaign can be extended only from a multiple of ChunkSize (%d)",
				start+have, idx, ChunkSize)
		}
	}
	words := c.SignatureWords()
	for i := range ck.Uniques {
		if ck.Uniques[i].Sig.Len() != words {
			return fmt.Errorf("mtracecheck: resume: checkpoint signature %d has %d words, campaign signatures have %d",
				i, ck.Uniques[i].Sig.Len(), words)
		}
	}
	m.merge(ck.Uniques, nil)
	for idx := range ck.Chunks {
		if cc := &ck.Chunks[idx]; cc.Status == sig.ChunkDone {
			m.land(idx, &shardOut{iterations: cc.Iterations, cycles: cc.Cycles,
				squashes: cc.Squashes, asserts: assertErrors(cc.Asserts)}, nil)
		}
	}
	m.report.ResumedIterations = m.report.Iterations
	m.saved = m.nDone
	return nil
}

// Report runs the host side over the merged results — corruption injection,
// decode, quarantine gate, collective check — and returns the campaign
// report, bit-identical to an uninterrupted in-process run of the same
// (program, options). It requires every grid chunk to have been absorbed.
func (m *ChunkMerger) Report(ctx context.Context) (*Report, error) {
	if !m.Complete() {
		return nil, fmt.Errorf("mtracecheck: report requires all %d chunks, have %d", len(m.chunks), m.nDone)
	}
	return m.finish(ctx, nil)
}
