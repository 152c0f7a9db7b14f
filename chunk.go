package mtracecheck

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"mtracecheck/internal/obs"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
)

// The chunk API is the campaign's one executor and one merger, exported: a
// ChunkRunner executes grid chunks and a ChunkMerger lands them, whether the
// runners are Campaign.Run's in-process workers or the remote processes the
// distributed service leases chunks to. Any runner can execute any chunk:
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

// maxIterations is the longest campaign: the file formats stop at 2^24 chunks
// (sig's checkpoint reader refuses a longer grid, and a chunk upload a start
// beyond 2^30), so a longer campaign would write checkpoints it cannot read
// back — after a merger had asked for a grid of terabytes.
const maxIterations = ChunkSize << 24

// NumChunks returns the number of chunks in the campaign's execution grid.
func (c *Campaign) NumChunks() int {
	return (c.opts.Iterations + ChunkSize - 1) / ChunkSize
}

// chunkBounds returns the global iteration range [start, start+count) of
// one grid chunk.
func (c *Campaign) chunkBounds(idx int) (start, count int) {
	start = idx * ChunkSize
	count = min(ChunkSize, c.opts.Iterations-start)
	return start, count
}

// ChunkStats is one executed chunk's accounting: iterations, cycles, squashes
// and assertion-failure messages (paper bug class 2). internal/sig owns the
// type, its validator and its binary form, which a chunk upload and a
// checkpoint share.
type ChunkStats = sig.ChunkStats

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

// ChunkRunner is the campaign's one chunk executor: Campaign.Run drives
// min(Workers, chunks) of them from a shared cursor, a distributed worker
// drives one from the server's leases. It owns what executing a chunk needs:
// a lane number (the shard its execute events carry), a simulator runner
// reused across chunks and rebuilt after a panicking attempt, and the
// campaign's seed stream with a chunk-sized buffer. Seeds travel as a cursor,
// not with the work: ascending chunk indices — what both schedulers hand out —
// draw each seed once, and an index below the cursor restarts the stream. It
// is owned by a single goroutine.
type ChunkRunner struct {
	c      *Campaign
	lane   int
	runner *sim.Runner // nil between a panicking attempt and the next one
	stream *sim.SeedStream
	seeds  [ChunkSize]int64
}

// newChunkRunner builds the runner of one lane; platform/program validation
// surfaces here, before any work.
func (c *Campaign) newChunkRunner(lane int) (*ChunkRunner, error) {
	r, err := sim.NewRunner(c.opts.Platform, c.prog, c.opts.Seed)
	if err != nil {
		return nil, err
	}
	return &ChunkRunner{c: c, lane: lane, runner: r, stream: sim.NewSeedStream(c.opts.Seed)}, nil
}

// NewChunkRunner returns a runner for the campaign's grid.
func (c *Campaign) NewChunkRunner() (*ChunkRunner, error) {
	return c.newChunkRunner(0)
}

// Run executes one grid chunk with the campaign's full retry/backoff and
// fault-injection semantics and returns its result: what an in-process worker
// hands the merger, less what cannot cross a wire. On failure the result
// still carries the final attempt's partial accounting; the error is
// ErrCrash for platform findings, ErrShardFailed for infra failures that
// survived every retry, or the context's error.
func (cr *ChunkRunner) Run(ctx context.Context, idx int) (*ChunkResult, error) {
	if idx < 0 || idx >= cr.c.NumChunks() {
		return nil, fmt.Errorf("mtracecheck: chunk %d outside grid of %d", idx, cr.c.NumChunks())
	}
	out := cr.runChunkRetrying(ctx, idx)
	res := out.ChunkResult
	res.Uniques = out.set.Sorted()
	return &res, out.err
}

// assertFailure carries an assertion-failure message in the report's
// AssertionFailures list.
type assertFailure string

func (a assertFailure) Error() string { return string(a) }

// ChunkMerger is the campaign's one merger: the streaming consumer of
// completed execution chunks, whoever executed them. It folds each chunk's
// signatures into the campaign-wide accumulator, so the merge overlaps
// execution instead of waiting behind it. Decoding does not: it is a delta
// between sorted neighbours, which exist only at the barrier (finish).
//
// Run and Collect feed it from the work-stealing scheduler's reorder buffer,
// strictly in chunk order; the exported Absorb, the validating door for
// results from outside the process, feeds it in any order and is idempotent
// per chunk index, so duplicate completions (stragglers, retried uploads,
// redispatch races) merge to the same state. Both doors meet in land and end
// in the same finish: a chunk-API report equals the in-process one by
// construction. The merger's grid is the checkpoint's grid (sig.CkptChunk), so
// the merger is also the only code that reads and writes a checkpoint file
// (Resume, Save) and decides when one is due (CheckpointDue): a file written
// by either door resumes through either and both doors save at the same
// frontiers. Not safe for concurrent use.
type ChunkMerger struct {
	c      *Campaign
	began  time.Time
	report *Report  // execution accounting lands here as chunks are absorbed
	acc    *sig.Set // campaign-wide dedup accumulator
	check  bool     // finish runs the host side (false: Collect)

	// The grid: which chunks have landed (pending or done; leases are the dist
	// server's) and each one's stats. It makes Absorb idempotent, keeps
	// assertion failures in chunk order whatever order chunks land in, and is
	// what a checkpoint records beside the merged set.
	chunks []sig.CkptChunk
	nDone  int
	saved  int // nDone at the last checkpoint or restore
}

// newMerger starts a campaign (start time, campaign-start event) and returns
// the empty merger its chunks land in. check says whether the host side will
// follow.
func (c *Campaign) newMerger(check bool) *ChunkMerger {
	m := &ChunkMerger{c: c, began: time.Now(), report: c.newReport(), acc: sig.NewSet(), check: check,
		chunks: make([]sig.CkptChunk, c.NumChunks())}
	c.em.campaignStart(c.prog, c.opts.Platform.Name, c.opts.Platform.Model, c.opts.Iterations, c.workers, m.began)
	return m
}

// NewChunkMerger returns an empty merger over the campaign's grid and
// emits the campaign-start event (the merger is the distributed campaign's
// host side, so its lifetime brackets the observable campaign). The error is
// always nil.
func (c *Campaign) NewChunkMerger() (*ChunkMerger, error) {
	return c.newMerger(true), nil
}

// Done returns how many grid chunks have been absorbed; Report wants all
// NumChunks() of them.
func (m *ChunkMerger) Done() int { return m.nDone }

// complete reports whether every grid chunk has been absorbed: Done() ==
// NumChunks().
func (m *ChunkMerger) complete() bool { return m.nDone == len(m.chunks) }

// land is where both doors meet: it marks one grid chunk done with the stats
// it was given and folds it into the campaign state — report accounting,
// incremental dedup.
func (m *ChunkMerger) land(idx int, stats ChunkStats, entries []Unique) {
	m.chunks[idx] = sig.CkptChunk{Status: sig.ChunkDone, ChunkStats: stats}
	m.nDone++
	r := m.report
	r.Iterations += stats.Iterations
	r.TotalCycles += stats.Cycles
	r.Squashes += stats.Squashes
	m.merge(entries)
}

// merge folds uniques, in any order, into the accumulator.
func (m *ChunkMerger) merge(entries []Unique) {
	for _, u := range entries {
		m.acc.AddUnique(u)
	}
}

// finish is the one campaign tail: Run, Collect and Report all end here.
// Lost chunks are listed in grid order, whatever order they landed in.
// Assertion failures — messages from the chunk that raised them on — become
// the report's error values, in chunk order; the merged set is sorted,
// device-side corruption is injected, and (unless the merger only collects)
// the host side decodes and checks it. A failed execution stage skips all but
// the first: a crash is a finding (paper bug 3), the report covers what
// executed, and the error names the earliest crash.
func (m *ChunkMerger) finish(ctx context.Context, runErr error) (*Report, error) {
	c, report := m.c, m.report
	slices.SortFunc(report.ShardFailures, func(a, b ShardFailure) int { return a.Start - b.Start })
	report.AssertionFailures = nil
	for i := range m.chunks {
		for _, msg := range m.chunks[i].Asserts {
			report.AssertionFailures = append(report.AssertionFailures, assertFailure(msg))
		}
	}
	if runErr != nil {
		report.UniqueSignatures = m.acc.Len()
		c.em.campaignEnd(report, runErr, m.began)
		return report, runErr
	}
	uniques, injected := c.inj.Corrupt(m.acc.Sorted())
	report.InjectedFaults = injected
	report.UniqueSignatures = len(uniques)
	report.signatures = uniques
	c.em.mergeDone(report.Iterations, len(uniques), faultCounts(injected), true)
	var err error
	if m.check {
		err = c.decodeAndCheck(ctx, uniques, report)
	}
	c.em.campaignEnd(report, err, m.began)
	return report, err
}

// Absorb folds one chunk result into the merger. It returns false with no
// state change when the chunk was already absorbed (a deduplicated
// duplicate completion), and an error when the result does not fit the
// campaign's grid — wrong bounds, wrong signature width, counters
// ChunkStats.Validate refuses or that do not add up to the chunk — which the
// distributed server treats as a validation strike against the uploading
// worker.
func (m *ChunkMerger) Absorb(r *ChunkResult) (fresh bool, err error) {
	if err := m.fits(r, false); err != nil {
		return false, err
	}
	if m.chunks[r.Chunk].Status == sig.ChunkDone {
		return false, nil
	}
	m.land(r.Chunk, r.Stats, r.Uniques)
	return true, nil
}

// AbsorbLost folds in a chunk lost after its runner's retries
// (ErrShardFailed): the final attempt's partial result lands as the chunk, and
// the loss is recorded with cause, the runner's error, in the report's
// ShardFailures. Both doors land a lost chunk here — in-process unless the
// campaign is Strict, and the dist server for a worker's lost chunk — so
// their reports agree. Duplicates and results that do not fit are handled as
// by Absorb, except that the chunk may stop short of its count. No checkpoint
// is due after a lost chunk: its partial results are merged, so the set is no
// longer the union of the chunks the grid marks done.
func (m *ChunkMerger) AbsorbLost(r *ChunkResult, cause error) (fresh bool, err error) {
	if err := m.fits(r, true); err != nil {
		return false, err
	}
	if m.chunks[r.Chunk].Status == sig.ChunkDone {
		return false, nil
	}
	m.land(r.Chunk, r.Stats, r.Uniques)
	m.report.ShardFailures = append(m.report.ShardFailures, ShardFailure{
		Start: r.Start, Count: r.Count, Executed: r.Stats.Iterations,
		Attempts: m.c.opts.ShardRetries + 1, Err: cause,
	})
	return true, nil
}

// fits checks that r fits the campaign's grid: its bounds, counters
// ChunkStats.Validate accepts, signatures of the campaign's width, and
// observations that account for the iterations — every one of a complete
// chunk, each completed iteration yielding one signature observation or one
// assertion failure; at most the executed ones of a lost chunk, whose last
// iteration the failure may have cut short.
func (m *ChunkMerger) fits(r *ChunkResult, lost bool) error {
	if r == nil {
		return errors.New("mtracecheck: nil chunk result")
	}
	if r.Chunk < 0 || r.Chunk >= len(m.chunks) {
		return fmt.Errorf("mtracecheck: chunk %d outside grid of %d", r.Chunk, len(m.chunks))
	}
	start, count := m.c.chunkBounds(r.Chunk)
	if r.Start != start || r.Count != count {
		return fmt.Errorf("mtracecheck: chunk %d claims iterations [%d,%d), grid says [%d,%d)",
			r.Chunk, r.Start, r.Start+r.Count, start, start+count)
	}
	if err := r.Stats.Validate(count); err != nil {
		return fmt.Errorf("mtracecheck: chunk %d: %w", r.Chunk, err)
	}
	if !lost && r.Stats.Iterations != count {
		return fmt.Errorf("mtracecheck: chunk %d completed %d of %d iterations",
			r.Chunk, r.Stats.Iterations, count)
	}
	// Inflated counts would otherwise reach SaveSignatures. Each count is
	// bounded before it is summed.
	words, observed, executed := m.c.meta.TotalWords(), len(r.Stats.Asserts), r.Stats.Iterations
	for i := range r.Uniques {
		if r.Uniques[i].Sig.Len() != words {
			return fmt.Errorf("mtracecheck: chunk %d signature %d has %d words, campaign signatures have %d",
				r.Chunk, i, r.Uniques[i].Sig.Len(), words)
		}
		if n := r.Uniques[i].Count; n <= 0 || n > count {
			return fmt.Errorf("mtracecheck: chunk %d signature %d claims %d observations",
				r.Chunk, i, n)
		}
		if observed += r.Uniques[i].Count; observed > count {
			break
		}
	}
	if observed > executed || (!lost && observed != executed) {
		return fmt.Errorf("mtracecheck: chunk %d accounts for %d observations and assertion failures over %d iterations",
			r.Chunk, observed, executed)
	}
	return nil
}

// CheckpointDue reports whether the campaign's cadence asks for a checkpoint
// now: it has a CheckpointPath and no lost chunk (AbsorbLost), and either
// Options.CheckpointEvery iterations' worth of whole chunks have landed since
// the last Save (or Resume), or the last chunk has. Both doors ask after every
// landed chunk, so they save at the same frontiers.
func (m *ChunkMerger) CheckpointDue() bool {
	return m.c.opts.CheckpointPath != "" && len(m.report.ShardFailures) == 0 &&
		(m.nDone-m.saved >= m.c.ckptChunks || m.complete())
}

// Resume restores the empty merger from the checkpoint file at
// Options.CheckpointPath, emits the resumed event and returns the checkpoint.
// A missing file is an error wrapping fs.ErrNotExist, which each door treats
// by its own policy.
func (m *ChunkMerger) Resume() (sig.Checkpoint, error) {
	path := m.c.opts.CheckpointPath
	f, err := os.Open(path)
	var ck sig.Checkpoint
	if err == nil {
		ck, err = sig.ReadCheckpoint(f)
		f.Close()
	}
	if err != nil {
		return sig.Checkpoint{}, fmt.Errorf("mtracecheck: resume: %w", err)
	}
	if err := m.restore(ck); err != nil {
		return sig.Checkpoint{}, err
	}
	m.c.em.checkpointOp(obs.CheckpointResumed, path, m.report.ResumedIterations, len(ck.Uniques), 0)
	return ck, nil
}

// Save writes the merger's checkpoint to Options.CheckpointPath, atomically,
// and emits the saved event. fill, when non-nil, edits the checkpoint before
// it is written: the dist server overlays the leases it holds there. It
// restarts the cadence CheckpointDue counts, even when the write fails.
func (m *ChunkMerger) Save(fill func(*sig.Checkpoint)) error {
	ck := m.checkpoint()
	if fill != nil {
		fill(&ck)
	}
	path := m.c.opts.CheckpointPath
	n, err := sig.WriteCheckpointFile(path, ck)
	if err != nil {
		return fmt.Errorf("mtracecheck: checkpoint: %w", err)
	}
	m.c.em.checkpointOp(obs.CheckpointSaved, path, m.report.Iterations, len(ck.Uniques), n)
	return nil
}

// checkpoint returns the merger's resumable state: the campaign's identity
// (seed, program hash), a copy of the grid with every landed chunk's stats, and
// the merged set, sorted. It restarts the cadence CheckpointDue counts.
// restore is its inverse.
func (m *ChunkMerger) checkpoint() sig.Checkpoint {
	m.saved = m.nDone
	return sig.Checkpoint{
		Seed: m.c.opts.Seed, ProgHash: progHash(m.c.prog),
		ChunkSize: ChunkSize, Chunks: slices.Clone(m.chunks),
		Uniques: m.acc.Sorted(),
	}
}

// restore seeds an empty merger from a checkpoint, whichever door wrote it,
// and is the whole gate a checkpoint passes: same seed, same program, same
// chunk size and signature width, and every done chunk with stats
// ChunkStats.Validate accepts, covering exactly the iterations the resuming
// campaign's grid gives that index. The restored merger continues where the
// checkpointed one stopped — done chunks land as the checkpoint records them
// and are never re-executed, so their cycles, squashes and assertion failures
// reach the report as if they had been. A campaign may therefore be extended
// (more Iterations than the checkpointed one had) when the earlier length is a
// multiple of ChunkSize: a trailing partial chunk is already merged into the
// set and cannot be completed without double counting. A checkpoint that does
// not fit is rejected whole: the merger is left empty.
func (m *ChunkMerger) restore(ck sig.Checkpoint) error {
	c := m.c
	switch {
	case m.nDone > 0 || m.acc.Len() > 0:
		return errors.New("mtracecheck: resume: a checkpoint restores only into an empty merger")
	case ck.Seed != c.opts.Seed:
		return fmt.Errorf("mtracecheck: resume: checkpoint seed %d does not match campaign seed %d", ck.Seed, c.opts.Seed)
	case ck.ProgHash != progHash(c.prog):
		return errors.New("mtracecheck: resume: checkpoint was written for a different test program")
	case ck.ChunkSize != ChunkSize:
		return fmt.Errorf("mtracecheck: resume: checkpoint grid has %d-iteration chunks, campaign grids have %d", ck.ChunkSize, ChunkSize)
	}
	for idx := range ck.Chunks {
		cc := &ck.Chunks[idx]
		if cc.Status != sig.ChunkDone {
			continue
		}
		if err := cc.Validate(ChunkSize); err != nil {
			return fmt.Errorf("mtracecheck: resume: checkpoint chunk %d: %w", idx, err)
		}
		start, count := c.chunkBounds(idx)
		switch have := cc.Iterations; {
		case idx >= len(m.chunks) || have > count:
			return fmt.Errorf("mtracecheck: resume: checkpoint covers iterations [%d,%d), campaign requests only %d",
				start, start+have, c.opts.Iterations)
		case have < count:
			return fmt.Errorf("mtracecheck: resume: checkpoint stops at iteration %d, inside chunk %d of the campaign's grid; a campaign can be extended only from a multiple of ChunkSize (%d)",
				start+have, idx, ChunkSize)
		}
	}
	words := c.meta.TotalWords()
	for i := range ck.Uniques {
		if ck.Uniques[i].Sig.Len() != words {
			return fmt.Errorf("mtracecheck: resume: checkpoint signature %d has %d words, campaign signatures have %d",
				i, ck.Uniques[i].Sig.Len(), words)
		}
	}
	m.merge(ck.Uniques)
	for idx := range ck.Chunks {
		if cc := &ck.Chunks[idx]; cc.Status == sig.ChunkDone {
			m.land(idx, cc.ChunkStats, nil)
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
	if !m.complete() {
		return nil, fmt.Errorf("mtracecheck: report requires all %d chunks, have %d", len(m.chunks), m.nDone)
	}
	return m.finish(ctx, nil)
}
