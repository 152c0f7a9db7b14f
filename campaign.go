package mtracecheck

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"time"

	"mtracecheck/internal/check"
	"mtracecheck/internal/corpus"
	"mtracecheck/internal/fault"
	"mtracecheck/internal/graph"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/obs"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
)

// Campaign is the validation pipeline's spine: one analyzed (program,
// options) pair whose stages — streaming execution, incremental signature
// merge, barrier decode, collective checking, checkpointing — can be driven
// whole (Run) or split across the paper's device/host boundary (Collect,
// Check). Every public entry point (Run, RunProgram, RunLitmus,
// CollectSignatures, CheckSignatures, the chunk API) is a thin wrapper over
// a Campaign, so Options.Observer taps every stage regardless of which door
// the caller came in through.
//
// A Campaign is immutable after construction and safe to Run repeatedly,
// from several goroutines at once (per-run state lives in the run's
// ChunkMerger); identical (program, Options) pairs produce identical
// results.
type Campaign struct {
	prog    *Program
	opts    Options
	meta    *instrument.Meta
	builder *graph.Builder // static ws: every graph is a function of its signature
	inj     *fault.Injector
	em      emitter
	workers int
	// ckptChunks is the checkpoint cadence in landed chunks: CheckpointEvery
	// iterations (0 = a tenth of the campaign) rounded up to whole chunks.
	ckptChunks int

	// Signature-corpus state (Options.Corpus). corpusOK means the attached
	// store is usable for this campaign's key; a width mismatch degrades to
	// a cold run (corpusErr says why) rather than risking a wrong verdict.
	corpKey   corpus.Key
	corpusOK  bool
	corpusErr error
}

// NewCampaign analyzes the program and validates the options, surfacing
// configuration errors before any execution work.
func NewCampaign(p *Program, opts Options) (*Campaign, error) {
	opts = withDefaults(opts)
	switch {
	case opts.Iterations < 0:
		return nil, fmt.Errorf("mtracecheck: Iterations must be >= 0 (0 selects the default), got %d", opts.Iterations)
	case opts.Iterations > maxIterations:
		return nil, fmt.Errorf("mtracecheck: Iterations must be <= %d (2^24 chunks of %d, the longest grid a checkpoint or a chunk upload can describe), got %d",
			maxIterations, ChunkSize, opts.Iterations)
	case opts.Workers < 0:
		return nil, fmt.Errorf("mtracecheck: Workers must be >= 0 (0 selects GOMAXPROCS), got %d", opts.Workers)
	case !(opts.QuarantineThreshold >= 0 && opts.QuarantineThreshold <= 1):
		return nil, fmt.Errorf("mtracecheck: QuarantineThreshold must be a fraction in [0, 1] (0 = no limit), got %v", opts.QuarantineThreshold)
	case opts.Resume && opts.CheckpointPath == "":
		return nil, errors.New("mtracecheck: Resume requires CheckpointPath")
	}
	// An unknown checker is refused here, once for every door, by the entry
	// every door's check ends in.
	if err := checkItems(context.Background(), opts.Checker, nil, nil, 0, emitter{}, nil); err != nil {
		return nil, err
	}
	// A campaign injects corruption and execution faults; wire kinds are a
	// dist worker's, injected into its own uploads.
	inj, err := fault.NewInjector(opts.Fault, fault.Corruption|fault.Execution)
	if err != nil {
		return nil, err
	}
	meta, err := instrument.Analyze(p, opts.Platform.RegWidthBits, opts.Pruner)
	if err != nil {
		return nil, err
	}
	// One builder serves every Run: it is read-only once built, and the
	// checkers' workspace pool keeps workspaces per builder.
	c := &Campaign{
		prog: p, opts: opts, meta: meta, inj: inj,
		builder: graph.NewBuilder(p, opts.Platform.Model, graph.Options{
			Forwarding: opts.Platform.Atomicity.AllowsForwarding(),
		}),
		em: emitter{o: opts.Observer}, workers: opts.workerCount(),
	}
	every := opts.CheckpointEvery
	if every <= 0 {
		every = opts.Iterations / 10
	}
	c.ckptChunks = max(1, (every+ChunkSize-1)/ChunkSize)
	if opts.Corpus != nil {
		if opts.Pruner != nil {
			return nil, errors.New("mtracecheck: the signature corpus cannot be combined with a pruner (pruning changes the signature encoding the corpus key does not capture)")
		}
		c.corpKey = corpus.Key{
			ProgHash: progHash(p),
			Platform: opts.Platform.Name,
			MCM:      opts.Platform.Model.String(),
		}
		if w, ok := opts.Corpus.Words(c.corpKey); ok && w != meta.TotalWords() {
			c.corpusErr = fmt.Errorf("corpus section holds %d-word signatures, campaign produces %d; corpus ignored", w, meta.TotalWords())
		} else {
			c.corpusOK = true
		}
	}
	return c, nil
}

// corpusActive reports whether the warm-cache fast path applies.
func (c *Campaign) corpusActive() bool { return c.opts.Corpus != nil && c.corpusOK }

// newReport seeds a report with the campaign's identity — the provenance
// SaveSignatures persists and resume/check-only paths validate.
func (c *Campaign) newReport() *Report {
	return &Report{
		Program: c.prog, SignatureBytes: c.meta.SignatureBytes(),
		Seed: c.opts.Seed, Platform: c.opts.Platform.Name,
	}
}

// Run drives the full pipeline. Execution, merge, and decode stream past
// each other chunk by chunk; only the global signature sort and the
// collective check wait for the execution barrier. The context is polled
// between iterations in every execution shard, between signatures in the
// barrier decode, and between graphs in every checking shard, so
// cancellation returns promptly, all pipeline goroutines joined, with ctx.Err().
func (c *Campaign) Run(ctx context.Context) (*Report, error) {
	m := c.newMerger(true)
	return m.finish(ctx, c.execute(ctx, m))
}

// Collect drives only the execution stage — the "device side" of the
// paper's flow — returning the merged unique signatures without decoding
// or checking them. Pair with Check on the host; both sides observe the
// same signatures for the same (Seed, Iterations), and fault injection,
// checkpointing, and shard retry apply identically.
func (c *Campaign) Collect(ctx context.Context) ([]Unique, error) {
	m := c.newMerger(false) // its report is an accounting sink; callers get signatures only
	report, err := m.finish(ctx, c.execute(ctx, m))
	if err != nil {
		return nil, err
	}
	return report.signatures, nil
}

// Check drives only the host side: previously collected unique signatures
// are decoded and checked under the campaign's options — checker
// selection, Workers, Strict/QuarantineThreshold, and the observer all
// apply.
func (c *Campaign) Check(ctx context.Context, uniques []Unique) (*Report, error) {
	began := time.Now()
	c.em.campaignStart(c.prog, c.opts.Platform.Name, c.opts.Platform.Model, 0, c.workers, began)
	report := c.newReport()
	report.UniqueSignatures = len(uniques)
	err := c.decodeAndCheck(ctx, uniques, report)
	c.em.campaignEnd(report, err, began)
	return report, err
}

// decodeAndCheck is the shared host side of Run, ChunkMerger.Report and
// Check: the barrier decode of the merged, sorted set (decodeItems), the
// quarantine-threshold gate and the selected checker. Everything here waits
// for the execution barrier because everything here is a delta between sorted
// neighbours — the decoded rows the checkers diff, and the windowed re-sorts
// of Alg. 2 — and no partial stream has those.
func (c *Campaign) decodeAndCheck(ctx context.Context, uniques []Unique, report *Report) error {
	// Warm-cache fast path: partition the merged set against the corpus at
	// the sort barrier. Hits were proven acyclic by an earlier campaign —
	// the verdict is a pure function of (program, signature) — so they skip
	// decode and checking entirely; they still count in UniqueSignatures,
	// so the Fig. 8 growth curve and the printed verdict are bit-identical
	// to a cold or corpus-less run. A corpus the campaign refused (load
	// failure upstream, width mismatch) degrades to that cold run.
	novel := uniques
	if c.opts.Corpus != nil {
		if !c.corpusOK {
			report.CorpusIgnored = c.corpusErr
			c.em.corpusEvent(obs.CorpusEvent{
				Op: obs.CorpusIgnored, Program: c.corpKey.ProgHash,
				Platform: c.corpKey.Platform, MCM: c.corpKey.MCM, Err: c.corpusErr,
			})
		} else {
			report.CorpusConsulted = true
			var hits int
			novel, hits = c.partitionCorpus(uniques)
			report.CorpusHits = hits
			c.em.corpusEvent(obs.CorpusEvent{
				Op: obs.CorpusLookup, Program: c.corpKey.ProgHash,
				Platform: c.corpKey.Platform, MCM: c.corpKey.MCM,
				Hits: hits, Misses: len(novel), Known: c.opts.Corpus.Len(c.corpKey),
			})
		}
	}
	items, quarantined, err := decodeItems(ctx, c.meta, novel, c.opts.Strict, c.em)
	if err != nil {
		return err
	}
	report.Quarantined = quarantined
	// The threshold denominator stays the full unique set: corpus hits are
	// decodable by construction (they decoded when first proven), so the
	// quarantined fraction matches the cold run's.
	if c.opts.QuarantineThreshold > 0 && len(uniques) > 0 {
		if frac := float64(len(quarantined)) / float64(len(uniques)); frac > c.opts.QuarantineThreshold {
			return fmt.Errorf("%w: %d of %d unique signatures (%.2f%% > %.2f%%)",
				ErrQuarantineThreshold, len(quarantined), len(uniques),
				100*frac, 100*c.opts.QuarantineThreshold)
		}
	}
	if err := checkItems(ctx, c.opts.Checker, c.builder, items, c.workers, c.em, report); err != nil {
		return err
	}
	if c.corpusActive() {
		if err := c.corpusAppend(report, items); err != nil {
			return err
		}
	}
	return nil
}

// checkItems is the host side's last step and this package's one way into
// internal/check: it resolves the named row of check's table (the empty name
// is the default), runs it through the sharded dispatch — so Workers and
// cancellation apply to every backend alike — and files CheckStats, Violations
// and the row (for CheckEffort) in the report; check-shard events go to em. A
// campaign's decodeAndCheck and CheckTraceContext both end here, so a backend
// or a tier of checking plugs in once. Without a builder it only resolves the
// name, which is how NewCampaign refuses an unknown checker before any work.
func checkItems(ctx context.Context, checker string, b *graph.Builder, items []check.Item,
	workers int, em emitter, report *Report) error {
	be, err := check.ForName(checker)
	if err != nil {
		return fmt.Errorf("mtracecheck: %w", err)
	}
	if b == nil {
		return nil
	}
	res, err := check.ShardedBackend(ctx, be, b, items, workers, em.checkShardFunc(be.Name))
	if err != nil {
		return err
	}
	report.CheckStats, report.Violations, report.backend = res, res.Violations, be
	return nil
}

// partitionCorpus splits the sorted unique set into corpus misses (the
// returned slice, ascending order preserved) and hits.
func (c *Campaign) partitionCorpus(uniques []Unique) ([]Unique, int) {
	novel := make([]Unique, 0, len(uniques))
	hits := 0
	// Binary-key scratch for the lookups: one buffer per pass, local so that
	// concurrent passes over one Campaign share nothing.
	keyBuf := make([]byte, 0, 8*c.meta.TotalWords())
	for _, u := range uniques {
		keyBuf = u.Sig.AppendBinary(keyBuf[:0])
		if c.opts.Corpus.Contains(c.corpKey, keyBuf) {
			hits++
			continue
		}
		novel = append(novel, u)
	}
	return novel, hits
}

// corpusAppend stages every newly checked signature that proved acyclic
// — violating signatures are never cached — and flushes the corpus
// atomically. Flush failures are surfaced like checkpoint-write
// failures: the verdict stands, but the campaign errors rather than
// silently dropping persistence the caller asked for.
func (c *Campaign) corpusAppend(report *Report, items []check.Item) error {
	appended := 0
	bad := report.Violations // ascending by Index, an index into items
	for i, it := range items {
		if len(bad) > 0 && bad[0].Index == i {
			bad = bad[1:]
			continue
		}
		if c.opts.Corpus.Add(c.corpKey, it.Sig, c.opts.Seed) {
			appended++
		}
	}
	report.CorpusAppended = appended
	bytes, err := c.opts.Corpus.Flush()
	c.em.corpusEvent(obs.CorpusEvent{
		Op: obs.CorpusFlush, Program: c.corpKey.ProgHash,
		Platform: c.corpKey.Platform, MCM: c.corpKey.MCM,
		Appended: appended, Known: c.opts.Corpus.Len(c.corpKey),
		Bytes: bytes, Err: err,
	})
	if err != nil {
		return fmt.Errorf("mtracecheck: corpus: %w", err)
	}
	return nil
}

// execute runs the execution stage: an optional resume (the merger reads the
// checkpoint; a missing one is an error here), then the grid chunks the merger
// does not hold, the chunk API driven by min(Workers, chunks) ChunkRunners.
// Each pulls the next chunk index from a shared cursor, executes it (per-chunk
// retry included) and streams the result to the merger. The merger runs here,
// on the campaign goroutine, landing chunks strictly in chunk order through a
// reorder buffer while runners execute later chunks — the stage overlap — so
// every order-sensitive output (failure bookkeeping, checkpoint bytes) is
// identical for every worker count and completion schedule, and the report's
// accounting is honest even when an error cuts the campaign short. It also
// writes a checkpoint whenever the merger says one is due (CheckpointDue); the
// runners keep executing meanwhile. It returns the first fatal error in chunk
// order.
func (c *Campaign) execute(ctx context.Context, m *ChunkMerger) error {
	if c.opts.Resume {
		if _, err := m.Resume(); err != nil {
			return err
		}
	}
	todo := make([]int, 0, len(m.chunks)-m.nDone)
	for idx := range m.chunks {
		if m.chunks[idx].Status != sig.ChunkDone {
			todo = append(todo, idx)
		}
	}
	// One runner per worker for the whole campaign (none when a checkpoint
	// already covers it), each on its own lane.
	runners := make([]*ChunkRunner, min(c.workers, len(todo)))
	for lane := range runners {
		cr, err := c.newChunkRunner(lane)
		if err != nil {
			return err
		}
		runners[lane] = cr
	}
	var mu sync.Mutex
	next, stop := 0, false
	// dispatch pops the next chunk index. The cursor is monotonic, so
	// dispatched chunks always form a prefix of todo — the reorder buffer below
	// can never stall waiting for an undispatched index — and every runner sees
	// ascending indices.
	dispatch := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stop || next >= len(todo) || ctx.Err() != nil {
			return 0, false
		}
		next++
		return todo[next-1], true
	}
	var firstErr error
	// fail records a fatal error: stop handing out new chunks, drain — not
	// land — what is in flight. Landing order is ascending, so the first one
	// recorded is the earliest in iteration order.
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			mu.Lock()
			stop = true
			mu.Unlock()
		}
	}

	results := make(chan *shardOut, len(runners))
	var wg sync.WaitGroup
	for _, cr := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx, ok := dispatch(); ok; idx, ok = dispatch() {
				results <- cr.runChunkRetrying(ctx, idx)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	pending := make(map[int]*shardOut)
	landed := 0 // todo[:landed] are in the merger
	for out := range results {
		pending[out.Chunk] = out
		for landed < len(todo) {
			o := pending[todo[landed]]
			if o == nil {
				break
			}
			delete(pending, o.Chunk)
			landed++
			if firstErr != nil {
				// Which chunks were in flight behind the fatal one depends on
				// the worker count; the report must not.
				continue
			}
			err := o.err
			if errors.Is(err, ErrShardFailed) && !c.opts.Strict {
				// Infra failure that survived its retries: degrade to
				// partial results, recorded honestly; scheduling continues.
				o.Uniques = o.set.Entries()
				_, err = m.AbsorbLost(&o.ChunkResult, err)
			} else {
				// A fatal error's report still covers what executed.
				m.land(o.Chunk, o.Stats, o.set.Entries())
				if err == nil && m.CheckpointDue() {
					err = c.saveCheckpoint(m)
				}
			}
			if err != nil {
				fail(err)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// saveCheckpoint persists the merger's state at CheckpointPath: a failed write
// fails the campaign. The save is also a point of the unique-signature curve
// and a corpus flush.
func (c *Campaign) saveCheckpoint(m *ChunkMerger) error {
	c.em.mergeDone(m.report.Iterations, m.acc.Len(), obs.FaultCounts{}, false)
	if err := m.Save(nil); err != nil {
		return err
	}
	if c.corpusActive() {
		// Checkpoint boundaries also persist any staged corpus entries — a
		// no-op for a lone campaign (verification is terminal), but a shared
		// store may hold appends from campaigns that finished since its last
		// flush.
		if _, err := c.opts.Corpus.Flush(); err != nil {
			return fmt.Errorf("mtracecheck: corpus: %w", err)
		}
	}
	return nil
}

// runChunkRetrying drives one grid chunk to completion on the runner,
// re-running it from the chunk start after a transient failure (a recovered
// panic) with capped exponential backoff. The chunk's seeds are drawn from
// the runner's stream once and every attempt
// restarts them from the top, so a retried chunk replays bit-identically. A
// panicking attempt may leave the simulator's reusable platform state corrupt,
// so it is dropped and rebuilt before any reuse — the next attempt, or the
// runner's next chunk when the failure exhausted its retries. Platform crashes
// are findings and parent cancellation is final; neither is retried. A chunk
// still failing after every retry returns its final partial attempt with the
// failure wrapped in ErrShardFailed.
func (cr *ChunkRunner) runChunkRetrying(ctx context.Context, idx int) *shardOut {
	c, opts := cr.c, cr.c.opts
	start, count := c.chunkBounds(idx)
	seeds := cr.seeds[:count]
	cr.stream.FillFrom(start, seeds)
	backoff := time.Millisecond
	const maxBackoff = 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		if cr.runner == nil {
			r, err := sim.NewRunner(opts.Platform, c.prog, opts.Seed)
			if err != nil {
				out := newShardOut(idx, start, count)
				out.attempts, out.err = attempt+1, err
				return out
			}
			cr.runner = r
		}
		src := c.inj.WrapShard(ctx, cr.runner, start, count, attempt)
		began := time.Now()
		c.em.shardStart(obs.StageExecute, cr.lane, attempt, start, count, began)
		out := newShardOut(idx, start, count)
		runShardAttempt(ctx, src, seeds, c.meta, out)
		out.attempts = attempt + 1
		if errors.Is(out.err, errShardPanic) {
			// The panic may have unwound mid-iteration; the simulator's
			// reusable state is suspect.
			cr.runner = nil
		}
		willRetry := out.err != nil && retryable(out.err, ctx) && attempt < opts.ShardRetries
		if out.err != nil && retryable(out.err, ctx) && !willRetry {
			out.err = fmt.Errorf("%w: iterations [%d,%d) after %d attempts: %v",
				ErrShardFailed, start, start+count, attempt+1, out.err)
		}
		retrySleep := time.Duration(0)
		if willRetry {
			retrySleep = backoff
		}
		c.em.execShardEnd(cr.lane, out, began, willRetry, retrySleep)
		if !willRetry {
			return out
		}
		select {
		case <-ctx.Done():
			out.err = ctx.Err()
			return out
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// emitter is the pipeline's nil-safe observer tap. The zero value (nil
// observer) makes every method a single branch, preserving the pipeline's
// allocation budgets; events are flat structs built on the caller's stack.
type emitter struct {
	o obs.Observer
}

func (em emitter) campaignStart(p *Program, platform string, model mcm.Model, iterations, workers int, began time.Time) {
	if em.o == nil {
		return
	}
	threads, ops := 0, 0
	for _, t := range p.Threads {
		threads++
		ops += len(t.Ops)
	}
	em.o.CampaignStart(obs.CampaignStart{
		Program: p.Name, Threads: threads, Ops: ops,
		Platform: platform, Model: model.String(),
		Iterations: iterations, Workers: workers, Time: began,
	})
}

func (em emitter) campaignEnd(r *Report, err error, began time.Time) {
	if em.o == nil {
		return
	}
	now := time.Now()
	em.o.CampaignEnd(obs.CampaignEnd{
		Iterations: r.Iterations, Uniques: r.UniqueSignatures,
		Quarantined: len(r.Quarantined), Violations: len(r.Violations),
		Asserts: len(r.AssertionFailures), Partial: r.Partial(), Err: err,
		Time: now, Duration: now.Sub(began),
	})
}

func (em emitter) shardStart(stage obs.Stage, shard, attempt, start, count int, began time.Time) {
	if em.o == nil {
		return
	}
	em.o.ShardStart(obs.ShardStart{
		Stage: stage, Shard: shard, Attempt: attempt,
		Start: start, Count: count, Time: began,
	})
}

func (em emitter) execShardEnd(shard int, out *shardOut, began time.Time, willRetry bool, backoff time.Duration) {
	if em.o == nil {
		return
	}
	now := time.Now()
	em.o.ShardEnd(obs.ShardEnd{
		Stage: obs.StageExecute, Shard: shard, Attempt: out.attempts - 1,
		Start: out.Start, Count: out.Count,
		Iterations: out.Stats.Iterations, Cycles: out.Stats.Cycles, Squashes: out.Stats.Squashes,
		Uniques: out.set.Len(), Asserts: len(out.Stats.Asserts),
		Err: out.err, WillRetry: willRetry, Backoff: backoff,
		Time: now, Duration: now.Sub(began),
	})
}

// decodeEnd reports the decode pass over the whole sorted set.
func (em emitter) decodeEnd(count, decoded, quarantined int, err error, began time.Time) {
	if em.o == nil {
		return
	}
	now := time.Now()
	em.o.ShardEnd(obs.ShardEnd{
		Stage: obs.StageDecode, Count: count,
		Decoded: decoded, QuarantinedDecode: quarantined,
		Err: err, Time: now, Duration: now.Sub(began),
	})
}

// checkShardFunc adapts the emitter to the sharded dispatch's callback;
// nil when unobserved so the checker skips callback work entirely.
func (em emitter) checkShardFunc(backend string) check.ShardFunc {
	if em.o == nil {
		return nil
	}
	return func(shard, shards, start, count int, part *check.Result, began time.Time, took time.Duration) {
		e := obs.ShardEnd{
			Stage: obs.StageCheck, Shard: shard, Start: start, Count: count,
			Backend: backend, Shards: shards,
			Time: began.Add(took), Duration: took,
		}
		if part != nil {
			e.Graphs = part.Total
			e.Complete, e.NoResort, e.Incremental = part.Counts()
			e.SortedVertices = part.SortedVertices
			e.BackwardEdges = part.BackwardEdges
			e.MaxWindow = part.MaxWindow
			e.ClockUpdates = part.ClockUpdates
			e.Propagations = part.Propagations
			e.Violations = len(part.Violations)
		}
		em.o.ShardEnd(e)
	}
}

func (em emitter) mergeDone(completed, uniques int, injected obs.FaultCounts, final bool) {
	if em.o == nil {
		return
	}
	em.o.MergeDone(obs.MergeDone{
		Completed: completed, Uniques: uniques, Injected: injected,
		Final: final, Time: time.Now(),
	})
}

func (em emitter) checkpointOp(op obs.CheckpointOp, path string, completed, uniques int, bytes int64) {
	if em.o == nil {
		return
	}
	em.o.Checkpoint(obs.Checkpoint{
		Op: op, Path: path, Completed: completed, Uniques: uniques,
		Bytes: bytes, Time: time.Now(),
	})
}

func (em emitter) corpusEvent(e obs.CorpusEvent) {
	if em.o == nil {
		return
	}
	e.Time = time.Now()
	obs.EmitCorpus(em.o, e)
}

// faultCounts flattens the report's injected-fault map into the event
// struct (signature-corruption kinds only, which is all Corrupt reports).
func faultCounts(m map[FaultKind]int) obs.FaultCounts {
	return obs.FaultCounts{
		BitFlip:    m[FaultBitFlip],
		Truncate:   m[FaultTruncate],
		Duplicate:  m[FaultDuplicate],
		OutOfRange: m[FaultOutOfRange],
	}
}

// progHash fingerprints a program for checkpoint and signature-set
// identity (FNV-64a of the canonical text format).
func progHash(p *Program) uint64 {
	h := fnv.New64a()
	io.WriteString(h, prog.Format(p))
	return h.Sum64()
}

// ProgramHash returns the fingerprint used to tie checkpoints and saved
// signature sets to the test program they were collected from.
func ProgramHash(p *Program) uint64 { return progHash(p) }

// shardOut is what one execution chunk attempt produces: the chunk's result —
// its signatures still in the private set that deduplicated them, sorted into
// Uniques only when they leave the process — plus what never crosses a wire.
type shardOut struct {
	ChunkResult
	set      *sig.Set
	attempts int
	err      error
}

// newShardOut returns the empty result of one attempt at a grid chunk.
func newShardOut(idx, start, count int) *shardOut {
	out := new(shardOut)
	out.Chunk, out.Start, out.Count = idx, start, count
	out.set = sig.NewSet()
	return out
}

// retryable classifies a shard error: a recovered panic is a transient
// infra fault worth retrying; anything else — platform crashes (findings),
// encode errors, parent cancellation — is final.
func retryable(err error, parent context.Context) bool {
	return parent.Err() == nil && errors.Is(err, errShardPanic)
}

// runShardAttempt drives one source through the iterations of out's chunk,
// iteration i under seeds[i], filling out, polling the context between
// iterations and converting a panic anywhere below — simulator, encoder, or
// an injected shard fault — into a shard error instead of crashing the
// process. It is deliberately free of observer hooks: events fire at the
// chunk boundary, never inside the per-iteration hot loop.
func runShardAttempt(ctx context.Context, src sim.Source, seeds []int64,
	meta *instrument.Meta, out *shardOut) {
	start, count, stats := out.Start, out.Count, &out.Stats
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("%w at iteration %d: %v", errShardPanic, start+stats.Iterations, r)
		}
	}()
	var sigBuf []uint64 // per-attempt encode scratch, reused every iteration
	for i := 0; i < count; i++ {
		if err := ctx.Err(); err != nil {
			out.err = err
			return
		}
		ex, err := src.RunSeeded(seeds[i])
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// An interrupted stall, not a platform failure.
				out.err = err
				return
			}
			out.err = fmt.Errorf("%w: iteration %d: %v", ErrCrash, start+i, err)
			return
		}
		stats.Iterations++
		stats.Cycles += int64(ex.Cycles)
		stats.Squashes += ex.Squashes
		sigBuf, err = meta.EncodeExecutionInto(sigBuf[:0], ex.LoadValues)
		if err != nil {
			var ae *instrument.AssertionError
			if errors.As(err, &ae) {
				stats.Asserts = append(stats.Asserts, ae.Error())
				continue
			}
			out.err = err
			return
		}
		out.set.AddWords(sigBuf)
	}
}

// decodeItems is the decode stage: one ordered pass on the caller's goroutine
// turns the sorted uniques into the checker's items, and the ones that cannot
// be items into the quarantine list, both in ascending signature order. It
// polls the context as it goes and reports the pass as one StageDecode
// ShardEnd over the whole range.
//
// It validates and does not decode: an item is the signature with meta as its
// row source (check.Item), which the checker decodes as it installs the item,
// a word at a time where sorted neighbours differ. Validation is
// instrument.Meta.Decodable, exactly the signatures DecodeInto accepts; a
// decoded row needs no check against the builder's tables, for every source
// the analysis lists is the initial value or a store to the load's word.
//
// A signature that fails is quarantined with DecodeInto's error; the outcome
// is a pure function of the signature and the metadata. In strict mode the
// first failure is returned instead.
func decodeItems(ctx context.Context, meta *instrument.Meta, uniques []sig.Unique,
	strict bool, em emitter) ([]check.Item, []Quarantined, error) {
	began := time.Now()
	items := make([]check.Item, 0, len(uniques))
	var quarantined []Quarantined
	var rf []int32 // DecodeInto's scratch, for the error of a failure
	var err error
	for _, u := range uniques {
		if err = ctx.Err(); err != nil {
			break
		}
		if meta.Decodable(u.Sig) {
			items = append(items, check.Item{Sig: u.Sig, Row: meta})
			continue
		}
		if rf == nil {
			rf = make([]int32, meta.Prog.NumOps())
		}
		derr := meta.DecodeInto(u.Sig, rf)
		if strict {
			err = derr
			break
		}
		quarantined = append(quarantined, Quarantined{Sig: u.Sig, Count: u.Count, Err: derr})
	}
	em.decodeEnd(len(uniques), len(items), len(quarantined), err, began)
	if err != nil {
		return nil, nil, err
	}
	return items, quarantined, nil
}
