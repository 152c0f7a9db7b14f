package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress is a rate-limited human-readable campaign logger: one line per
// interesting boundary (campaign start/end, retries, checkpoints, the
// final merge) and at most one throughput line per Every interval while a
// stage is streaming shard completions. It is meant for a terminal or a
// log file during a multi-hour campaign, not for machine consumption — use
// Metrics for that.
type Progress struct {
	mu    sync.Mutex
	w     io.Writer
	every time.Duration
	last  time.Time

	// The running campaign, reset at CampaignStart: the requested iterations
	// and the fold of its events — Metrics' fold, so a line's numbers are the
	// exposition's and which attempts count is decided there.
	target int
	fold   *Metrics
}

// NewProgress returns a progress logger writing to w, emitting rate-limited
// lines at most once per every (0 selects 500ms).
func NewProgress(w io.Writer, every time.Duration) *Progress {
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	return &Progress{w: w, every: every, fold: NewMetrics()}
}

// logf always prints; tickf prints only when the rate limiter allows.
// Callers hold p.mu.
func (p *Progress) logf(format string, args ...any) {
	fmt.Fprintf(p.w, "obs: "+format+"\n", args...)
	p.last = time.Now()
}

func (p *Progress) tickf(format string, args ...any) {
	if time.Since(p.last) < p.every {
		return
	}
	p.logf(format, args...)
}

// CampaignStart implements Observer.
func (p *Progress) CampaignStart(e CampaignStart) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.target, p.fold = e.Iterations, NewMetrics()
	if e.Iterations == 0 {
		p.logf("campaign %s: host-side check on %s (%s), %d workers",
			e.Program, e.Platform, e.Model, e.Workers)
		return
	}
	p.logf("campaign %s: %d iterations on %s (%s), %d workers",
		e.Program, e.Iterations, e.Platform, e.Model, e.Workers)
}

// ShardStart implements Observer.
func (p *Progress) ShardStart(e ShardStart) {}

// ShardEnd implements Observer.
func (p *Progress) ShardEnd(e ShardEnd) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fold.ShardEnd(e)
	n := p.fold.get
	switch e.Stage {
	case StageExecute:
		if e.WillRetry {
			// Operational signal, never rate-limited: the campaign is
			// degrading and recovering in real time.
			p.logf("execute: shard %d attempt %d failed after %d iterations (%v); retrying in %v",
				e.Shard, e.Attempt+1, e.Iterations, e.Err, e.Backoff)
			return
		}
		if done := n(sIterations) + n(sResumedIters); p.target > 0 {
			p.tickf("execute: %d/%d iterations (%.1f%%)", done, p.target, 100*float64(done)/float64(p.target))
		}
	case StageDecode:
		p.tickf("decode: %d/%d signatures, %d quarantined", n(sDecoded), n(sUniques), n(sQuarDecode))
	case StageCheck:
		p.tickf("check: %d graphs, %d violations", n(sGraphs), n(sViolations))
	}
}

// MergeDone implements Observer.
func (p *Progress) MergeDone(e MergeDone) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e.Final {
		p.fold.MergeDone(e) // the uniques a decode line counts against; no curve is kept
		if n := e.Injected.Total(); n > 0 {
			p.logf("merge: %d uniques over %d iterations (%d faults injected)",
				e.Uniques, e.Completed, n)
			return
		}
		p.logf("merge: %d uniques over %d iterations", e.Uniques, e.Completed)
		return
	}
	p.tickf("merge: %d uniques over %d iterations", e.Uniques, e.Completed)
}

// Checkpoint implements Observer.
func (p *Progress) Checkpoint(e Checkpoint) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fold.Checkpoint(e)
	if e.Op == CheckpointResumed {
		p.logf("checkpoint: resumed %d iterations (%d uniques) from %s", e.Completed, e.Uniques, e.Path)
		return
	}
	p.logf("checkpoint: saved %d iterations (%d uniques, %d bytes) to %s",
		e.Completed, e.Uniques, e.Bytes, e.Path)
}

// WorkerEvent implements DistObserver: worker-lifecycle transitions are
// operational signals and never rate-limited.
func (p *Progress) WorkerEvent(e WorkerEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e.Op {
	case WorkerJoin:
		p.logf("dist: worker %s joined", e.Worker)
	case WorkerLost:
		p.logf("dist: worker %s lost (%d leases returned to the queue)", e.Worker, e.Leases)
	case WorkerQuarantined:
		p.logf("dist: worker %s QUARANTINED after %d rejected uploads (%d leases revoked)",
			e.Worker, e.Strikes, e.Leases)
	}
}

// LeaseEvent implements DistObserver: grants are rate-limited chatter,
// failures (expiry, redispatch, rejects) always print.
func (p *Progress) LeaseEvent(e LeaseEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e.Op {
	case LeaseGranted:
		p.tickf("dist: chunk %d of %s leased to %s (attempt %d)", e.Chunk, e.Job, e.Worker, e.Attempt)
	case LeaseExpired:
		p.logf("dist: chunk %d of %s lease expired on %s", e.Chunk, e.Job, e.Worker)
	case ChunkRedispatched:
		p.logf("dist: chunk %d of %s redispatched to %s (attempt %d)", e.Chunk, e.Job, e.Worker, e.Attempt)
	case ChunkDuplicate:
		p.logf("dist: chunk %d of %s duplicate completion from %s discarded", e.Chunk, e.Job, e.Worker)
	case UploadRejected:
		p.logf("dist: chunk %d of %s upload from %s REJECTED", e.Chunk, e.Job, e.Worker)
	}
}

// CampaignEnd implements Observer.
func (p *Progress) CampaignEnd(e CampaignEnd) {
	p.mu.Lock()
	defer p.mu.Unlock()
	status := "done"
	switch {
	case e.Err != nil:
		status = fmt.Sprintf("failed (%v)", e.Err)
	case e.Partial:
		status = "done (partial)"
	}
	p.logf("campaign %s in %v: %d iterations, %d uniques, %d quarantined, %d violations",
		status, e.Duration.Round(time.Millisecond), e.Iterations, e.Uniques, e.Quarantined, e.Violations)
}
