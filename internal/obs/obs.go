// Package obs is the campaign observability layer: typed events emitted at
// every pipeline stage boundary — execution chunks, the unique-signature
// merge, the decode pass, checking shards, and checkpoints —
// consumed by an Observer. A multi-hour validation campaign (the paper runs 65536
// iterations per test across 21 configurations, §5) is otherwise a black
// box between launch and report; the events make its throughput, fault
// tolerance, and progress operationally visible without perturbing it.
//
// Two contracts govern the layer:
//
//   - Worker invariance. Events mirror the pipeline's determinism contract:
//     aggregating the final (non-retried) events of a campaign yields totals
//     identical for every Workers value. Per-shard quantities (a shard's
//     local unique count, a checking shard's boundary re-sort) are visible
//     individually but only their invariant aggregates are exposed as
//     Metrics totals; genuinely partition-dependent effort (sorted vertices,
//     retry counts) is reported separately as effort accounting.
//
//   - Zero-cost no-op. A nil Observer must add nothing to the pipeline:
//     events fire at stage boundaries — per shard attempt, per merge, per
//     checkpoint — never per iteration, and every emission site is a single
//     nil check. The hot loop's allocation budgets are unchanged whether or
//     not observability is compiled into a campaign.
//
// Three built-in observers cover the common needs: Metrics (atomic
// aggregation with Prometheus text exposition), Progress (rate-limited
// human-readable log lines), and Trace (Chrome trace_event spans viewable
// in Perfetto or chrome://tracing). Multi fans events out to several
// observers at once.
package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Stage identifies the pipeline stage an event belongs to.
type Stage uint8

const (
	// StageExecute is the sharded execution stage (device side).
	StageExecute Stage = iota
	// StageMerge is the unique-signature k-way merge.
	StageMerge
	// StageDecode is the signature-decode stage: one ordered pass over the
	// merged, sorted set at the execution barrier, reported by one ShardEnd
	// (shard 0, the whole range) per campaign and no ShardStart.
	StageDecode
	// StageCheck is the sharded collective-checking stage.
	StageCheck
	// StageCheckpoint is checkpoint persistence and resume.
	StageCheckpoint

	numStages
)

func (s Stage) String() string {
	switch s {
	case StageExecute:
		return "execute"
	case StageMerge:
		return "merge"
	case StageDecode:
		return "decode"
	case StageCheck:
		return "check"
	case StageCheckpoint:
		return "checkpoint"
	}
	return "stage?"
}

// CampaignStart fires once when a campaign begins, before any shard runs.
type CampaignStart struct {
	Program    string // test program name
	Threads    int
	Ops        int // total memory operations
	Platform   string
	Model      string // memory consistency model
	Iterations int    // requested iteration count (0 for host-side check campaigns)
	Workers    int    // resolved pipeline shard count
	Time       time.Time
}

// CampaignEnd fires once when a campaign finishes, successfully or not.
type CampaignEnd struct {
	Iterations  int // covered by the report (executed + resumed)
	Uniques     int
	Quarantined int
	Violations  int
	Asserts     int
	Partial     bool  // execution shards were lost after retries
	Err         error // non-nil when the campaign failed

	// Signature-corpus use (Options.Corpus), zero unless the host side
	// consulted or refused a corpus: the corpus key; whether it was consulted,
	// or why it was refused (the campaign ran cold); the unique set's
	// partition against it (hits skipped decode and checking; misses are
	// Uniques - hits); the newly proven-acyclic signatures appended; and the
	// key's known-good count at campaign end.
	CorpusProgram   uint64
	CorpusPlatform  string
	CorpusMCM       string
	CorpusConsulted bool
	CorpusIgnored   error
	CorpusHits      int
	CorpusMisses    int
	CorpusAppended  int
	CorpusKnown     int

	Time     time.Time
	Duration time.Duration
}

// ShardStart fires when one unit of a parallel stage begins an attempt:
// an execution-chunk attempt or a checking shard's range.
type ShardStart struct {
	Stage Stage
	// Shard is the lane the work runs in. For StageExecute it is the
	// work-stealing worker index — consecutive chunks claimed by the same
	// worker share a lane, so a trace shows each worker's chunk spans
	// overlapping the merge. For check it is the shard index within the
	// stage; the decode pass is shard 0.
	Shard   int
	Attempt int // execution retries; always 0 for decode and check
	// Start and Count describe the contiguous block the attempt owns.
	// StageExecute: global iteration indices of the chunk. StageDecode and
	// StageCheck: indices into the sorted signatures the stage was given.
	Start, Count int
	Time         time.Time
}

// ShardEnd fires when the shard attempt completes. The stage-specific
// counter groups are zero for the other stages; the struct is flat so
// emission never allocates.
type ShardEnd struct {
	Stage        Stage
	Shard        int
	Attempt      int
	Start, Count int

	// Execution-stage counters (final attempts carry the values that reach
	// the report; retried attempts carry the partial progress that was
	// discarded).
	Iterations int
	Cycles     int64
	Squashes   int
	Uniques    int // shard-local unique signatures (aggregate via MergeDone, not by summing)
	Asserts    int

	// Decode-stage counters.
	Decoded           int
	QuarantinedDecode int

	// Check-stage counters. Backend names the checking backend that produced
	// the event, and Shards is the total number of checking shards the stage
	// actually ran — never more than the items, so effort aggregates never
	// imply parallelism that didn't happen. Each
	// backend populates only the effort counters its algorithm has a notion
	// of: the sorting backends fill SortedVertices (and the collective and
	// incremental ones the per-kind graph counts and window fields), the
	// vector-clock backend fills ClockUpdates, and the constraint solver
	// fills Propagations.
	Backend        string
	Shards         int
	Graphs         int
	Complete       int
	NoResort       int
	Incremental    int
	SortedVertices int64
	BackwardEdges  int64
	MaxWindow      int // largest re-sorted window
	ClockUpdates   int64
	Propagations   int64
	Violations     int

	Err       error
	WillRetry bool          // failed execution attempt that will be re-run
	Backoff   time.Duration // sleep before the retry (WillRetry only)
	Time      time.Time
	Duration  time.Duration
}

// FaultCounts tallies injected device-side signature corruption per kind.
// The flat struct (rather than a map) keeps event emission allocation-free.
type FaultCounts struct {
	BitFlip, Truncate, Duplicate, OutOfRange int
}

// Total sums the per-kind counts.
func (f FaultCounts) Total() int {
	return f.BitFlip + f.Truncate + f.Duplicate + f.OutOfRange
}

// MergeDone fires after each unique-signature merge: once per checkpoint
// written during a checkpointed campaign and once at the end of every
// campaign (Final). The (Completed, Uniques) sequence is the paper's Fig. 8
// unique-interleaving growth curve sampled at checkpoint boundaries.
type MergeDone struct {
	Completed int // iterations covered by the merged set
	Uniques   int
	Injected  FaultCounts // non-zero only on the final merge under fault injection
	Final     bool
	Time      time.Time
}

// CheckpointOp distinguishes checkpoint writes from resume reads.
type CheckpointOp uint8

const (
	// CheckpointSaved marks a periodic checkpoint write.
	CheckpointSaved CheckpointOp = iota
	// CheckpointResumed marks a campaign restored from a checkpoint.
	CheckpointResumed
)

func (op CheckpointOp) String() string {
	if op == CheckpointResumed {
		return "resumed"
	}
	return "saved"
}

// Checkpoint fires on every checkpoint write and on resume.
type Checkpoint struct {
	Op        CheckpointOp
	Path      string
	Completed int // iterations the checkpoint covers
	Uniques   int
	Bytes     int64 // encoded size (CheckpointSaved only)
	Time      time.Time
}

// Observer receives pipeline events. Implementations must be safe for
// concurrent use: execution shards and checking shards emit concurrently.
// Observers must not block — a slow observer stalls the shard that emitted
// the event.
//
// Observers are strictly read-only taps: attaching any observer (or any
// combination) leaves every campaign result bit-identical to an unobserved
// run.
type Observer interface {
	CampaignStart(e CampaignStart)
	ShardStart(e ShardStart)
	ShardEnd(e ShardEnd)
	MergeDone(e MergeDone)
	Checkpoint(e Checkpoint)
	CampaignEnd(e CampaignEnd)
}

// Multi fans events out to several observers in argument order; nil
// entries are skipped. Multi of zero or all-nil observers returns nil, so
// the pipeline's nil fast path is preserved.
func Multi(obs ...Observer) Observer {
	kept := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multi(kept)
}

// Attach builds the observer the command-line observability flags ask for: a
// Metrics aggregator written to metricsOut as Prometheus text (empty: none),
// rate-limited progress lines on stderr, a Chrome trace_event file at traceOut
// (empty: none); nil when none is asked for. finish terminates the trace's
// JSON array and writes the metrics; it is idempotent, so a binary can both
// defer it and run it on its fatal path, and the artifacts land even when the
// campaign errors (after a failed Attach it is a no-op). What it cannot write
// it reports on stderr under the binary's name.
func Attach(metricsOut string, progress bool, traceOut string) (o Observer, finish func(), err error) {
	var observers []Observer
	var metrics *Metrics
	if metricsOut != "" {
		metrics = NewMetrics()
		observers = append(observers, metrics)
	}
	if progress {
		observers = append(observers, NewProgress(os.Stderr, 0))
	}
	var trace *Trace
	var traceFile *os.File
	if traceOut != "" {
		if traceFile, err = os.Create(traceOut); err != nil {
			return nil, func() {}, err
		}
		trace = NewTraceJSON(traceFile)
		observers = append(observers, trace)
	}
	complain := func(doing string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %s: %v\n", filepath.Base(os.Args[0]), doing, err)
		}
	}
	done := false
	return Multi(observers...), func() {
		if done {
			return
		}
		done = true
		if trace != nil {
			complain("finishing trace", trace.Close())
			complain("finishing trace", traceFile.Close())
		}
		if metrics != nil {
			f, err := os.Create(metricsOut)
			if err == nil {
				if err = metrics.WritePrometheus(f); err == nil {
					err = f.Close()
				} else {
					f.Close()
				}
			}
			complain("writing metrics", err)
		}
	}, nil
}

type multi []Observer

func (m multi) CampaignStart(e CampaignStart) {
	for _, o := range m {
		o.CampaignStart(e)
	}
}

func (m multi) ShardStart(e ShardStart) {
	for _, o := range m {
		o.ShardStart(e)
	}
}

func (m multi) ShardEnd(e ShardEnd) {
	for _, o := range m {
		o.ShardEnd(e)
	}
}

func (m multi) MergeDone(e MergeDone) {
	for _, o := range m {
		o.MergeDone(e)
	}
}

func (m multi) Checkpoint(e Checkpoint) {
	for _, o := range m {
		o.Checkpoint(e)
	}
}

func (m multi) CampaignEnd(e CampaignEnd) {
	for _, o := range m {
		o.CampaignEnd(e)
	}
}
