package mtracecheck

import (
	"io"
	"time"

	"mtracecheck/internal/obs"
	"mtracecheck/internal/sig"
)

// Observability facade: internal/obs re-exported so downstream users can
// implement and wire observers without importing internal packages. Attach
// an observer via Options.Observer; it receives typed events from every
// pipeline stage — execution shards, the signature merge, the decode pass,
// checking shards, and checkpoints — under two contracts (see the Observer
// docs): observers never perturb results, and aggregating final events
// yields worker-invariant totals.

type (
	// Observer receives pipeline events; see the interface docs for the
	// concurrency and non-perturbation contracts.
	Observer = obs.Observer
	// Metrics aggregates events into one table of series with Prometheus
	// text exposition; each series is either worker-invariant or
	// partition-dependent effort.
	Metrics = obs.Metrics
	// MetricsSnapshot is a copy of a Metrics aggregator: every series by its
	// exposition name, and Invariant, the worker-invariant ones.
	MetricsSnapshot = obs.Snapshot
	// CurvePoint samples the unique-interleaving growth curve (Fig. 8).
	CurvePoint = obs.CurvePoint
	// Progress logs rate-limited human-readable campaign lines.
	Progress = obs.Progress
	// Trace writes Chrome trace_event spans viewable in Perfetto.
	Trace = obs.Trace

	// CampaignStartEvent fires once when a campaign begins.
	CampaignStartEvent = obs.CampaignStart
	// CampaignEndEvent fires once when a campaign finishes.
	CampaignEndEvent = obs.CampaignEnd
	// ShardStartEvent fires when a stage shard begins an attempt.
	ShardStartEvent = obs.ShardStart
	// ShardEndEvent fires when a stage shard attempt completes.
	ShardEndEvent = obs.ShardEnd
	// MergeDoneEvent fires after each unique-signature merge.
	MergeDoneEvent = obs.MergeDone
	// CheckpointEvent fires on checkpoint writes and resumes.
	CheckpointEvent = obs.Checkpoint
	// CheckpointOp distinguishes checkpoint saves from resumes.
	CheckpointOp = obs.CheckpointOp
	// FaultCounts tallies injected signature corruption per kind.
	FaultCounts = obs.FaultCounts
	// Stage identifies the pipeline stage an event belongs to.
	Stage = obs.Stage
)

// Pipeline stages (see Stage).
const (
	StageExecute    = obs.StageExecute
	StageMerge      = obs.StageMerge
	StageDecode     = obs.StageDecode
	StageCheck      = obs.StageCheck
	StageCheckpoint = obs.StageCheckpoint
)

// Checkpoint operations (see CheckpointOp).
const (
	CheckpointSaved   = obs.CheckpointSaved
	CheckpointResumed = obs.CheckpointResumed
)

// NewMetrics returns an empty metrics aggregator; read it with
// Metrics.Snapshot or Metrics.WritePrometheus after the campaign.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewProgress returns a rate-limited progress logger writing to w, at most
// one throughput line per every (0 selects 500ms).
func NewProgress(w io.Writer, every time.Duration) *Progress {
	return obs.NewProgress(w, every)
}

// NewTraceJSON returns a Chrome trace_event writer emitting to w; call
// Close after the campaign to terminate the JSON array and flush.
func NewTraceJSON(w io.Writer) *Trace { return obs.NewTraceJSON(w) }

// MultiObserver fans events out to several observers in order, skipping
// nil entries; zero or all-nil arguments yield nil, preserving the
// pipeline's zero-cost unobserved path.
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// SignatureMeta is the provenance header of a saved signature set: enough
// to detect checking a stored set against the wrong program, seed, or
// platform. SaveSignatures writes it; LoadSignaturesMeta returns it;
// ValidateSignatureMeta compares it against a campaign configuration.
type SignatureMeta = sig.FileMeta
