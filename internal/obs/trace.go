package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Trace writes pipeline events as a Chrome trace_event JSON array —
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing — so the
// shard/decode/check timeline of a campaign can be inspected visually:
// which execution shards straggled, how long the merge gated decoding, how
// checking shards were balanced.
//
// Each stage renders as one process row (named via process_name metadata)
// with one thread row per shard; shard attempts are complete ("X") spans
// carrying their counters as args, and merges/checkpoints are instant
// events. Timestamps are microseconds relative to the first event.
//
// Close finishes the JSON array; both viewers also accept an unterminated
// array, so a trace cut short by a crash still loads.
type Trace struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	started bool // first event seen: base timestamp fixed, '[' written
	n       int  // events written, for comma placement
	base    time.Time
	err     error
}

// NewTraceJSON returns a trace writer emitting to w. The caller must call
// Close after the campaign to terminate the JSON array and flush.
func NewTraceJSON(w io.Writer) *Trace {
	return &Trace{bw: bufio.NewWriter(w)}
}

// traceEvent is one trace_event entry. Complete events ("X") carry Dur;
// instant ("i") and metadata ("M") events do not.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope
	Args  map[string]any `json:"args,omitempty"`
}

// Stage rows: pid per stage keeps Perfetto grouping stable. Campaign-level
// events live on their own row.
const pidCampaign = 100

func pidFor(s Stage) int { return int(s) + 1 }

func (t *Trace) ts(at time.Time) int64 {
	if at.IsZero() {
		return 0
	}
	return at.Sub(t.base).Microseconds()
}

// write appends one event, lazily opening the array and emitting the
// process-name metadata on the first event. Callers hold t.mu.
func (t *Trace) write(ev traceEvent) {
	if t.err != nil {
		return
	}
	if !t.started {
		t.started = true
		if _, t.err = t.bw.WriteString("[\n"); t.err != nil {
			return
		}
		for _, meta := range []traceEvent{
			{Name: "process_name", Ph: "M", PID: pidCampaign, Args: map[string]any{"name": "campaign"}},
			{Name: "process_name", Ph: "M", PID: pidFor(StageExecute), Args: map[string]any{"name": "execute"}},
			{Name: "process_name", Ph: "M", PID: pidFor(StageMerge), Args: map[string]any{"name": "merge"}},
			{Name: "process_name", Ph: "M", PID: pidFor(StageDecode), Args: map[string]any{"name": "decode"}},
			{Name: "process_name", Ph: "M", PID: pidFor(StageCheck), Args: map[string]any{"name": "check"}},
			{Name: "process_name", Ph: "M", PID: pidFor(StageCheckpoint), Args: map[string]any{"name": "checkpoint"}},
		} {
			if t.err = t.encode(meta); t.err != nil {
				return
			}
		}
	}
	t.err = t.encode(ev)
}

func (t *Trace) encode(ev traceEvent) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if t.n > 0 {
		if _, err := t.bw.WriteString(",\n"); err != nil {
			return err
		}
	}
	t.n++
	_, err = t.bw.Write(b)
	return err
}

// CampaignStart implements Observer.
func (t *Trace) CampaignStart(e CampaignStart) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started {
		t.base = e.Time
	}
	t.write(traceEvent{
		Name: "campaign " + e.Program, Cat: "campaign", Ph: "i",
		TS: t.ts(e.Time), PID: pidCampaign, TID: 1, Scope: "g",
		Args: map[string]any{
			"program": e.Program, "platform": e.Platform, "model": e.Model,
			"iterations": e.Iterations, "workers": e.Workers,
		},
	})
}

// ShardStart implements Observer. Shard spans are written as complete
// events at ShardEnd (which carries the duration); starts need no entry.
func (t *Trace) ShardStart(e ShardStart) {}

// ShardEnd implements Observer.
func (t *Trace) ShardEnd(e ShardEnd) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started {
		t.base = e.Time.Add(-e.Duration)
	}
	name := e.Stage.String()
	args := map[string]any{"start": e.Start, "count": e.Count}
	switch e.Stage {
	case StageExecute:
		args["iterations"] = e.Iterations
		args["cycles"] = e.Cycles
		args["uniques"] = e.Uniques
		if e.Attempt > 0 {
			args["attempt"] = e.Attempt
		}
	case StageDecode:
		args["decoded"] = e.Decoded
		args["quarantined"] = e.QuarantinedDecode
	case StageCheck:
		args["graphs"] = e.Graphs
		args["sorted_vertices"] = e.SortedVertices
		args["backward_edges"] = e.BackwardEdges
		args["violations"] = e.Violations
		if e.Backend != "" {
			args["backend"] = e.Backend
		}
		if e.ClockUpdates > 0 {
			args["clock_updates"] = e.ClockUpdates
		}
		if e.Propagations > 0 {
			args["propagations"] = e.Propagations
		}
	}
	if e.Err != nil {
		args["error"] = e.Err.Error()
		if e.WillRetry {
			name += " (retried)"
		}
	}
	t.write(traceEvent{
		Name: name, Cat: e.Stage.String(), Ph: "X",
		TS: t.ts(e.Time.Add(-e.Duration)), Dur: e.Duration.Microseconds(),
		PID: pidFor(e.Stage), TID: e.Shard + 1, Args: args,
	})
}

// MergeDone implements Observer.
func (t *Trace) MergeDone(e MergeDone) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started {
		t.base = e.Time
	}
	t.write(traceEvent{
		Name: "merge", Cat: "merge", Ph: "i",
		TS: t.ts(e.Time), PID: pidFor(StageMerge), TID: 1, Scope: "p",
		Args: map[string]any{
			"completed": e.Completed, "uniques": e.Uniques,
			"injected_faults": e.Injected.Total(), "final": e.Final,
		},
	})
}

// Checkpoint implements Observer.
func (t *Trace) Checkpoint(e Checkpoint) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started {
		t.base = e.Time
	}
	t.write(traceEvent{
		Name: "checkpoint " + e.Op.String(), Cat: "checkpoint", Ph: "i",
		TS: t.ts(e.Time), PID: pidFor(StageCheckpoint), TID: 1, Scope: "p",
		Args: map[string]any{
			"completed": e.Completed, "uniques": e.Uniques, "bytes": e.Bytes, "path": e.Path,
		},
	})
}

// CampaignEnd implements Observer.
func (t *Trace) CampaignEnd(e CampaignEnd) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started {
		t.base = e.Time.Add(-e.Duration)
	}
	args := map[string]any{
		"iterations": e.Iterations, "uniques": e.Uniques,
		"quarantined": e.Quarantined, "violations": e.Violations,
	}
	if e.Err != nil {
		args["error"] = e.Err.Error()
	}
	t.write(traceEvent{
		Name: "campaign", Cat: "campaign", Ph: "X",
		TS: t.ts(e.Time.Add(-e.Duration)), Dur: e.Duration.Microseconds(),
		PID: pidCampaign, TID: 1, Args: args,
	})
}

// Close terminates the JSON array and flushes buffered events. It reports
// the first write or encoding error encountered over the trace's lifetime.
func (t *Trace) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if !t.started {
		if _, err := t.bw.WriteString("[\n"); err != nil {
			return err
		}
	}
	if _, err := t.bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return t.bw.Flush()
}
