package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// feed delivers a small synthetic campaign to an observer: two execution
// shards (one retried attempt), a decode shard, a check shard, a
// checkpoint save, a final merge, and the campaign bookends.
func feed(o Observer) {
	base := time.Unix(1700000000, 0)
	o.CampaignStart(CampaignStart{
		Program: "probe", Threads: 4, Ops: 160, Platform: "sim-x86", Model: "TSO",
		Iterations: 100, Workers: 2, Time: base,
	})
	o.ShardStart(ShardStart{Stage: StageExecute, Shard: 0, Start: 0, Count: 50, Time: base})
	o.ShardEnd(ShardEnd{
		Stage: StageExecute, Shard: 0, Attempt: 0, Start: 0, Count: 50,
		Iterations: 12, Err: errors.New("injected stall"), WillRetry: true,
		Backoff: time.Millisecond, Time: base.Add(time.Millisecond), Duration: time.Millisecond,
	})
	o.ShardEnd(ShardEnd{
		Stage: StageExecute, Shard: 0, Attempt: 1, Start: 0, Count: 50,
		Iterations: 50, Cycles: 5000, Squashes: 3, Uniques: 7,
		Time: base.Add(3 * time.Millisecond), Duration: 2 * time.Millisecond,
	})
	o.ShardEnd(ShardEnd{
		Stage: StageExecute, Shard: 1, Attempt: 0, Start: 50, Count: 50,
		Iterations: 50, Cycles: 4800, Squashes: 1, Uniques: 6, Asserts: 1,
		Time: base.Add(3 * time.Millisecond), Duration: 3 * time.Millisecond,
	})
	o.Checkpoint(Checkpoint{Op: CheckpointSaved, Path: "ckpt.bin", Completed: 100, Uniques: 9, Bytes: 512, Time: base.Add(4 * time.Millisecond)})
	o.MergeDone(MergeDone{Completed: 100, Uniques: 9, Injected: FaultCounts{BitFlip: 2}, Final: true, Time: base.Add(4 * time.Millisecond)})
	o.ShardEnd(ShardEnd{
		Stage: StageDecode, Shard: 0, Start: 0, Count: 9, Decoded: 8,
		QuarantinedDecode: 1, Time: base.Add(5 * time.Millisecond), Duration: time.Millisecond,
	})
	o.ShardEnd(ShardEnd{
		Stage: StageCheck, Shard: 0, Start: 0, Count: 8, Graphs: 8,
		Complete: 1, NoResort: 5, Incremental: 2, SortedVertices: 200,
		BackwardEdges: 14, MaxWindow: 12, Violations: 1,
		Time: base.Add(6 * time.Millisecond), Duration: time.Millisecond,
	})
	o.CampaignEnd(CampaignEnd{
		Iterations: 100, Uniques: 9, Quarantined: 1, Violations: 1, Asserts: 1,
		Time: base.Add(7 * time.Millisecond), Duration: 7 * time.Millisecond,
	})
}

func TestMetricsAggregation(t *testing.T) {
	m := NewMetrics()
	feed(m)
	s := m.Snapshot()
	for name, want := range map[string]float64{
		"mtracecheck_campaigns_total":                            1,
		"mtracecheck_iterations_total":                           100,
		"mtracecheck_cycles_total":                               9800,
		"mtracecheck_squashes_total":                             4,
		"mtracecheck_assertion_failures_total":                   1,
		"mtracecheck_unique_signatures":                          9,
		`mtracecheck_injected_faults_total{kind="bit-flip"}`:     2,
		`mtracecheck_injected_faults_total{kind="truncate"}`:     0,
		`mtracecheck_injected_faults_total{kind="duplicate"}`:    0,
		`mtracecheck_injected_faults_total{kind="out-of-range"}`: 0,
		"mtracecheck_decoded_signatures_total":                   8,
		`mtracecheck_quarantined_total{kind="decode"}`:           1,
		"mtracecheck_graphs_checked_total":                       8,
		"mtracecheck_violations_total":                           1,
		"mtracecheck_checkpoint_saves_total":                     1,
		"mtracecheck_checkpoint_bytes_total":                     512,
		"mtracecheck_shard_attempts_total":                       3,
		"mtracecheck_shard_retries_total":                        1,
		"mtracecheck_retried_iterations_total":                   12,
		"mtracecheck_sorted_vertices_total":                      200,
		"mtracecheck_backward_edges_total":                       14,
		"mtracecheck_max_resort_window":                          12,
		`mtracecheck_graphs_by_kind_total{kind="complete"}`:      1,
		`mtracecheck_graphs_by_kind_total{kind="no-resort"}`:     5,
		`mtracecheck_graphs_by_kind_total{kind="incremental"}`:   2,
		// Wall time includes the retried attempt.
		`mtracecheck_stage_seconds_total{stage="execute"}`: 0.006,
	} {
		if got, ok := s.Series[name]; !ok || got != want {
			t.Errorf("%s = %v (present: %v), want %v", name, got, ok, want)
		}
	}
	if len(s.Curve) != 1 || s.Curve[0] != (CurvePoint{Iterations: 100, Uniques: 9}) {
		t.Errorf("growth curve = %+v", s.Curve)
	}
	if _, ok := s.Invariant()["mtracecheck_shard_attempts_total"]; ok {
		t.Error("an effort series is among the invariant ones")
	}
	if got := s.Invariant()["mtracecheck_iterations_total"]; got != 100 {
		t.Errorf("invariant iterations = %v, want 100", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	m := NewMetrics()
	feed(m)
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"mtracecheck_iterations_total 100",
		"mtracecheck_unique_signatures 9",
		`mtracecheck_injected_faults_total{kind="bit-flip"} 2`,
		`mtracecheck_quarantined_total{kind="decode"} 1`,
		"mtracecheck_graphs_checked_total 8",
		"mtracecheck_shard_retries_total 1",
		`mtracecheck_graphs_by_kind_total{kind="no-resort"} 5`,
		"mtracecheck_max_resort_window 12",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Every non-comment line must be "name value" or "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

func TestProgressOutput(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, time.Nanosecond) // effectively unlimited rate
	feed(p)
	out := buf.String()
	for _, want := range []string{
		"campaign probe: 100 iterations on sim-x86 (TSO), 2 workers",
		"shard 0 attempt 1 failed after 12 iterations",
		"merge: 9 uniques over 100 iterations (2 faults injected)",
		"checkpoint: saved 100 iterations (9 uniques, 512 bytes) to ckpt.bin",
		"campaign done in 7ms: 100 iterations, 9 uniques, 1 quarantined, 1 violations",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q\n%s", want, out)
		}
	}
}

func TestProgressRateLimit(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, time.Hour)
	feed(p)
	// Rate-limited ticks are suppressed; boundary lines still appear.
	if got := strings.Count(buf.String(), "execute: "); got != 1 {
		// Only the never-limited retry line.
		t.Errorf("expected only the retry execute line, got %d:\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), "campaign done") {
		t.Errorf("campaign end line missing:\n%s", buf.String())
	}
}

func TestTraceJSONValid(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTraceJSON(&buf)
	feed(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a valid JSON array: %v\n%s", err, buf.String())
	}
	var spans, metas int
	for _, ev := range events {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			spans++
			if ev["dur"] == nil {
				t.Errorf("complete event without dur: %v", ev)
			}
		case "M":
			metas++
		}
	}
	// 5 shard spans (incl. the retried attempt) + campaign span; 6
	// process_name records.
	if spans != 6 || metas != 6 {
		t.Errorf("spans=%d metas=%d, want 6 and 6", spans, metas)
	}
	// Timestamps are relative to campaign start: first span at >= 0.
	for _, ev := range events {
		if ts, ok := ev["ts"].(float64); ok && ts < 0 {
			t.Errorf("negative relative timestamp: %v", ev)
		}
	}
}

func TestTraceEmptyCampaignCloses(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTraceJSON(&buf)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%q", err, buf.String())
	}
	if len(events) != 0 {
		t.Errorf("expected empty array, got %d events", len(events))
	}
}

func TestMultiNilHandling(t *testing.T) {
	if Multi() != nil {
		t.Error("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) should be nil")
	}
	m := NewMetrics()
	if got := Multi(nil, m, nil); got != Observer(m) {
		t.Error("Multi with one live observer should unwrap it")
	}
	p := NewProgress(new(bytes.Buffer), time.Hour)
	fan := Multi(m, p)
	if fan == nil {
		t.Fatal("Multi(m, p) should not be nil")
	}
	feed(fan)
	if got := m.Snapshot().Series["mtracecheck_iterations_total"]; got != 100 {
		t.Errorf("fan-out did not reach metrics: %v iterations", got)
	}
}

// campaignOnly implements Observer and nothing more.
type campaignOnly struct{}

func (campaignOnly) CampaignStart(CampaignStart) {}
func (campaignOnly) ShardStart(ShardStart)       {}
func (campaignOnly) ShardEnd(ShardEnd)           {}
func (campaignOnly) MergeDone(MergeDone)         {}
func (campaignOnly) Checkpoint(Checkpoint)       {}
func (campaignOnly) CampaignEnd(CampaignEnd)     {}

// TestMultiForwardsDistEvents: a fan-out is a DistObserver whatever its
// members; it hands worker and lease events to each member that implements
// DistObserver and skips each one that does not.
func TestMultiForwardsDistEvents(t *testing.T) {
	m := NewMetrics()
	fan, ok := Multi(campaignOnly{}, m, campaignOnly{}).(DistObserver)
	if !ok {
		t.Fatal("Multi's fan-out is no DistObserver")
	}
	fan.WorkerEvent(WorkerEvent{Op: WorkerJoin, Worker: "w-1"})
	fan.LeaseEvent(LeaseEvent{Op: LeaseGranted, Job: "job-1", Worker: "w-1"})
	fan.LeaseEvent(LeaseEvent{Op: UploadRejected, Job: "job-1", Worker: "w-1"})
	s := m.Snapshot().Series
	for name, want := range map[string]float64{
		"mtracecheck_dist_worker_joins_total":               1,
		"mtracecheck_dist_leases_granted_total":             1,
		"mtracecheck_dist_upload_rejects_total":             1,
		`mtracecheck_dist_worker_strikes{worker="w-1"}`:     1,
		`mtracecheck_dist_worker_quarantined{worker="w-1"}`: 0,
	} {
		if got, ok := s[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StageExecute: "execute", StageMerge: "merge", StageDecode: "decode",
		StageCheck: "check", StageCheckpoint: "checkpoint", numStages: "stage?",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("Stage(%d).String() = %q, want %q", s, s.String(), str)
		}
	}
}

// TestAttach: the flags' observer writes both artifacts at finish, finish may
// run twice (deferred and on a fatal path) without rewriting them, no flag
// means no observer, and a trace file that cannot be created is an error with
// a finish that is still safe to call.
func TestAttach(t *testing.T) {
	dir := t.TempDir()
	metricsOut, traceOut := filepath.Join(dir, "m.prom"), filepath.Join(dir, "t.json")
	o, finish, err := Attach(metricsOut, false, traceOut)
	if err != nil {
		t.Fatal(err)
	}
	feed(o)
	finish()
	prom, err := os.ReadFile(metricsOut)
	if err != nil || !strings.Contains(string(prom), "mtracecheck_campaigns_total 1") {
		t.Errorf("metrics file: %v\n%s", err, prom)
	}
	trace, err := os.ReadFile(traceOut)
	var events []map[string]any
	if err != nil || json.Unmarshal(trace, &events) != nil || len(events) == 0 {
		t.Errorf("trace file is not a JSON array of events: %v\n%s", err, trace)
	}
	if err := os.Remove(metricsOut); err != nil {
		t.Fatal(err)
	}
	finish()
	if _, err := os.Stat(metricsOut); err == nil {
		t.Error("a second finish wrote the metrics again")
	}
	if o, finish, err := Attach("", false, ""); o != nil || err != nil {
		t.Errorf("no flags: observer %v, err %v", o, err)
	} else {
		finish()
	}
	_, finish, err = Attach("", false, filepath.Join(dir, "missing", "t.json"))
	if err == nil {
		t.Error("an uncreatable trace file was accepted")
	}
	finish()
}
