package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public function (nothing inside the program is instrumented).
// Start and End are offsets from the recorder's origin; Parent indexes the
// span that caused this one (-1 for a root); Lane separates goroutines so
// that spans in one lane nest properly.
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int
	Lane   int
}

// recorder keeps a workload's spans in memory until the workload ends.
// begin/end serve the harness's own (single-goroutine) replay; add serves
// observer callbacks, which arrive from worker goroutines.
type recorder struct {
	workload string
	origin   time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now()}
}

func (r *recorder) begin(name string, parent int) int {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return now - r.spans[id].Start
}

// add records a finished span from absolute times.
func (r *recorder) add(name string, parent, lane int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Start: start.Sub(r.origin), End: end.Sub(r.origin),
		Parent: parent, Lane: lane,
	})
}

// selfTimes returns, per span name, the summed self time (a span's duration
// minus the part of it its children cover) and the span count, over the
// subtree rooted at root. Children on several lanes may overlap, so cover is
// the union of their intervals, clipped to the parent.
func (r *recorder) selfTimes(root int) (self map[string]time.Duration, count map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self = make(map[string]time.Duration)
	count = make(map[string]int)
	var walk func(i int)
	walk = func(i int) {
		s := r.spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(r.spans[k].Start, edge), min(r.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
			walk(k)
		}
		self[s.Name] += s.End - s.Start - covered
		count[s.Name]++
	}
	walk(root)
	return self, count
}

// traceEvent is one Chrome trace_event "complete" event. args carries the
// span's identity so a reader (and the smoke test) can rebuild the tree.
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	TS   float64   `json:"ts"`  // microseconds
	Dur  float64   `json:"dur"` // microseconds
	PID  int       `json:"pid"`
	TID  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// writeTrace writes the spans as a Chrome trace_event array (opens in
// Perfetto and chrome://tracing).
func (r *recorder) writeTrace(path string) error {
	r.mu.Lock()
	events := make([]traceEvent, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End < 0 {
			continue // abandoned by an error path
		}
		events = append(events, traceEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Lane,
			Args: traceArgs{ID: i, Parent: s.Parent, Workload: r.workload},
		})
	}
	r.mu.Unlock()
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf is the span name up to its first dot: "sim.run" is layer "sim".
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
