package experiments

import (
	"flag"
	"os"
	"strings"
	"sync"
	"testing"

	"mtracecheck/internal/experiments/report"
	"mtracecheck/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_tables.golden from the current code")

// wallClock names, per table (by title prefix), the columns that hold host
// wall time; the golden blanks them. Everything else an experiment prints is
// a pure function of Quick().
var wallClock = map[string][]string{
	"Fig. 9:":  {"conventional (ms)", "collective (ms)", "normalized", "PK (ms)", "VC (ms)"},
	"Fig. 10:": {"sig sorting (ms)"},
}

func blankWallClock(t *report.Table) {
	for prefix, cols := range wallClock {
		if !strings.HasPrefix(t.Title, prefix) {
			continue
		}
		for ci, h := range t.Header {
			for _, c := range cols {
				if h != c {
					continue
				}
				for _, row := range t.Rows {
					row[ci] = "~"
				}
			}
		}
	}
}

// quickTables renders every experiment mtc-experiments -exp all prints, in
// its order, at Quick() scale.
func quickTables(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, e := range All {
		tables, err := e.Run(Quick())
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range tables {
			blankWallClock(tbl)
			if err := tbl.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sb.String()
}

// TestQuickTablesGolden pins every deterministic cell of every table the
// harness prints: a change to how experiments reach the pipeline must leave
// the numbers EXPERIMENTS.md is built from byte-identical.
func TestQuickTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const path = "testdata/quick_tables.golden"
	got := quickTables(t)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("tables differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("tables differ from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// campaignRecorder counts the campaign brackets and execute-stage iterations
// an experiment's collections emit.
type campaignRecorder struct {
	mu                   sync.Mutex
	starts, ends, iters  int
	startIters, endIters []int
}

func (r *campaignRecorder) CampaignStart(e obs.CampaignStart) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts++
	r.startIters = append(r.startIters, e.Iterations)
}

func (r *campaignRecorder) CampaignEnd(e obs.CampaignEnd) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends++
	r.endIters = append(r.endIters, e.Iterations)
}

func (r *campaignRecorder) ShardEnd(e obs.ShardEnd) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.Stage == obs.StageExecute && !e.WillRetry {
		r.iters += e.Iterations
	}
}

func (*campaignRecorder) ShardStart(obs.ShardStart) {}
func (*campaignRecorder) MergeDone(obs.MergeDone)   {}
func (*campaignRecorder) Checkpoint(obs.Checkpoint) {}

// TestCollectionIsOneCampaign: each collection an experiment performs is one
// observable campaign — one start/end pair announcing and covering the
// requested iterations, with exactly that many execute-stage iterations in
// between. Bias performs six collections.
func TestCollectionIsOneCampaign(t *testing.T) {
	cfg := Quick()
	cfg.Iterations = 80 // not a multiple of the pipeline's chunk size
	rec := &campaignRecorder{}
	cfg.Observer = rec
	if _, err := Bias(cfg); err != nil {
		t.Fatal(err)
	}
	const collections = 6
	if rec.starts != collections || rec.ends != collections {
		t.Errorf("%d campaign starts, %d ends; want %d of each", rec.starts, rec.ends, collections)
	}
	if rec.iters != collections*cfg.Iterations {
		t.Errorf("%d execute-stage iterations, want %d", rec.iters, collections*cfg.Iterations)
	}
	for i := range rec.startIters {
		if rec.startIters[i] != cfg.Iterations || rec.endIters[i] != cfg.Iterations {
			t.Errorf("campaign %d announced %d and reported %d iterations, want %d",
				i, rec.startIters[i], rec.endIters[i], cfg.Iterations)
		}
	}
}
