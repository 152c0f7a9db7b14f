package mtracecheck

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"mtracecheck/internal/fault"
	"mtracecheck/internal/obs"
)

// TestMetricsWorkerInvariant pins the observability layer's aggregation
// contract: Metrics.Snapshot().Invariant() — every series the table does not
// mark as effort — must be bit-identical for every Workers value on the same
// campaign configuration, because those series only aggregate quantities the
// pipeline's determinism contract fixes. Effort (shard attempts, boundary
// re-sorts) is deliberately excluded. The Fig. 8 growth curve is sampled at
// chunk-grid merge boundaries, so it is held to the same contract.
func TestMetricsWorkerInvariant(t *testing.T) {
	p := mustGenerate(TestConfig{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 5})
	corpusPath := filepath.Join(t.TempDir(), "corpus.mtc")
	scenarios := []struct {
		name   string
		opts   Options
		corpus bool // every run reads a corpus an earlier campaign grew
	}{
		{name: "clean", opts: Options{Platform: PlatformX86(), Iterations: 150, Seed: 11}},
		{name: "faulted", opts: Options{Platform: PlatformX86(), Iterations: 150, Seed: 11,
			ShardRetries: 3,
			Fault:        FaultConfig{Seed: 3, Rate: fault.Rates{fault.KindBitFlip: 0.2, fault.KindTruncate: 0.1, fault.KindDuplicate: 0.1, fault.KindOutOfRange: 0.05, fault.KindPanic: 0.5}}}},
		{name: "corpus", opts: Options{Platform: PlatformX86(), Iterations: 150, Seed: 11}, corpus: true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			if sc.corpus {
				grow := sc.opts
				grow.Iterations = 50
				runWithCorpus(t, p, corpusPath, grow)
			}
			var base map[string]float64
			var baseCurve []CurvePoint
			for _, workers := range []int{1, 2, 4} {
				opts := sc.opts
				opts.Workers = workers
				path := ""
				if sc.corpus {
					// A private copy: a run appends what it proves.
					path = filepath.Join(t.TempDir(), "corpus.mtc")
					grown, err := os.ReadFile(corpusPath)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, grown, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				report, snap := runWithCorpus(t, p, path, opts)
				if report.Partial() {
					// A shard lost after retries would legitimately break
					// invariance; this configuration must not produce one.
					t.Fatalf("workers %d: partial report", workers)
				}
				got := snap.Invariant()
				if base == nil {
					base, baseCurve = got, snap.Curve
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("workers %d invariant series diverge from workers 1:\n got %v\nwant %v",
						workers, got, base)
				}
				if !reflect.DeepEqual(snap.Curve, baseCurve) {
					t.Errorf("workers %d growth curve diverges from workers 1:\n got %v\nwant %v",
						workers, snap.Curve, baseCurve)
				}
			}
			if got := base["mtracecheck_iterations_total"]; got != 150 {
				t.Errorf("iterations total = %v, want 150", got)
			}
			if len(baseCurve) == 0 {
				t.Error("growth curve never sampled")
			}
			if base["mtracecheck_unique_signatures"] == 0 {
				t.Error("uniques gauge never set")
			}
			if _, ok := base["mtracecheck_shard_attempts_total"]; ok {
				t.Error("an effort series is among the invariant ones")
			}
			if hits := base["mtracecheck_corpus_hits_total"]; sc.corpus == (hits == 0) {
				t.Errorf("corpus hits = %v with corpus attached: %v", hits, sc.corpus)
			}
		})
	}
}

// TestNilObserverZeroAllocs pins the guaranteed-zero-cost no-op path: with
// a nil observer every emitter method must be a single branch, adding no
// allocations to the hot pipeline (the existing AllocsPerRun budgets cover
// the loop itself; this covers the taps).
func TestNilObserverZeroAllocs(t *testing.T) {
	em := emitter{}
	out := newShardOut(0, 0, 10)
	allocs := testing.AllocsPerRun(200, func() {
		em.shardStart(obs.StageExecute, 0, 0, 0, 10, time.Time{})
		em.execShardEnd(0, out, time.Time{}, false, 0)
		em.mergeDone(10, 1, obs.FaultCounts{}, true)
		if em.checkShardFunc("collective") != nil {
			t.Error("nil observer must yield a nil check.ShardFunc")
		}
		em.checkpointOp(obs.CheckpointSaved, "x", 10, 1, 64)
	})
	if allocs != 0 {
		t.Errorf("nil-observer emitter: %.0f allocs/run, want 0", allocs)
	}
}

// TestObserversDoNotPerturbReport pins the non-perturbation contract: a
// campaign observed by all three built-in observers must produce a report
// and signature set bit-identical to an unobserved run — on both ISAs and
// under fault injection.
func TestObserversDoNotPerturbReport(t *testing.T) {
	scenarios := []struct {
		name string
		opts Options
	}{
		{"x86", Options{Platform: PlatformX86(), Iterations: 120, Seed: 9, Workers: 3}},
		{"arm", Options{Platform: PlatformARM(), Iterations: 120, Seed: 9, Workers: 3}},
		{"faulted", Options{Platform: PlatformX86(), Iterations: 120, Seed: 9, Workers: 3,
			ShardRetries: 3,
			Fault:        FaultConfig{Seed: 3, Rate: fault.Rates{fault.KindBitFlip: 0.2, fault.KindTruncate: 0.1, fault.KindPanic: 0.4}}}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			p := mustGenerate(TestConfig{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 5})
			bare, err := RunProgram(p, sc.opts)
			if err != nil {
				t.Fatal(err)
			}
			bareUniques, err := CollectSignatures(p, sc.opts)
			if err != nil {
				t.Fatal(err)
			}

			var traceBuf bytes.Buffer
			trace := NewTraceJSON(&traceBuf)
			opts := sc.opts
			opts.Observer = MultiObserver(NewMetrics(), NewProgress(io.Discard, time.Nanosecond), trace)
			observed, err := RunProgram(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			obsUniques, err := CollectSignatures(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := trace.Close(); err != nil {
				t.Fatal(err)
			}

			if bare.Iterations != observed.Iterations ||
				bare.UniqueSignatures != observed.UniqueSignatures ||
				bare.TotalCycles != observed.TotalCycles ||
				bare.Squashes != observed.Squashes ||
				len(bare.Violations) != len(observed.Violations) ||
				len(bare.Quarantined) != len(observed.Quarantined) ||
				len(bare.AssertionFailures) != len(observed.AssertionFailures) {
				t.Errorf("observed report diverges: bare %+v observed %+v", bare, observed)
			}
			if len(bareUniques) != len(obsUniques) {
				t.Fatalf("observed uniques %d, bare %d", len(obsUniques), len(bareUniques))
			}
			for i, u := range bareUniques {
				if !obsUniques[i].Sig.Equal(u.Sig) || obsUniques[i].Count != u.Count {
					t.Fatalf("unique %d diverges under observation", i)
				}
			}
			// The trace must be valid, Perfetto-loadable JSON.
			var events []map[string]any
			if err := json.Unmarshal(traceBuf.Bytes(), &events); err != nil {
				t.Fatalf("trace output is not valid JSON: %v", err)
			}
			if len(events) == 0 {
				t.Error("trace captured no events")
			}
		})
	}
}

// TestCheckSignaturesObserved: the offline checking path must honor the
// campaign options — the observer sees decode and check events, and the
// verdict matches the integrated pipeline regardless of checker.
func TestCheckSignaturesObserved(t *testing.T) {
	p := mustGenerate(TestConfig{Threads: 4, OpsPerThread: 40, Words: 16, Seed: 5})
	opts := Options{Platform: PlatformX86(), Iterations: 120, Seed: 9}
	uniques, err := CollectSignatures(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, checker := range []string{"collective", "conventional", "incremental", "vectorclock"} {
		m := NewMetrics()
		o := opts
		o.Checker = checker
		o.Observer = m
		report, err := CheckSignatures(p, uniques, o)
		if err != nil {
			t.Fatalf("checker %v: %v", checker, err)
		}
		if len(report.Violations) != 0 {
			t.Errorf("checker %v: clean set flagged", checker)
		}
		series, n := m.Snapshot().Series, float64(len(uniques))
		if series["mtracecheck_campaigns_total"] != 1 || series["mtracecheck_decoded_signatures_total"] != n ||
			series["mtracecheck_graphs_checked_total"] != n {
			t.Errorf("checker %v: series %v do not cover the offline check", checker, series)
		}
	}
}

// decodeTap records the decode stage's ShardEnd events.
type decodeTap struct {
	mu   sync.Mutex
	ends []obs.ShardEnd
}

func (*decodeTap) CampaignStart(obs.CampaignStart) {}
func (*decodeTap) ShardStart(obs.ShardStart)       {}
func (*decodeTap) MergeDone(obs.MergeDone)         {}
func (*decodeTap) Checkpoint(obs.Checkpoint)       {}
func (*decodeTap) CampaignEnd(obs.CampaignEnd)     {}
func (d *decodeTap) ShardEnd(e obs.ShardEnd) {
	if e.Stage == obs.StageDecode {
		d.mu.Lock()
		d.ends = append(d.ends, e)
		d.mu.Unlock()
	}
}

// TestDecodeIsOnePass: whatever Workers says, the decode stage is one
// ordered pass that fires one ShardEnd per campaign, over every unique the
// corpus did not answer, quarantined ones included; and a cancelled context
// stops a host-side check in that pass, before any checking.
func TestDecodeIsOnePass(t *testing.T) {
	p := mustGenerate(TestConfig{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 5})
	opts := Options{Platform: PlatformX86(), Iterations: 150, Seed: 11,
		Fault: FaultConfig{Seed: 3, Rate: fault.Rates{fault.KindBitFlip: 0.2, fault.KindOutOfRange: 0.05}}}
	corpusPath := filepath.Join(t.TempDir(), "corpus.mtc")
	grow := opts
	grow.Iterations = 50
	runWithCorpus(t, p, corpusPath, grow)
	for _, workers := range []int{1, 2, 7} {
		store, err := OpenCorpus(corpusPath)
		if err != nil {
			t.Fatal(err)
		}
		tap := &decodeTap{}
		o := opts
		o.Workers, o.Corpus, o.Observer = workers, store, tap
		report, err := RunProgram(p, o)
		if err != nil {
			t.Fatal(err)
		}
		if report.CorpusHits == 0 || len(report.Quarantined) == 0 {
			t.Fatalf("workers %d: %d corpus hits, %d quarantined; the case needs both",
				workers, report.CorpusHits, len(report.Quarantined))
		}
		if len(tap.ends) != 1 {
			t.Fatalf("workers %d: %d decode events, want 1", workers, len(tap.ends))
		}
		e, want := tap.ends[0], report.UniqueSignatures-report.CorpusHits
		if e.Count != want || e.Decoded+e.QuarantinedDecode != want || e.QuarantinedDecode != len(report.Quarantined) {
			t.Errorf("workers %d: decode event covers %d (%d decoded, %d quarantined), want %d uniques, %d quarantined",
				workers, e.Count, e.Decoded, e.QuarantinedDecode, want, len(report.Quarantined))
		}
	}

	uniques, err := CollectSignatures(p, Options{Platform: PlatformX86(), Iterations: 150, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tap := &decodeTap{}
	c, err := NewCampaign(p, Options{Platform: PlatformX86(), Seed: 11, Workers: 2, Observer: tap})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := c.Check(ctx, uniques)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled check: %v, want context.Canceled", err)
	}
	if len(tap.ends) != 1 || !errors.Is(tap.ends[0].Err, context.Canceled) || report.CheckStats != nil {
		t.Errorf("cancelled check: decode events %+v, check stats %v; want one decode event carrying the cancellation and no checking",
			tap.ends, report.CheckStats)
	}
}

// TestCheckpointEventsObserved: checkpoint saves and a resume must surface
// through the observer with real payload sizes.
func TestCheckpointEventsObserved(t *testing.T) {
	p := mustGenerate(TestConfig{Threads: 2, OpsPerThread: 20, Words: 4, Seed: 1})
	path := t.TempDir() + "/run.ckpt"
	m := NewMetrics()
	opts := Options{Platform: PlatformX86(), Iterations: 256, Seed: 7,
		CheckpointPath: path, CheckpointEvery: 64, Observer: m}
	if _, err := RunProgram(p, opts); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if saves := snap.Series["mtracecheck_checkpoint_saves_total"]; saves != 4 {
		t.Errorf("checkpoint saves = %v, want 4", saves)
	}
	if snap.Series["mtracecheck_checkpoint_bytes_total"] == 0 {
		t.Error("checkpoint bytes not recorded")
	}
	if len(snap.Curve) == 0 {
		t.Error("growth curve not sampled at merge boundaries")
	}

	m2 := NewMetrics()
	opts.Iterations = 384
	opts.Resume = true
	opts.Observer = m2
	if _, err := RunProgram(p, opts); err != nil {
		t.Fatal(err)
	}
	series := m2.Snapshot().Series
	if resumes, n := series["mtracecheck_checkpoint_resumes_total"], series["mtracecheck_resumed_iterations_total"]; resumes != 1 || n != 256 {
		t.Errorf("resume events: resumes %v iterations %v, want 1 and 256", resumes, n)
	}
}
