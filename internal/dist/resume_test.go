package dist

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mtracecheck"
	"mtracecheck/internal/fault"
	"mtracecheck/internal/obs"
	"mtracecheck/internal/testgen"
)

// onSave is an observer that sees checkpoint saves only.
type onSave func(obs.Checkpoint)

func (onSave) CampaignStart(obs.CampaignStart) {}
func (onSave) ShardStart(obs.ShardStart)       {}
func (onSave) ShardEnd(obs.ShardEnd)           {}
func (onSave) MergeDone(obs.MergeDone)         {}
func (onSave) CampaignEnd(obs.CampaignEnd)     {}
func (f onSave) Checkpoint(e obs.Checkpoint) {
	if e.Op == obs.CheckpointSaved {
		f(e)
	}
}

// stopAtSecondSave returns an observer that calls stop when the second
// checkpoint has been written. Both doors emit the event from the one
// goroutine (or under the one lock) that writes checkpoints.
func stopAtSecondSave(stop func()) onSave {
	saves := 0
	return func(obs.Checkpoint) {
		if saves++; saves == 2 {
			stop()
		}
	}
}

// TestResumeAcrossDoors: there is one grid, one checkpoint and one Restore, so
// a campaign interrupted behind either door — the in-process scheduler or the
// dist server — resumes through either, and the report is the uninterrupted
// run's: accounting (cycles, squashes, assertion failures), findings,
// quarantine, and the signature file byte for byte. The interruption is a
// cancellation after the second checkpoint of a five-chunk campaign, not a
// shorter first campaign.
func TestResumeAcrossDoors(t *testing.T) {
	// One executor at a time on the interrupted leg: at the second save at
	// most two further chunks are in flight or queued, so the fifth is never
	// executed and the resume has work left.
	interruptLocal := func(t *testing.T, spec JobSpec) {
		p, opts, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts.Workers, opts.Observer = 1, stopAtSecondSave(cancel)
		c, err := mtracecheck.NewCampaign(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted in-process leg: %v, want context.Canceled", err)
		}
	}
	interruptDist := func(t *testing.T, spec JobSpec) {
		ctx, kill := context.WithCancel(context.Background())
		defer kill()
		srv, url := startServer(t, ServerOptions{LeaseTTL: 20 * time.Second, Observer: stopAtSecondSave(kill)})
		if _, err := srv.Submit(spec); err != nil {
			t.Fatal(err)
		}
		w := &Worker{Server: url, ID: "victim", Poll: time.Millisecond}
		if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted dist leg: worker returned %v, want context.Canceled", err)
		}
		srv.Close()
	}
	resumeLocal := func(t *testing.T, spec JobSpec) *mtracecheck.Report {
		p, opts, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers, opts.Resume = 3, true
		report, err := mtracecheck.RunProgram(p, opts)
		if err != nil {
			t.Fatalf("in-process resume: %v", err)
		}
		return report
	}
	resumeDist := func(t *testing.T, spec JobSpec) *mtracecheck.Report {
		srv, url := startServer(t, ServerOptions{})
		spec.Resume = true
		id, err := srv.Submit(spec)
		if err != nil {
			t.Fatalf("dist resume: %v", err)
		}
		runWorkers(t, url, 2, nil)
		report, err := srv.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("dist resume: %v", err)
		}
		return report
	}
	legs := []struct {
		name      string
		interrupt func(*testing.T, JobSpec)
		resume    func(*testing.T, JobSpec) *mtracecheck.Report
	}{
		{"in-process to in-process", interruptLocal, resumeLocal},
		{"in-process to dist", interruptLocal, resumeDist},
		{"dist to in-process", interruptDist, resumeLocal},
	}
	for name, fc := range map[string]fault.Config{
		"clean":     {},
		"corrupted": {Seed: 11, Rate: fault.Rates{fault.KindBitFlip: 0.05, fault.KindOutOfRange: 0.03}},
	} {
		spec := JobSpec{
			Test:       &testgen.Config{Threads: 3, OpsPerThread: 30, Words: 8, Seed: 1},
			Iterations: 5 * mtracecheck.ChunkSize, Seed: 6, Fault: fc,
		}
		ref, refU := reference(t, spec)
		if (len(ref.Quarantined) > 0) != fc.Enabled() {
			t.Fatalf("%s: reference quarantines %d signatures", name, len(ref.Quarantined))
		}
		for _, leg := range legs {
			t.Run(name+"/"+leg.name, func(t *testing.T) {
				spec := spec
				spec.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
				spec.CheckpointEvery = 1 // rounded up to one chunk, behind either door
				leg.interrupt(t, spec)
				got := leg.resume(t, spec)
				if got.ResumedIterations < 2*mtracecheck.ChunkSize || got.ResumedIterations >= spec.Iterations {
					t.Errorf("resume restored %d of %d iterations, want at least two chunks and not all",
						got.ResumedIterations, spec.Iterations)
				}
				requireIdentical(t, ref, refU, got, got.Signatures())
			})
		}
	}
}

// TestCheckpointPolicyAtEachDoor: the merger reads and writes every
// checkpoint, and each door keeps only its policy for a file that cannot be
// read or written. A job that resumes from a checkpoint not yet on disk is a
// fresh start on the server: every chunk runs (in-process it is an error,
// TestResumeValidation). A checkpoint that cannot be written fails the
// in-process campaign, and is logged by the server, whose job still finishes
// with the in-process report.
func TestCheckpointPolicyAtEachDoor(t *testing.T) {
	spec := testSpec()
	ref, refU := reference(t, spec)
	distRun := func(t *testing.T, spec JobSpec) (*mtracecheck.Report, []string) {
		var mu sync.Mutex
		var logs []string
		srv, url := startServer(t, ServerOptions{Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		}})
		id, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		runWorkers(t, url, 2, nil)
		report, err := srv.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return report, logs
	}
	t.Run("resume without a checkpoint", func(t *testing.T) {
		spec := spec
		spec.CheckpointPath, spec.Resume = filepath.Join(t.TempDir(), "none.ckpt"), true
		got, _ := distRun(t, spec)
		if got.ResumedIterations != 0 {
			t.Errorf("resumed %d iterations from a checkpoint that does not exist", got.ResumedIterations)
		}
		requireIdentical(t, ref, refU, got, got.Signatures())
	})
	t.Run("unwritable checkpoint", func(t *testing.T) {
		spec := spec
		spec.CheckpointPath = filepath.Join(t.TempDir(), "no-such-dir", "c.ckpt")
		p, opts, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mtracecheck.RunProgram(p, opts); err == nil || !strings.HasPrefix(err.Error(), "mtracecheck: checkpoint:") {
			t.Errorf("in-process campaign with an unwritable checkpoint: %v, want a mtracecheck: checkpoint: error", err)
		}
		got, logs := distRun(t, spec)
		requireIdentical(t, ref, refU, got, got.Signatures())
		if !strings.Contains(strings.Join(logs, "\n"), "mtracecheck: checkpoint:") {
			t.Errorf("the server did not log its failed checkpoint writes:\n%s", strings.Join(logs, "\n"))
		}
	})
}
