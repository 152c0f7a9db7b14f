package mtracecheck

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mtracecheck/internal/fault"
	"mtracecheck/internal/obs"
	"mtracecheck/internal/sig"
)

// chaosObserver perturbs the streaming scheduler: every execution chunk
// start sleeps a deterministic pseudo-random few milliseconds keyed by
// (salt, chunk start, attempt), scrambling chunk completion order without
// introducing shared mutable state (observers run on worker goroutines, so
// this also exercises the pipeline under -race).
type chaosObserver struct{ salt uint64 }

func (o chaosObserver) delay(start, attempt int) time.Duration {
	h := fnv.New64a()
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], o.salt)
	binary.LittleEndian.PutUint64(b[8:], uint64(start))
	binary.LittleEndian.PutUint64(b[16:], uint64(attempt))
	h.Write(b[:])
	return time.Duration(h.Sum64()%4) * time.Millisecond
}

func (o chaosObserver) CampaignStart(obs.CampaignStart) {}
func (o chaosObserver) ShardStart(e obs.ShardStart) {
	if e.Stage == obs.StageExecute {
		time.Sleep(o.delay(e.Start, e.Attempt))
	}
}
func (o chaosObserver) ShardEnd(obs.ShardEnd)       {}
func (o chaosObserver) MergeDone(obs.MergeDone)     {}
func (o chaosObserver) Checkpoint(obs.Checkpoint)   {}
func (o chaosObserver) CampaignEnd(obs.CampaignEnd) {}

// TestSchedulerDeterminism stresses the work-stealing scheduler: per-chunk
// delays randomize which worker finishes which chunk first, across worker
// counts spanning one-chunk-at-a-time to more workers than chunks. Reports
// and saved signature files must stay bit-identical, because the reorder
// buffer absorbs chunks in chunk order no matter the completion schedule.
func TestSchedulerDeterminism(t *testing.T) {
	p := mustGenerate(TestConfig{Threads: 4, OpsPerThread: 40, Words: 8, Seed: 5})
	scenarios := []struct {
		name string
		opts Options
	}{
		{"clean", Options{Platform: PlatformX86(), Iterations: 300, Seed: 11}},
		{"faulted", Options{Platform: PlatformX86(), Iterations: 300, Seed: 11,
			ShardRetries: 3,
			Fault:        FaultConfig{Seed: 3, Rate: fault.Rates{fault.KindBitFlip: 0.2, fault.KindTruncate: 0.1, fault.KindPanic: 0.5}}}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			type result struct {
				report *Report
				sigs   []byte
			}
			results := map[int]result{}
			for salt, workers := range map[int]int{0: 1, 1: 2, 2: 3, 3: 8} {
				opts := sc.opts
				opts.Workers = workers
				opts.Observer = chaosObserver{salt: uint64(salt)}
				report, err := RunProgram(p, opts)
				if err != nil {
					t.Fatalf("workers %d: %v", workers, err)
				}
				uniques, err := CollectSignatures(p, opts)
				if err != nil {
					t.Fatalf("workers %d: collect: %v", workers, err)
				}
				var buf bytes.Buffer
				if err := SaveSignatures(&buf, report, uniques); err != nil {
					t.Fatalf("workers %d: save: %v", workers, err)
				}
				results[workers] = result{report: report, sigs: buf.Bytes()}
			}
			base := results[1]
			for _, workers := range []int{2, 3, 8} {
				got := results[workers]
				if got.report.Iterations != base.report.Iterations ||
					got.report.TotalCycles != base.report.TotalCycles ||
					got.report.Squashes != base.report.Squashes ||
					got.report.UniqueSignatures != base.report.UniqueSignatures ||
					len(got.report.Violations) != len(base.report.Violations) ||
					len(got.report.Quarantined) != len(base.report.Quarantined) ||
					len(got.report.AssertionFailures) != len(base.report.AssertionFailures) ||
					len(got.report.ShardFailures) != len(base.report.ShardFailures) {
					t.Errorf("workers %d: report diverges from workers 1", workers)
				}
				if !bytes.Equal(got.sigs, base.sigs) {
					t.Errorf("workers %d: signature file is not bit-identical to workers 1", workers)
				}
			}
		})
	}
}

// TestLegacyCheckpointResume: a checkpoint in the layout the pre-grid
// pipeline wrote — MTCCKPT1, a contiguous prefix of the iteration sequence
// with neither chunk grid nor checksum — is refused by name. It is never
// parsed into a resume: the report restores and executes nothing.
func TestLegacyCheckpointResume(t *testing.T) {
	p := mustGenerate(TestConfig{Threads: 2, OpsPerThread: 20, Words: 4, Seed: 1})
	plat := PlatformX86()
	const resumeAt, total = 60, 120

	prefix, err := CollectSignatures(p, Options{Platform: plat, Iterations: resumeAt, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	legacy := []byte("MTCCKPT1")
	legacy = binary.LittleEndian.AppendUint64(legacy, 7)
	legacy = binary.LittleEndian.AppendUint64(legacy, progHash(p))
	legacy = binary.LittleEndian.AppendUint32(legacy, resumeAt)
	var payload bytes.Buffer
	if err := sig.WriteSet(&payload, prefix); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.ckpt")
	if err := os.WriteFile(path, append(legacy, payload.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}

	report, err := RunProgram(p, Options{Platform: plat, Iterations: total, Seed: 7, Workers: 3,
		CheckpointPath: path, CheckpointEvery: 30, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "old MTCCKPT1 layout") {
		t.Fatalf("resume from a prefix-only MTCCKPT1 file: %v, want the old-layout refusal", err)
	}
	if report.ResumedIterations != 0 || report.Iterations != 0 || report.UniqueSignatures != 0 {
		t.Errorf("refused checkpoint still reached the report: %d resumed, %d iterations, %d uniques",
			report.ResumedIterations, report.Iterations, report.UniqueSignatures)
	}
}
