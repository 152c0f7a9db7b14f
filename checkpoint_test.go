package mtracecheck

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtracecheck/internal/fault"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/obs"
	"mtracecheck/internal/sig"
)

// checkpointTap is an observer that sees only checkpoint events, on the
// campaign goroutine, right after the file they announce has been renamed
// into place.
type checkpointTap func(obs.Checkpoint)

func (checkpointTap) CampaignStart(obs.CampaignStart) {}
func (checkpointTap) ShardStart(obs.ShardStart)       {}
func (checkpointTap) ShardEnd(obs.ShardEnd)           {}
func (checkpointTap) MergeDone(obs.MergeDone)         {}
func (checkpointTap) CampaignEnd(obs.CampaignEnd)     {}
func (f checkpointTap) Checkpoint(e obs.Checkpoint)   { f(e) }

// TestCheckpointCadenceInvariance: CheckpointEvery and Workers decide when a
// checkpoint is written and nothing else. The chunk grid — and with it which
// iterations an injected shard panic costs — is the same for every cadence,
// so the degraded report and the saved signatures are, and two runs that
// checkpoint at the same frontier write the same bytes.
func TestCheckpointCadenceInvariance(t *testing.T) {
	p, err := NewProgramBuilderFromConfig(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		failures string
		iters    int
		sigs     []byte
		saved    map[int][]byte // checkpoint bytes by iterations covered
	}
	var base *outcome
	var baseName string
	for _, every := range []int{0, 1, 64, 100} {
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("every %d workers %d", every, workers)
			path := filepath.Join(t.TempDir(), "c.ckpt")
			got := &outcome{saved: map[int][]byte{}}
			report, err := RunProgram(p, Options{
				Iterations: 300, Seed: 3, Workers: workers,
				Fault:          FaultConfig{Seed: 11, Rate: fault.Rates{fault.KindPanic: 0.3}}, // panics in chunk 3 of 5
				CheckpointPath: path, CheckpointEvery: every,
				Observer: checkpointTap(func(e obs.Checkpoint) {
					data, err := os.ReadFile(path)
					if err != nil {
						t.Errorf("%s: %v", name, err)
					}
					got.saved[e.Completed] = data
				}),
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, f := range report.ShardFailures {
				got.failures += fmt.Sprintf("[%d,%d) executed %d in %d attempts: %v\n",
					f.Start, f.Start+f.Count, f.Executed, f.Attempts, f.Err)
			}
			got.iters, got.sigs = report.Iterations, signatureFile(t, report, report.Signatures())
			// One save per whole cadence, none after the lost chunk.
			want := []int{64, 128, 192}
			if every == 100 {
				want = []int{128}
			}
			if len(got.saved) != len(want) {
				t.Errorf("%s: %d checkpoints, want them at %v", name, len(got.saved), want)
			}
			for _, at := range want {
				if got.saved[at] == nil {
					t.Errorf("%s: no checkpoint at %d iterations", name, at)
				}
			}
			if base == nil {
				if got.failures == "" {
					t.Fatal("the fault plan lost no chunk; the test needs one lost after the first checkpoints")
				}
				base, baseName = got, name
				continue
			}
			if got.failures != base.failures || got.iters != base.iters {
				t.Errorf("%s: %d iterations, lost\n%sbut %s: %d iterations, lost\n%s",
					name, got.iters, got.failures, baseName, base.iters, base.failures)
			}
			if !bytes.Equal(got.sigs, base.sigs) {
				t.Errorf("%s: signature file differs from %s", name, baseName)
			}
			for at, data := range got.saved {
				if other := base.saved[at]; other != nil && !bytes.Equal(data, other) {
					t.Errorf("%s: checkpoint at %d iterations differs from %s's", name, at, baseName)
				}
			}
		}
	}
}

// TestCheckpointBitFlipRefused: a checkpoint ends in a checksum of everything
// before it, verified before anything is believed. Whichever single bit of a
// saved checkpoint flips, the resume fails with a checksum error and restores
// nothing — never a different report.
func TestCheckpointBitFlipRefused(t *testing.T) {
	p, err := NewProgramBuilderFromConfig(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.ckpt")
	opts := Options{Iterations: 128, Seed: 6, CheckpointPath: path}
	if _, err := RunProgram(p, opts); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	opts.Iterations, opts.Resume = 256, true
	opts.CheckpointPath = filepath.Join(t.TempDir(), "flipped.ckpt")
	const samples = 72
	for k := 0; k < samples; k++ {
		// Spread over the whole file, magic and checksum included, visiting
		// every bit position within a byte.
		bit := k*(8*len(saved)-1)/(samples-1)/8*8 + k%8
		flipped := append([]byte(nil), saved...)
		flipped[bit/8] ^= 1 << (bit % 8)
		if err := os.WriteFile(opts.CheckpointPath, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		report, err := RunProgram(p, opts)
		if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("bit %d of %d flipped: resume returned %v, want a checksum mismatch", bit, 8*len(saved), err)
		}
		if report.Iterations != 0 || report.UniqueSignatures != 0 {
			t.Fatalf("bit %d flipped: the refused checkpoint still reached the report (%d iterations, %d uniques)",
				bit, report.Iterations, report.UniqueSignatures)
		}
	}
}

// TestResumeFitsTheGrid: Restore accepts a checkpoint whose done chunks are
// whole chunks of the resuming campaign's grid, and nothing else. A finished
// 150-iteration campaign cannot be extended (its last chunk is 22 iterations
// already merged into the set), a longer checkpoint cannot be cut short, and a
// refusal leaves the merger empty; 128 → 256 works
// (TestCheckpointResumeFidelity).
func TestResumeFitsTheGrid(t *testing.T) {
	p, err := NewProgramBuilderFromConfig(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if _, err := RunProgram(p, Options{Iterations: 150, Seed: 6, CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := sig.ReadCheckpoint(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Completed() != 150 {
		t.Fatalf("checkpoint covers %d iterations, want 150", ck.Completed())
	}
	for _, tc := range []struct {
		iters int
		want  []string
	}{
		{300, []string{"stops at iteration 150", "multiple of ChunkSize (64)"}},
		{100, []string{"campaign requests only 100"}},
		{64, []string{"campaign requests only 64"}},
	} {
		opts := Options{Iterations: tc.iters, Seed: 6, CheckpointPath: path, Resume: true}
		c, err := NewCampaign(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.NewChunkMerger()
		if err != nil {
			t.Fatal(err)
		}
		err = m.Restore(ck)
		for _, want := range tc.want {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("150-iteration checkpoint into %d iterations: %v, want an error saying %q", tc.iters, err, want)
			}
		}
		if n := len(m.Checkpoint().Uniques); m.Done() != 0 || n != 0 {
			t.Errorf("refused Restore into %d iterations left %d chunks and %d signatures in the merger", tc.iters, m.Done(), n)
		}
		// Options.Resume is the same gate.
		report, runErr := c.Run(context.Background())
		if runErr == nil || err == nil || runErr.Error() != err.Error() {
			t.Errorf("Run with Resume at %d iterations: %v, want Restore's %v", tc.iters, runErr, err)
		}
		if report.ResumedIterations != 0 || report.Iterations != 0 {
			t.Errorf("refused resume at %d iterations: report has %d resumed, %d iterations", tc.iters, report.ResumedIterations, report.Iterations)
		}
	}
}

// TestCheckpointGoldenBytes pins MTCCKPT2 across changes to the codec, not
// just within one: internal/sig/testdata/ckpt2.golden is the final checkpoint
// of a 192-iteration, 4-thread campaign with an assertion failure, in its
// first chunk, in the layout written before the stats block became the chunk
// upload's. The
// campaign must still write those bytes, through either door, and the file
// must survive ReadCheckpoint → Restore → Checkpoint → WriteCheckpoint.
func TestCheckpointGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("internal", "sig", "testdata", "ckpt2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	p := mustGenerate(TestConfig{Threads: 4, OpsPerThread: 30, Words: 4, Seed: 4})
	path := filepath.Join(t.TempDir(), "c.ckpt")
	opts := Options{Iterations: 192, Seed: 7, Pruner: instrument.SkewPruner(p, 22), CheckpointPath: path}
	if _, err := RunProgram(p, opts); err != nil {
		t.Fatal(err)
	}
	if written, err := os.ReadFile(path); err != nil || !bytes.Equal(written, golden) {
		t.Errorf("the in-process campaign's final checkpoint differs from the golden file (%d bytes, %d golden, err %v)",
			len(written), len(golden), err)
	}
	encode := func(m *ChunkMerger) []byte {
		var buf bytes.Buffer
		if err := sig.WriteCheckpoint(&buf, m.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	c, err := NewCampaign(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	absorbed, err := c.NewChunkMerger()
	if err != nil {
		t.Fatal(err)
	}
	results := chunkResults(t, c)
	for idx := len(results) - 1; idx >= 0; idx-- {
		if _, err := absorbed.Absorb(results[idx]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(encode(absorbed), golden) {
		t.Error("the chunk API's checkpoint differs from the golden file")
	}
	ck, err := sig.ReadCheckpoint(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ck.Chunks[0].Asserts); len(ck.Chunks) != 3 || n != 1 {
		t.Fatalf("golden checkpoint has %d chunks, %d assertion failures in the first; want 3 and 1", len(ck.Chunks), n)
	}
	restored, err := c.NewChunkMerger()
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(restored), golden) {
		t.Error("the golden file does not survive ReadCheckpoint, Restore, Checkpoint, WriteCheckpoint")
	}
}
