package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mtracecheck"
	"mtracecheck/internal/obs"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/testgen"
)

// TestIterationsAcrossDoors: a spec's iteration count means the same thing
// through the in-process door (Build, NewCampaign, Run) and the distributed one
// (Submit, workers, Wait): a negative count, or one beyond the longest chunk
// grid, is the same error at both (before any grid is allocated), zero the
// library's default, and anything else — under, on and over a chunk boundary —
// exactly that many iterations. No door may pass a campaign that ran nothing.
func TestIterationsAcrossDoors(t *testing.T) {
	inProcess := func(spec JobSpec) (*mtracecheck.Report, error) {
		p, opts, err := Build(spec)
		if err != nil {
			return nil, err
		}
		return mtracecheck.RunProgram(p, opts)
	}
	distributed := func(t *testing.T, spec JobSpec) (*mtracecheck.Report, error) {
		srv, url := startServer(t, ServerOptions{})
		id, err := srv.Submit(spec)
		if err != nil {
			return nil, err
		}
		runWorkers(t, url, 2, nil)
		return srv.Wait(context.Background(), id)
	}
	const tooLong = mtracecheck.ChunkSize<<24 + 1 // one more than a chunk grid can describe
	for _, n := range []int{-5, tooLong, 0, 1, mtracecheck.ChunkSize, mtracecheck.ChunkSize + 1} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			spec := testSpec()
			spec.Iterations = n
			local, localErr := inProcess(spec)
			remote, remoteErr := distributed(t, spec)
			if fmt.Sprint(localErr) != fmt.Sprint(remoteErr) {
				t.Fatalf("in-process: %v\ndistributed: %v", localErr, remoteErr)
			}
			if n < 0 || n == tooLong {
				if localErr == nil {
					t.Fatalf("a campaign of %d iterations was accepted", n)
				}
				return
			}
			if localErr != nil {
				t.Fatal(localErr)
			}
			want := n
			if n == 0 {
				want = mtracecheck.DefaultIterations
			}
			if local.Iterations != want || remote.Iterations != want {
				t.Fatalf("ran %d iterations in-process and %d distributed, want %d", local.Iterations, remote.Iterations, want)
			}
			requireIdentical(t, local, local.Signatures(), remote, remote.Signatures())
		})
	}
}

// TestCheckpointCadenceAcrossDoors: the cadence has one unit (iterations) and
// one owner (ChunkMerger.CheckpointDue), so the same spec saves at the same
// frontiers whether the in-process scheduler or a dist server merges its
// chunks — and, with chunks landing in order and no lease outstanding, writes
// the same bytes at each.
func TestCheckpointCadenceAcrossDoors(t *testing.T) {
	type save struct {
		completed int
		file      []byte
	}
	// Both doors emit the event right after the rename, from the goroutine (or
	// under the lock) that writes checkpoints: the file is the one just saved.
	record := func(t *testing.T, saves *[]save) onSave {
		return func(e obs.Checkpoint) {
			file, err := os.ReadFile(e.Path)
			if err != nil {
				t.Error(err)
			}
			*saves = append(*saves, save{e.Completed, file})
		}
	}
	// CheckpointEvery in iterations, and the whole chunks between saves it
	// comes to over a 32-chunk campaign (0: a tenth, 204 iterations).
	for every, chunks := range map[int]int{0: 4, 1: 1, mtracecheck.ChunkSize: 1, 200: 4} {
		t.Run(fmt.Sprint(every), func(t *testing.T) {
			spec := testSpec()
			spec.Iterations = 32 * mtracecheck.ChunkSize
			spec.CheckpointEvery = every
			spec.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")

			var local, remote []save
			p, opts, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			opts.Observer = record(t, &local)
			if _, err := mtracecheck.RunProgram(p, opts); err != nil {
				t.Fatal(err)
			}
			// One worker: chunks are leased, and so land, in grid order.
			srv, url := startServer(t, ServerOptions{Observer: record(t, &remote)})
			id, err := srv.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			runWorkers(t, url, 1, nil)
			if _, err := srv.Wait(context.Background(), id); err != nil {
				t.Fatal(err)
			}

			if len(local) != 32/chunks || len(remote) != 32/chunks {
				t.Fatalf("%d saves in-process and %d on the server, want one every %d of 32 chunks",
					len(local), len(remote), chunks)
			}
			for i := range local {
				if want := (i + 1) * chunks * mtracecheck.ChunkSize; local[i].completed != want || remote[i].completed != want {
					t.Fatalf("save %d covers %d iterations in-process and %d on the server, want %d",
						i, local[i].completed, remote[i].completed, want)
				}
				if !bytes.Equal(local[i].file, remote[i].file) {
					t.Errorf("checkpoint files at %d iterations differ between the doors", local[i].completed)
				}
			}
		})
	}
}

// TestLostChunkAcrossDoors: a chunk lost after its retries lands as its
// partial result and a ShardFailure through the one merger method, so the
// in-process campaign and a dist job end with the same partial report. The
// server used to drop the upload's signatures and redispatch the chunk until
// its dispatch cap, failing the job after minutes. Two workers land chunks
// out of order; the failures are still listed in grid order.
func TestLostChunkAcrossDoors(t *testing.T) {
	for _, plan := range []string{"panic=1", "panic=0.5,seed=3"} {
		t.Run(plan, func(t *testing.T) {
			spec := testSpec()
			spec.ShardRetries = 0
			if err := spec.Fault.UnmarshalText([]byte(plan)); err != nil {
				t.Fatal(err)
			}
			p, opts, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			local, err := mtracecheck.RunProgram(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			srv, url := startServer(t, ServerOptions{})
			id, err := srv.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			runWorkers(t, url, 2, nil)
			remote, err := srv.Wait(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if len(local.ShardFailures) == 0 || local.Iterations == spec.Iterations {
				t.Fatalf("in-process: %d shard failures over %d of %d iterations; the plan loses no chunk",
					len(local.ShardFailures), local.Iterations, spec.Iterations)
			}
			if fmt.Sprintf("%+v", remote.ShardFailures) != fmt.Sprintf("%+v", local.ShardFailures) {
				t.Fatalf("shard failures differ:\nin-process  %+v\ndistributed %+v", local.ShardFailures, remote.ShardFailures)
			}
			for _, sf := range remote.ShardFailures {
				if !errors.Is(sf.Err, mtracecheck.ErrShardFailed) {
					t.Errorf("distributed shard failure %v does not match ErrShardFailed", sf.Err)
				}
			}
			requireIdentical(t, local, local.Signatures(), remote, remote.Signatures())
			t.Logf("%d shard failures, %d iterations, %d uniques through both doors",
				len(local.ShardFailures), local.Iterations, local.UniqueSignatures)
		})
	}
}

// TestCrashAcrossDoors: a platform crash on a worker fails the dist job with
// the in-process campaign's error. The worker used to read its own cancelled
// chunk context as a lost lease and upload nothing, so the chunk expired and
// was redispatched until the job failed as undispatchable.
func TestCrashAcrossDoors(t *testing.T) {
	spec := JobSpec{
		Test:       &testgen.Config{Threads: 7, OpsPerThread: 60, Words: 64, LoadRatio: 0.3, Seed: 3},
		Bug:        "wb-race",
		Iterations: 60,
		Seed:       3,
	}
	p, opts, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, localErr := mtracecheck.RunProgram(p, opts)
	if !errors.Is(localErr, mtracecheck.ErrCrash) {
		t.Fatalf("in-process: %v, want a crash", localErr)
	}
	srv, url := startServer(t, ServerOptions{LeaseTTL: time.Second, MaxAttempts: 2})
	id, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, url, 1, nil)
	_, remoteErr := srv.Wait(context.Background(), id)
	if !errors.Is(remoteErr, mtracecheck.ErrCrash) || remoteErr.Error() != localErr.Error() {
		t.Fatalf("distributed: %v\nin-process:  %v", remoteErr, localErr)
	}
}

// TestSubmitRefusesWhatNoGridDescribes: a 150-byte job description used to be
// able to kill the server — 2^40 iterations made the merger ask for a 1.37 TB
// chunk grid, and a test config of 2^40 operations generated until memory ran
// out — and a misspelt key used to be dropped, running a default-length
// campaign. All are bad requests, refused by name before anything is allocated.
func TestSubmitRefusesWhatNoGridDescribes(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	for body, want := range map[string]string{
		`{"test":{"Threads":2,"OpsPerThread":20,"Words":8},"iterations":1099511627776}`: fmt.Sprint(mtracecheck.ChunkSize << 24),
		`{"test":{"Threads":1048576,"OpsPerThread":1048576,"Words":8},"iterations":64}`: "operation bound",
		`{"test":{"Threads":2,"OpsPerThread":20,"Words":8},"iteration":65536}`:          `unknown field "iteration"`,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(url+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), want) {
			t.Errorf("POST %s: %d %q, want 400 naming %q", body, resp.StatusCode, msg, want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Errorf("POST %s allocated %d MiB before it was refused", body, grew>>20)
		}
	}
}

// TestProgramLayoutOtherThanCacheLine: a job program whose layout line is not
// the platform's cache line runs clean. The load queue must squash on the
// line the cache invalidates: keyed on the layout's 32- or 16-byte line, a
// load on the other half of a 64-byte cache line missed its squash, and a
// clean x86 campaign reported ld→ld violations. A layout word narrower than
// the memory system's is refused by name.
func TestProgramLayoutOtherThanCacheLine(t *testing.T) {
	run := func(text string, seed int64) (*mtracecheck.Report, error) {
		p, opts, err := Build(JobSpec{Program: text, Iterations: 2048, Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		c, err := mtracecheck.NewCampaign(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return c.Run(context.Background())
	}
	for seed := int64(1); seed <= 4; seed++ {
		p, err := testgen.Generate(testgen.Config{Threads: 4, OpsPerThread: 50, Words: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range []int{32, 16} {
			p.Layout.LineSize = line
			report, err := run(prog.Format(p), seed)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(report.Violations); n != 0 || report.Squashes == 0 {
				t.Errorf("testgen seed %d, layout line=%d: %d violations, %d squashes; want 0 and some",
					seed, line, n, report.Squashes)
			}
		}
	}
	_, err := run("words 2\nlayout line=64 word=2 perline=2\nthread: st 0; ld 1\nthread: st 1; ld 0\n", 1)
	if err == nil || !strings.Contains(err.Error(), "layout word=2") {
		t.Errorf("layout word=2: err = %v, want a refusal naming it", err)
	}
}
