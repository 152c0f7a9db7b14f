package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mtracecheck"
	"mtracecheck/internal/fault"
	"mtracecheck/internal/testgen"
)

// testSpec is the campaign every test distributes: small enough to run in
// milliseconds, large enough for a multi-chunk grid (320 iterations = 5
// chunks of 64).
func testSpec() JobSpec {
	return JobSpec{
		Test: &testgen.Config{
			Threads: 2, OpsPerThread: 20, Words: 8, LoadRatio: 0.5, Seed: 7,
		},
		Iterations: 5 * mtracecheck.ChunkSize,
		Seed:       7,
	}
}

// reference runs the spec's campaign in-process and returns its report and
// final unique set — the bit-identity baseline every distributed run must
// reproduce.
func reference(t *testing.T, spec JobSpec) (*mtracecheck.Report, []mtracecheck.Unique) {
	t.Helper()
	p, opts, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1
	c, err := mtracecheck.NewCampaign(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	uniques, err := c.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := mtracecheck.NewCampaign(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	report, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return report, uniques
}

// requireIdentical asserts a distributed report and unique set match the
// in-process reference exactly: accounting, findings, quarantine, and the
// signature file byte for byte.
func requireIdentical(t *testing.T, ref *mtracecheck.Report, refU []mtracecheck.Unique,
	got *mtracecheck.Report, gotU []mtracecheck.Unique) {
	t.Helper()
	if got.Iterations != ref.Iterations || got.TotalCycles != ref.TotalCycles ||
		got.Squashes != ref.Squashes || got.UniqueSignatures != ref.UniqueSignatures {
		t.Fatalf("report counters differ: got iters=%d cycles=%d squashes=%d uniques=%d, ref iters=%d cycles=%d squashes=%d uniques=%d",
			got.Iterations, got.TotalCycles, got.Squashes, got.UniqueSignatures,
			ref.Iterations, ref.TotalCycles, ref.Squashes, ref.UniqueSignatures)
	}
	if len(got.Violations) != len(ref.Violations) || len(got.Quarantined) != len(ref.Quarantined) ||
		fmt.Sprint(got.AssertionFailures) != fmt.Sprint(ref.AssertionFailures) {
		t.Fatalf("findings differ: got %d violations %d quarantined asserts %v, ref %d violations %d quarantined asserts %v",
			len(got.Violations), len(got.Quarantined), got.AssertionFailures,
			len(ref.Violations), len(ref.Quarantined), ref.AssertionFailures)
	}
	for i, v := range ref.Violations {
		if !got.Violations[i].Sig.Equal(v.Sig) {
			t.Errorf("violation %d: signature %v, ref %v", i, got.Violations[i].Sig, v.Sig)
		}
	}
	for i, q := range ref.Quarantined {
		if g := got.Quarantined[i]; !g.Sig.Equal(q.Sig) || g.Count != q.Count {
			t.Errorf("quarantine entry %d: %v/%d, ref %v/%d", i, g.Sig, g.Count, q.Sig, q.Count)
		}
	}
	var gotFile, refFile bytes.Buffer
	if err := mtracecheck.SaveSignatures(&gotFile, got, gotU); err != nil {
		t.Fatal(err)
	}
	if err := mtracecheck.SaveSignatures(&refFile, ref, refU); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFile.Bytes(), refFile.Bytes()) {
		t.Fatalf("signature file differs from the reference's (%d unique signatures, ref %d)", len(gotU), len(refU))
	}
}

// startServer wires a dist server behind an httptest listener.
func startServer(t *testing.T, opts ServerOptions) (*Server, string) {
	t.Helper()
	srv := NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts.URL
}

// runWorkers drives n workers until the server drains, then waits for them.
func runWorkers(t *testing.T, url string, n int, mutate func(i int, w *Worker)) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{
			Server:       url,
			ID:           fmt.Sprintf("w%d", i),
			Poll:         5 * time.Millisecond,
			ExitWhenIdle: true,
		}
		if mutate != nil {
			mutate(i, w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(context.Background())
		}()
	}
	wg.Wait()
}

func TestChunkUploadRoundTrip(t *testing.T) {
	spec := testSpec()
	p, opts, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := mtracecheck.NewCampaign(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := c.NewChunkRunner()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cr.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	u := &ChunkUpload{Job: "job-1", Worker: "w0", ChunkResult: *res}
	data, err := EncodeChunkUpload(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeChunkUpload(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Job != u.Job || got.Worker != u.Worker || got.Chunk != u.Chunk ||
		got.Start != u.Start || got.Count != u.Count ||
		got.Stats.Iterations != u.Stats.Iterations || got.Stats.Cycles != u.Stats.Cycles ||
		got.Stats.Squashes != u.Stats.Squashes || len(got.Uniques) != len(u.Uniques) {
		t.Fatalf("round trip mismatch: got %+v, want %+v", got, u)
	}
	for i := range got.Uniques {
		if !got.Uniques[i].Sig.Equal(u.Uniques[i].Sig) || got.Uniques[i].Count != u.Uniques[i].Count {
			t.Fatalf("unique %d differs after round trip", i)
		}
	}
}

func TestChunkUploadDetectsCorruption(t *testing.T) {
	u := &ChunkUpload{Job: "j", Worker: "w", ChunkResult: mtracecheck.ChunkResult{Chunk: 1, Start: 64, Count: 64,
		Stats: mtracecheck.ChunkStats{Iterations: 64, Cycles: 123}}}
	data, err := EncodeChunkUpload(u)
	if err != nil {
		t.Fatal(err)
	}
	// Any single bit flip anywhere in the payload must fail the checksum
	// (or, for flips inside the checksum itself, the comparison).
	for _, bit := range []int{0, 100, len(data)*8 - 1} {
		mangled := bytes.Clone(data)
		mangled[bit/8] ^= 1 << (bit % 8)
		if _, err := DecodeChunkUpload(mangled); err == nil {
			t.Fatalf("bit flip at %d went undetected", bit)
		}
	}
	if _, err := DecodeChunkUpload(data[:len(data)-3]); err == nil {
		t.Fatal("truncated upload went undetected")
	}
	if _, err := DecodeChunkUpload(append(bytes.Clone(data), 0)); err == nil {
		t.Fatal("extended upload went undetected")
	}
}

// TestDistMatchesInProcess is the core acceptance property: a campaign
// fanned out to two workers produces a report bit-identical to the
// in-process single-worker run.
func TestDistMatchesInProcess(t *testing.T) {
	spec := testSpec()
	ref, refU := reference(t, spec)
	srv, url := startServer(t, ServerOptions{})
	id, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, url, 2, nil)
	report, err := srv.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, refU, report, report.Signatures())
}

// TestCorruptWorkerQuarantined submits one worker that corrupts every
// upload alongside an honest one: the corrupt worker must be quarantined
// after the strike threshold, the campaign must still complete through the
// honest worker, and the report must stay bit-identical — corruption is
// surfaced in the stats, never absorbed into the results.
func TestCorruptWorkerQuarantined(t *testing.T) {
	spec := testSpec()
	ref, refU := reference(t, spec)
	srv, url := startServer(t, ServerOptions{LeaseTTL: 250 * time.Millisecond, QuarantineAfter: 2})
	id, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The liar runs alone first: with every upload corrupted the job cannot
	// progress, so it deterministically strikes out and Run returns the
	// quarantine error.
	liar := &Worker{Server: url, ID: "liar", Poll: 5 * time.Millisecond,
		Fault: fault.Config{Seed: 3, Rate: fault.Rates{fault.KindWireCorrupt: 1}}}
	if err := liar.Run(context.Background()); !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("liar exited with %v, want quarantine", err)
	}
	// A well-formed upload that lies about its observation counts passes the
	// wire checksum; the merger's validation must turn it into a strike
	// instead of letting the inflated counts reach the signature file.
	p, opts, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := mtracecheck.NewCampaign(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := c.NewChunkRunner()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cr.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res.Uniques[0].Count++
	payload, err := EncodeChunkUpload(&ChunkUpload{Job: id, Worker: "padder", ChunkResult: *res})
	if err != nil {
		t.Fatal(err)
	}
	padded, err := (&Worker{Server: url, ID: "padder"}).postChunk(context.Background(), payload)
	if err != nil {
		t.Fatal(err)
	}
	if padded.Status != UploadRejected || !strings.Contains(padded.Error, "observations") {
		t.Fatalf("inflated counts: got %q (%s), want a rejection naming the observations", padded.Status, padded.Error)
	}
	runWorkers(t, url, 1, nil)
	report, err := srv.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, refU, report, report.Signatures())
	if stats, _ := srv.Stats(id); stats.Rejected != 1 {
		t.Fatalf("expected the padded upload as the job's one rejection, got %+v", stats)
	}
	// A corrupt payload cannot be attributed to a job, so the strikes are
	// per-worker state, not JobStats.
	srv.mu.Lock()
	ws := srv.workers["liar"]
	srv.mu.Unlock()
	if ws == nil || !ws.quarantined {
		t.Fatal("corrupt worker was not quarantined")
	}
	if ws.strikes < 2 {
		t.Fatalf("expected at least 2 strikes, got %d", ws.strikes)
	}
}

// TestDuplicateUploadDeduplicated uploads the same chunk twice: the second
// must be answered "duplicate" and the job must still finish with the
// reference counters (the duplicate is counted, not merged).
func TestDuplicateUploadDeduplicated(t *testing.T) {
	spec := testSpec()
	ref, refU := reference(t, spec)
	srv, url := startServer(t, ServerOptions{})
	id, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, opts, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := mtracecheck.NewCampaign(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := c.NewChunkRunner()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cr.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeChunkUpload(&ChunkUpload{Job: id, Worker: "dup", ChunkResult: *res})
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{Server: url, ID: "dup"}
	first, err := w.postChunk(context.Background(), payload)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != UploadAccepted {
		t.Fatalf("first upload: got %q, want accepted", first.Status)
	}
	second, err := w.postChunk(context.Background(), payload)
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != UploadDuplicate {
		t.Fatalf("second upload: got %q, want duplicate", second.Status)
	}
	runWorkers(t, url, 1, nil)
	report, err := srv.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, refU, report, report.Signatures())
	stats, _ := srv.Stats(id)
	if stats.Duplicates != 1 {
		t.Fatalf("expected 1 counted duplicate, got %+v", stats)
	}
}

// TestExpiredLeaseRedispatched gives the only available worker a
// drop-everything wire injector, so every lease it takes expires; then an
// honest worker joins and the chunks redispatch to it.
func TestExpiredLeaseRedispatched(t *testing.T) {
	spec := testSpec()
	spec.Iterations = 2 * mtracecheck.ChunkSize
	ref, refU := reference(t, spec)
	srv, url := startServer(t, ServerOptions{
		LeaseTTL: 50 * time.Millisecond, BackoffBase: time.Millisecond,
	})
	id, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	dropCtx, stopDropper := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &Worker{Server: url, ID: "dropper", Poll: 5 * time.Millisecond,
			Fault: fault.Config{Seed: 5, Rate: fault.Rates{fault.KindWireDrop: 1}}}
		w.Run(dropCtx)
	}()
	// Let the dropper burn at least one lease before honest help arrives.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if stats, err := srv.Stats(id); err == nil && stats.Expired > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease expired within the deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopDropper()
	wg.Wait()
	runWorkers(t, url, 1, nil)
	report, err := srv.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, refU, report, report.Signatures())
	stats, _ := srv.Stats(id)
	if stats.Expired == 0 || stats.Redispatched == 0 {
		t.Fatalf("expected expiry and redispatch, got %+v", stats)
	}
}

// TestLossyWorkerFinishes: a lone worker that loses half its uploads still
// finishes the job, with the in-process run's report, because each send of
// a chunk draws a fresh decision. Seed 1 drops the first send of every
// chunk, so a worker that keyed every send like its first would drop each
// chunk on every lease until the job failed as undispatchable.
func TestLossyWorkerFinishes(t *testing.T) {
	spec := testSpec()
	spec.Iterations = 4 * mtracecheck.ChunkSize
	ref, refU := reference(t, spec)
	srv, url := startServer(t, ServerOptions{LeaseTTL: 50 * time.Millisecond, BackoffBase: time.Millisecond})
	id, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, url, 1, func(_ int, w *Worker) {
		w.Fault = fault.Config{Seed: 1, Rate: fault.Rates{fault.KindWireDrop: 0.5}}
	})
	report, err := srv.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, refU, report, report.Signatures())
	if stats, _ := srv.Stats(id); stats.Expired < 4 {
		t.Fatalf("expected every chunk's first upload lost, got %+v", stats)
	}
}

// TestWorkerRefusesOtherFamilies: a worker injects wire faults only; a plan
// naming a corruption or execution kind is refused by name before the
// worker contacts anyone.
func TestWorkerRefusesOtherFamilies(t *testing.T) {
	for _, k := range []fault.Kind{fault.KindBitFlip, fault.KindPanic} {
		w := &Worker{Server: "http://127.0.0.1:1", ID: "w"}
		w.Fault.Rate[k] = 0.5
		if err := w.Run(context.Background()); err == nil || !strings.Contains(err.Error(), k.String()+" is not injected here") {
			t.Errorf("a worker planning %v: %v", k, err)
		}
	}
}

// TestKillMidChunkResume is the crash-survivability acceptance test: a
// worker is killed mid-lease, the server itself is torn down, and a new
// server resumes the job from its checkpoint — never re-running completed
// chunks — with the final report bit-identical to an uninterrupted
// in-process run.
func TestKillMidChunkResume(t *testing.T) {
	spec := testSpec()
	ref, refU := reference(t, spec)
	spec.CheckpointPath = filepath.Join(t.TempDir(), "job.ckpt")
	spec.CheckpointEvery = 1 // rounded up to one chunk

	// Phase 1: one worker completes part of the grid, then is killed
	// mid-lease (hard cancel, no upload); the server dies with it.
	srv1, url1 := startServer(t, ServerOptions{LeaseTTL: 20 * time.Second})
	id1, err := srv1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	wctx, kill := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &Worker{Server: url1, ID: "victim", Poll: time.Millisecond}
		w.Run(wctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv1.mu.Lock()
		j := srv1.jobs[id1]
		partial := j.merger.Done() >= 1 && j.merger.Done() < len(j.chunks)
		srv1.mu.Unlock()
		if partial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never completed a first chunk")
		}
		time.Sleep(time.Millisecond)
	}
	kill() // mid-lease: the victim holds a chunk it will never upload
	wg.Wait()
	srv1.Close()

	// Phase 2: a fresh server resumes from the checkpoint.
	srv2, url2 := startServer(t, ServerOptions{LeaseTTL: 500 * time.Millisecond, BackoffBase: time.Millisecond})
	resumed := spec
	resumed.Resume = true
	id2, err := srv2.Submit(resumed)
	if err != nil {
		t.Fatal(err)
	}
	srv2.mu.Lock()
	restored := srv2.jobs[id2].merger.Done()
	total := len(srv2.jobs[id2].chunks)
	srv2.mu.Unlock()
	if restored == 0 {
		t.Fatal("resume restored no completed chunks")
	}
	if restored == total {
		t.Fatal("test did not leave any chunk unfinished; nothing was resumed mid-flight")
	}
	runWorkers(t, url2, 1, nil)
	report, err := srv2.Wait(context.Background(), id2)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, ref, refU, report, report.Signatures())
}

// TestCrashUploadFailsJob forwards a worker's platform crash as a campaign
// finding: the job fails with ErrCrash, exactly as in-process.
func TestCrashUploadFailsJob(t *testing.T) {
	spec := testSpec()
	srv, url := startServer(t, ServerOptions{})
	id, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeChunkUpload(&ChunkUpload{
		Job: id, Worker: "crasher", ErrKind: UploadCrash, Err: "deadlock at iteration 3",
		ChunkResult: mtracecheck.ChunkResult{Chunk: 0, Start: 0, Count: mtracecheck.ChunkSize},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{Server: url, ID: "crasher"}
	if _, err := w.postChunk(context.Background(), payload); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := srv.Wait(ctx, id); !errors.Is(err, mtracecheck.ErrCrash) {
		t.Fatalf("crash upload failed the job with %v, want ErrCrash", err)
	}
}
