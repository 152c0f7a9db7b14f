package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"mtracecheck"
	"mtracecheck/internal/fault"
)

// Worker is the remote execution client: it polls the server for chunk
// leases, executes them on a locally rebuilt campaign (Build of the same
// spec the server holds, so results are interchangeable with any other
// worker's), heartbeats while executing, and uploads results. Its optional
// fault plan corrupts, drops, or delays its own uploads — the test harness
// for the server's validation, expiry, and quarantine paths.
type Worker struct {
	// Server is the base URL, e.g. "http://127.0.0.1:7077".
	Server string
	// ID names this worker in leases, events, and metrics.
	ID string
	// Client is the HTTP client (nil = a client with sane timeouts).
	Client *http.Client
	// Poll is the idle wait between lease attempts (0 = 100ms).
	Poll time.Duration
	// Fault is the plan this worker mangles its uploads with: wire kinds
	// only (Run refuses the others by name). Each send of a chunk draws a
	// fresh decision, keyed by the worker's own count of that chunk's sends.
	Fault fault.Config
	// ExitWhenIdle returns from Run when the server reports no undone work
	// instead of polling forever — the batch-fleet mode.
	ExitWhenIdle bool
	// StartupTimeout bounds how long Run keeps retrying before the first
	// successful server response (0 = 60s). Until first contact,
	// connection errors retry with capped exponential backoff instead of
	// counting toward the unreachable cap, so a fleet started before its
	// server still comes up cleanly; past the deadline Run fails fast.
	StartupTimeout time.Duration
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)

	jobs map[string]*workerJob
	inj  *fault.Injector
}

// workerJob is one job's locally rebuilt execution state, cached across
// chunks so the spec fetch and program analysis are paid once, and this
// worker's count of uploads sent per chunk.
type workerJob struct {
	spec   JobSpec
	runner *mtracecheck.ChunkRunner
	sends  map[int]int
}

// ErrWorkerQuarantined reports that the server refused this worker service.
var ErrWorkerQuarantined = errors.New("dist: worker quarantined by server")

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (w *Worker) poll() time.Duration {
	if w.Poll <= 0 {
		return 100 * time.Millisecond
	}
	return w.Poll
}

func (w *Worker) startupTimeout() time.Duration {
	if w.StartupTimeout <= 0 {
		return 60 * time.Second
	}
	return w.StartupTimeout
}

// startupBackoffCap bounds the pre-contact retry backoff so a late
// server is noticed within a couple of seconds of coming up. It scales
// from the poll interval so short-poll configurations (tests, local
// fleets) retry proportionally faster.
func (w *Worker) startupBackoffCap() time.Duration {
	return min(2*time.Second, 32*w.poll())
}

// Run polls for leases until the context is canceled, the server drains
// (with ExitWhenIdle), or the server quarantines this worker.
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" {
		return errors.New("dist: worker needs an ID")
	}
	inj, err := fault.NewInjector(w.Fault, fault.Wire)
	if err != nil {
		return err
	}
	w.jobs, w.inj = make(map[string]*workerJob), inj
	unreachable := 0
	contacted := false
	deadline := time.Now().Add(w.startupTimeout())
	backoff := w.poll()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease LeaseResponse
		if err := w.postJSON(ctx, "/api/v1/lease", LeaseRequest{Worker: w.ID}, &lease); err != nil {
			if !contacted {
				// The server has never answered: a fleet may legitimately start
				// before its server, so retry with capped exponential backoff
				// until the startup deadline instead of burning the unreachable
				// budget — then fail fast with a startup-specific error.
				if time.Now().After(deadline) {
					return fmt.Errorf("dist: server not up within startup timeout %v: %w", w.startupTimeout(), err)
				}
				w.logf("worker %s: waiting for server: %v", w.ID, err)
				if !w.sleep(ctx, backoff) {
					return ctx.Err()
				}
				backoff = min(backoff*2, w.startupBackoffCap())
				continue
			}
			// The server may be restarting; transient by assumption — but a
			// batch-fleet worker gives up once the server stays gone, so a
			// fleet never outlives an "mtracecheck -listen" campaign.
			unreachable++
			if w.ExitWhenIdle && unreachable >= 20 {
				return fmt.Errorf("dist: server unreachable after %d attempts: %w", unreachable, err)
			}
			w.logf("worker %s: lease: %v", w.ID, err)
			if !w.sleep(ctx, w.poll()) {
				return ctx.Err()
			}
			continue
		}
		contacted = true
		unreachable = 0
		switch lease.Status {
		case LeaseQuarantined:
			return ErrWorkerQuarantined
		case LeaseDrained:
			if w.ExitWhenIdle {
				return nil
			}
			fallthrough
		case LeaseWait:
			if !w.sleep(ctx, w.poll()) {
				return ctx.Err()
			}
			continue
		case LeaseOK:
		default:
			return fmt.Errorf("dist: unknown lease status %q", lease.Status)
		}
		if err := w.executeLease(ctx, lease); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("worker %s: job %s chunk %d: %v", w.ID, lease.Job, lease.Chunk, err)
		}
	}
}

func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// jobFor returns (building and caching if needed) the local execution
// state for a job.
func (w *Worker) jobFor(ctx context.Context, id string) (*workerJob, error) {
	if wj := w.jobs[id]; wj != nil {
		return wj, nil
	}
	var spec JobSpec
	if err := w.getJSON(ctx, "/api/v1/jobs/"+id+"/spec", &spec); err != nil {
		return nil, err
	}
	p, opts, err := Build(spec)
	if err != nil {
		return nil, err
	}
	campaign, err := mtracecheck.NewCampaign(p, opts)
	if err != nil {
		return nil, err
	}
	runner, err := campaign.NewChunkRunner()
	if err != nil {
		return nil, err
	}
	wj := &workerJob{spec: spec, runner: runner, sends: make(map[int]int)}
	w.jobs[id] = wj
	return wj, nil
}

// executeLease runs one leased chunk and uploads the result, heartbeating
// in the background so a long chunk outlives its initial lease TTL. A
// heartbeat that reports the lease lost cancels the execution — the chunk
// now belongs to another worker and finishing it would only upload a
// duplicate.
func (w *Worker) executeLease(ctx context.Context, lease LeaseResponse) error {
	wj, err := w.jobFor(ctx, lease.Job)
	if err != nil {
		return err
	}
	chunkCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		tick := max(lease.TTL/3, 10*time.Millisecond)
		for {
			select {
			case <-chunkCtx.Done():
				return
			case <-time.After(tick):
			}
			var hb HeartbeatResponse
			err := w.postJSON(chunkCtx, "/api/v1/heartbeat",
				HeartbeatRequest{Worker: w.ID, Job: lease.Job, Chunk: lease.Chunk}, &hb)
			if err == nil && !hb.Held {
				w.logf("worker %s: job %s chunk %d lease lost; abandoning", w.ID, lease.Job, lease.Chunk)
				cancel()
				return
			}
		}
	}()
	result, runErr := wj.runner.Run(chunkCtx, lease.Chunk)
	// Read before the cancel below ends the context either way: only the
	// heartbeat (or the caller) can have ended it yet.
	leaseLost := chunkCtx.Err() != nil
	cancel()
	<-hbDone
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if leaseLost && runErr != nil {
		return runErr // lease lost mid-execution; nothing to upload
	}
	u := &ChunkUpload{Job: lease.Job, Worker: w.ID}
	u.Chunk = lease.Chunk
	if result != nil {
		u.ChunkResult = *result
	}
	switch {
	case runErr == nil:
	case errors.Is(runErr, mtracecheck.ErrCrash):
		u.ErrKind = UploadCrash
	case errors.Is(runErr, mtracecheck.ErrShardFailed):
		u.ErrKind = UploadShardFailed
	default:
		u.ErrKind = UploadOther
	}
	if runErr != nil {
		u.Err = runErr.Error()
	}
	payload, err := EncodeChunkUpload(u)
	if err != nil {
		return err
	}
	send := wj.sends[lease.Chunk]
	wj.sends[lease.Chunk]++
	payload, d := w.inj.MangleUpload(payload, lease.Job, lease.Chunk, send)
	switch d.Kind {
	case fault.KindWireDrop:
		w.logf("worker %s: job %s chunk %d upload dropped (injected)", w.ID, lease.Job, lease.Chunk)
		return nil // the lease will expire and the chunk redispatch
	case fault.KindWireDelay:
		w.logf("worker %s: job %s chunk %d upload delayed %v (injected)", w.ID, lease.Job, lease.Chunk, d.Hold)
		if !w.sleep(ctx, d.Hold) {
			return ctx.Err()
		}
	case fault.KindWireCorrupt:
		w.logf("worker %s: job %s chunk %d upload corrupted (injected)", w.ID, lease.Job, lease.Chunk)
	}
	resp, err := w.postChunk(ctx, payload)
	if err != nil {
		return err
	}
	switch resp.Status {
	case UploadAccepted, UploadDuplicate:
		return nil
	case UploadQuarantined:
		return ErrWorkerQuarantined
	default:
		return fmt.Errorf("dist: upload rejected: %s", resp.Error)
	}
}

func (w *Worker) postChunk(ctx context.Context, payload []byte) (*UploadResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Server+"/api/v1/chunk", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Mtracecheck-Worker", w.ID)
	resp, err := w.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("dist: chunk upload: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var out UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (w *Worker) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Server+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.do(req, out)
}

func (w *Worker) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.Server+path, nil)
	if err != nil {
		return err
	}
	return w.do(req, out)
}

func (w *Worker) do(req *http.Request, out any) error {
	resp, err := w.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("dist: %s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
