package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"mtracecheck"
	"mtracecheck/internal/obs"
	"mtracecheck/internal/sig"
)

// ServerOptions tune the server's robustness machinery. The zero value
// selects the documented defaults.
type ServerOptions struct {
	// LeaseTTL is how long a worker holds a chunk before the lease expires
	// and the chunk is re-dispatched (0 = 10s). Heartbeats extend it.
	LeaseTTL time.Duration
	// QuarantineAfter is how many rejected uploads quarantine a worker
	// (0 = 3; negative disables quarantine).
	QuarantineAfter int
	// MaxAttempts caps dispatches per chunk before the job fails as
	// undispatchable (0 = 10).
	MaxAttempts int
	// BackoffBase seeds the capped exponential redispatch backoff
	// (0 = 100ms; capped at 5s).
	BackoffBase time.Duration
	// Observer receives campaign and dist events in addition to the
	// server's own metrics.
	Observer obs.Observer
	// Corpus, when set, is the shared signature corpus every job's
	// campaign consults and grows (mtracecheck.Options.Corpus) — the
	// server is the warm storage layer across its whole fleet. The store
	// is safe for the concurrent job finalizers.
	Corpus *mtracecheck.Corpus
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

const backoffCap = 5 * time.Second

func (o ServerOptions) leaseTTL() time.Duration {
	if o.LeaseTTL <= 0 {
		return 10 * time.Second
	}
	return o.LeaseTTL
}

func (o ServerOptions) quarantineAfter() int {
	if o.QuarantineAfter == 0 {
		return 3
	}
	return o.QuarantineAfter
}

func (o ServerOptions) maxAttempts() int {
	if o.MaxAttempts <= 0 {
		return 10
	}
	return o.MaxAttempts
}

func (o ServerOptions) backoff(attempt int) time.Duration {
	d := o.BackoffBase
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	for i := 1; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	return min(d, backoffCap)
}

// Server owns the jobs, the lease table, and the worker registry. All
// state transitions happen under one mutex; the only long-running work —
// the final decode/check — runs in a goroutine after the last chunk lands.
type Server struct {
	opts    ServerOptions
	metrics *obs.Metrics
	obsrv   obs.Observer
	mux     *http.ServeMux

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	jobs    map[string]*job
	jobIDs  []string // insertion order, the dispatch scan order
	workers map[string]*workerState
	nextID  int
}

type jobState uint8

const (
	jobRunning jobState = iota
	jobFinalizing
	jobDone
	jobFailed
)

func (s jobState) String() string {
	switch s {
	case jobRunning:
		return "running"
	case jobFinalizing:
		return "finalizing"
	case jobDone:
		return "done"
	case jobFailed:
		return "failed"
	}
	return "state?"
}

const (
	chunkPending = sig.ChunkPending
	chunkLeased  = sig.ChunkLeased
	chunkDone    = sig.ChunkDone
)

// chunkState is one grid chunk's lease-table entry.
type chunkState struct {
	status   uint8
	worker   string    // lease holder while leased
	deadline time.Time // lease expiry while leased
	attempt  int       // dispatches so far
	eligible time.Time // redispatch backoff gate while pending
}

// JobStats counts a job's robustness events — the operational visibility
// the acceptance criteria require alongside the bit-identical report.
type JobStats struct {
	Redispatched int `json:"redispatched"`
	Duplicates   int `json:"duplicates"`
	Rejected     int `json:"rejected"`
	Expired      int `json:"expired"`
}

type job struct {
	id       string
	spec     JobSpec
	specJSON []byte
	prog     *mtracecheck.Program
	campaign *mtracecheck.Campaign
	merger   *mtracecheck.ChunkMerger
	chunks   []chunkState
	stats    JobStats
	state    jobState
	report   *mtracecheck.Report
	err      error
	doneCh   chan struct{}
}

type workerState struct {
	id          string
	strikes     int
	quarantined bool
	leases      map[leaseKey]struct{}
}

type leaseKey struct {
	job   string
	chunk int
}

// NewServer builds a server. It always owns an obs.Metrics (exposed at
// /metrics) and multiplexes the caller's observer on top.
func NewServer(opts ServerOptions) *Server {
	s := &Server{
		opts:    opts,
		metrics: obs.NewMetrics(),
		jobs:    make(map[string]*job),
		workers: make(map[string]*workerState),
	}
	s.obsrv = obs.Multi(s.metrics, opts.Observer)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/spec", s.handleSpec)
	s.mux.HandleFunc("POST /api/v1/lease", s.handleLease)
	s.mux.HandleFunc("POST /api/v1/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("POST /api/v1/chunk", s.handleChunk)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	// Reaper: leases also expire lazily on every API call, but the ticker
	// keeps redispatch moving when no worker is polling.
	go s.reap()
	return s
}

// Handler returns the server's HTTP handler (for http.Server or tests).
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the reaper and cancels any in-flight finalization.
func (s *Server) Close() { s.cancel() }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

func (s *Server) reap() {
	t := time.NewTicker(max(s.opts.leaseTTL()/4, 10*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-t.C:
			s.mu.Lock()
			s.expireDue(now)
			s.mu.Unlock()
		}
	}
}

// expireDue returns every overdue lease to the queue. Callers hold s.mu.
func (s *Server) expireDue(now time.Time) {
	for _, id := range s.jobIDs {
		j := s.jobs[id]
		if j.state != jobRunning {
			continue
		}
		for c := range j.chunks {
			cs := &j.chunks[c]
			if cs.status != chunkLeased || now.Before(cs.deadline) {
				continue
			}
			holder := cs.worker
			s.releaseLease(j, c, now)
			j.stats.Expired++
			obs.EmitLease(s.obsrv, obs.LeaseEvent{
				Op: obs.LeaseExpired, Job: j.id, Chunk: c, Worker: holder,
				Attempt: cs.attempt, Time: now,
			})
			if ws := s.workers[holder]; ws != nil {
				obs.EmitWorker(s.obsrv, obs.WorkerEvent{
					Op: obs.WorkerLost, Worker: holder, Strikes: ws.strikes,
					Leases: 1, Time: now,
				})
			}
			s.logf("dist: job %s chunk %d lease expired on %s (attempt %d)", j.id, c, holder, cs.attempt)
		}
	}
}

// releaseLease returns a leased chunk to pending with its backoff gate set.
// Callers hold s.mu.
func (s *Server) releaseLease(j *job, c int, now time.Time) {
	cs := &j.chunks[c]
	if ws := s.workers[cs.worker]; ws != nil {
		delete(ws.leases, leaseKey{j.id, c})
	}
	cs.status = chunkPending
	cs.worker = ""
	cs.eligible = now.Add(s.opts.backoff(cs.attempt))
}

// Submit registers a job and (when the spec asks) restores it from its
// checkpoint. It returns the job ID.
func (s *Server) Submit(spec JobSpec) (string, error) {
	p, opts, err := Build(spec)
	if err != nil {
		return "", err
	}
	// The job's campaign is the host side of a campaign whose chunks execute
	// elsewhere: the server's observer sees its bracket and its merge, decode,
	// check and corpus stages as an in-process run's would, and no
	// execute-stage event (those are the workers').
	opts.Observer = s.obsrv
	// One corpus across all jobs: each finalize consults it before decode and
	// appends its newly verified signatures, so later jobs (and later server
	// runs) start warm.
	opts.Corpus = s.opts.Corpus
	campaign, err := mtracecheck.NewCampaign(p, opts)
	if err != nil {
		return "", err
	}
	merger, err := campaign.NewChunkMerger()
	if err != nil {
		return "", err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	j := &job{
		id:       fmt.Sprintf("job-%d", s.nextID),
		spec:     spec,
		specJSON: specJSON,
		prog:     p,
		campaign: campaign,
		merger:   merger,
		chunks:   make([]chunkState, campaign.NumChunks()),
		doneCh:   make(chan struct{}),
	}
	if spec.Resume {
		ck, err := merger.Resume()
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Nothing saved yet: a fresh start is the resume.
		case err != nil:
			return "", err
		default:
			// Done chunks keep their results; leased ones fall back to pending
			// (the lease died with the previous server) but keep their attempt
			// counts, so the redispatch backoff survives the restart.
			for c := range min(len(j.chunks), len(ck.Chunks)) {
				j.chunks[c].attempt = ck.Chunks[c].Attempt
				if ck.Chunks[c].Status == sig.ChunkDone {
					j.chunks[c].status = chunkDone
				}
			}
		}
	}
	s.jobs[j.id] = j
	s.jobIDs = append(s.jobIDs, j.id)
	s.logf("dist: job %s submitted: %d iterations in %d chunks (%d restored)",
		j.id, opts.Iterations, len(j.chunks), merger.Done())
	if merger.Done() == len(j.chunks) {
		s.finalize(j)
	}
	return j.id, nil
}

// checkpoint persists the job's progress: the merger's checkpoint with the
// undone chunks' lease-table entries (leased, attempt, worker) filled in — a
// done chunk's dispatch history is of no use to a resume, and leaving it out
// keeps the file the one an in-process campaign writes at the same frontier.
// A failed write is logged and tried again when the next one is due. Callers
// hold s.mu.
func (s *Server) checkpoint(j *job) {
	err := j.merger.Save(func(ck *sig.Checkpoint) {
		for c := range j.chunks {
			cs, ckc := &j.chunks[c], &ck.Chunks[c]
			if cs.status == chunkDone {
				continue
			}
			ckc.Attempt = min(cs.attempt, 0xffff)
			if cs.status == chunkLeased {
				ckc.Status, ckc.Worker = chunkLeased, cs.worker
			}
		}
	})
	if err != nil {
		s.logf("dist: job %s: %v", j.id, err)
	}
}

// finalize runs the host side — merge, decode, check — off the lock once
// every chunk has landed. Callers hold s.mu.
func (s *Server) finalize(j *job) {
	j.state = jobFinalizing
	go func() {
		report, err := j.merger.Report(s.ctx)
		s.mu.Lock()
		j.report, j.err = report, err
		if err != nil {
			j.state = jobFailed
		} else {
			j.state = jobDone
		}
		s.mu.Unlock()
		close(j.doneCh)
	}()
}

// fail marks a running job failed. Callers hold s.mu. (A finalizing job is
// past failing here — its outcome belongs to the finalize goroutine, which
// owns the doneCh close.)
func (s *Server) fail(j *job, err error) {
	if j.state != jobRunning {
		return
	}
	j.state = jobFailed
	j.err = err
	s.logf("dist: job %s failed: %v", j.id, err)
	close(j.doneCh)
}

// Wait blocks until the job completes and returns its report. The report
// error mirrors the in-process Campaign.Run contract (findings, quarantine
// overflow, infra errors).
func (s *Server) Wait(ctx context.Context, id string) (*mtracecheck.Report, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, fmt.Errorf("dist: unknown job %q", id)
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-j.doneCh:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.report, j.err
}

// Stats returns a job's robustness counters.
func (s *Server) Stats(id string) (JobStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStats{}, fmt.Errorf("dist: unknown job %q", id)
	}
	return j.stats, nil
}

// Metrics exposes the server's metrics collector (also served at /metrics).
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// ---- HTTP API ----

// SubmitResponse answers POST /api/v1/jobs.
type SubmitResponse struct {
	ID string `json:"id"`
}

// JobStatus answers GET /api/v1/jobs/{id}.
type JobStatus struct {
	ID                 string   `json:"id"`
	State              string   `json:"state"`
	DoneChunks         int      `json:"done_chunks"`
	TotalChunks        int      `json:"total_chunks"`
	Stats              JobStats `json:"stats"`
	QuarantinedWorkers []string `json:"quarantined_workers,omitempty"`
	Error              string   `json:"error,omitempty"`
	Iterations         int      `json:"iterations,omitempty"`
	UniqueSignatures   int      `json:"unique_signatures,omitempty"`
	Violations         int      `json:"violations,omitempty"`
	AssertionFailures  int      `json:"assertion_failures,omitempty"`
	Failed             bool     `json:"failed,omitempty"`
}

// LeaseRequest asks for one chunk of work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Lease statuses.
const (
	LeaseOK          = "ok"          // a chunk was granted
	LeaseWait        = "wait"        // no chunk eligible right now; poll again
	LeaseDrained     = "drained"     // no running job has undone chunks
	LeaseQuarantined = "quarantined" // this worker is refused service
)

// LeaseResponse answers POST /api/v1/lease.
type LeaseResponse struct {
	Status string `json:"status"`
	Job    string `json:"job,omitempty"`
	Chunk  int    `json:"chunk"`
	// TTL is the lease deadline interval; workers heartbeat well inside it.
	TTL time.Duration `json:"ttl"`
}

// HeartbeatRequest extends a held lease.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Job    string `json:"job"`
	Chunk  int    `json:"chunk"`
}

// HeartbeatResponse answers POST /api/v1/heartbeat. Held reports whether
// the lease is still the worker's; a false tells it to abandon the chunk.
type HeartbeatResponse struct {
	Held bool `json:"held"`
}

// Upload statuses.
const (
	UploadAccepted    = "accepted"
	UploadDuplicate   = "duplicate"
	UploadRejected    = "rejected"
	UploadQuarantined = "quarantined"
)

// UploadResponse answers POST /api/v1/chunk.
type UploadResponse struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 10<<20))
	// A key no JobSpec field reads is a misspelt or retired option; running
	// the campaign without it would be a different campaign than the one asked.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id, err := s.Submit(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, SubmitResponse{ID: id})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireDue(time.Now())
	j := s.jobs[r.PathValue("id")]
	if j == nil {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	st := JobStatus{
		ID: j.id, State: j.state.String(),
		DoneChunks: j.merger.Done(), TotalChunks: len(j.chunks), Stats: j.stats,
	}
	for _, ws := range s.workers {
		if ws.quarantined {
			st.QuarantinedWorkers = append(st.QuarantinedWorkers, ws.id)
		}
	}
	sort.Strings(st.QuarantinedWorkers)
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.report != nil {
		st.Iterations = j.report.Iterations
		st.UniqueSignatures = j.report.UniqueSignatures
		st.Violations = len(j.report.Violations)
		st.AssertionFailures = len(j.report.AssertionFailures)
		st.Failed = j.report.Failed()
	}
	writeJSON(w, st)
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(j.specJSON)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || !validWorkerID(req.Worker) {
		http.Error(w, "bad lease request", http.StatusBadRequest)
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireDue(now)
	ws := s.worker(req.Worker, now)
	if ws.quarantined {
		writeJSON(w, LeaseResponse{Status: LeaseQuarantined})
		return
	}
	drained := true
	for _, id := range s.jobIDs {
		j := s.jobs[id]
		if j.state != jobRunning || j.merger.Done() == len(j.chunks) {
			continue
		}
		drained = false
		for c := range j.chunks {
			cs := &j.chunks[c]
			if cs.status != chunkPending || now.Before(cs.eligible) {
				continue
			}
			if cs.attempt >= s.opts.maxAttempts() {
				s.fail(j, fmt.Errorf("dist: chunk %d undispatchable after %d attempts", c, cs.attempt))
				break
			}
			cs.status = chunkLeased
			cs.worker = ws.id
			cs.deadline = now.Add(s.opts.leaseTTL())
			cs.attempt++
			ws.leases[leaseKey{j.id, c}] = struct{}{}
			op := obs.LeaseGranted
			if cs.attempt > 1 {
				op = obs.ChunkRedispatched
				j.stats.Redispatched++
			}
			obs.EmitLease(s.obsrv, obs.LeaseEvent{
				Op: op, Job: j.id, Chunk: c, Worker: ws.id,
				Attempt: cs.attempt - 1, Time: now,
			})
			writeJSON(w, LeaseResponse{Status: LeaseOK, Job: j.id, Chunk: c, TTL: s.opts.leaseTTL()})
			return
		}
	}
	if drained {
		writeJSON(w, LeaseResponse{Status: LeaseDrained})
		return
	}
	writeJSON(w, LeaseResponse{Status: LeaseWait})
}

// validWorkerID is what the lease, heartbeat and upload doors admit as a
// worker ID: it becomes a map key, a log field and a /metrics label, so it is
// non-empty, at most 128 bytes, valid UTF-8 and free of control characters.
func validWorkerID(id string) bool {
	return id != "" && len(id) <= 128 && utf8.ValidString(id) && strings.IndexFunc(id, unicode.IsControl) < 0
}

// worker returns (registering if needed) the state for a worker ID the door
// has validated. Callers hold s.mu.
func (s *Server) worker(id string, now time.Time) *workerState {
	ws := s.workers[id]
	if ws == nil {
		ws = &workerState{id: id, leases: make(map[leaseKey]struct{})}
		s.workers[id] = ws
		obs.EmitWorker(s.obsrv, obs.WorkerEvent{Op: obs.WorkerJoin, Worker: id, Time: now})
		s.logf("dist: worker %s joined", id)
	}
	return ws
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || !validWorkerID(req.Worker) {
		http.Error(w, "bad heartbeat", http.StatusBadRequest)
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireDue(now)
	j := s.jobs[req.Job]
	held := j != nil && req.Chunk >= 0 && req.Chunk < len(j.chunks) &&
		j.chunks[req.Chunk].status == chunkLeased && j.chunks[req.Chunk].worker == req.Worker
	if held {
		j.chunks[req.Chunk].deadline = now.Add(s.opts.leaseTTL())
	}
	writeJSON(w, HeartbeatResponse{Held: held})
}

func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	// The worker header is authoritative for striking: when the payload is
	// corrupt, nothing inside it can be trusted, including its worker field.
	sender := r.Header.Get("X-Mtracecheck-Worker")
	data, err := io.ReadAll(io.LimitReader(r.Body, 256<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	u, decodeErr := DecodeChunkUpload(data)
	if sender == "" && u != nil {
		sender = u.Worker
	}
	if !validWorkerID(sender) {
		http.Error(w, "bad worker ID", http.StatusBadRequest)
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireDue(now)
	if decodeErr != nil {
		writeJSON(w, s.strike(nil, -1, sender, now, decodeErr))
		return
	}
	j := s.jobs[u.Job]
	if j == nil {
		writeJSON(w, s.strike(nil, -1, sender, now, fmt.Errorf("dist: upload for unknown job %q", u.Job)))
		return
	}
	if u.Chunk < 0 || u.Chunk >= len(j.chunks) {
		writeJSON(w, s.strike(j, -1, sender, now, fmt.Errorf("dist: upload for chunk %d outside grid of %d", u.Chunk, len(j.chunks))))
		return
	}
	// The upload resolves this worker's lease on the chunk either way.
	cs := &j.chunks[u.Chunk]
	if cs.status == chunkLeased && cs.worker == sender {
		delete(s.workers[sender].leases, leaseKey{j.id, u.Chunk})
		cs.status = chunkPending
		cs.worker = ""
		cs.eligible = now
	}
	if j.state != jobRunning {
		// Late upload for a finished job: harmless straggler.
		writeJSON(w, UploadResponse{Status: UploadDuplicate})
		return
	}
	var fresh bool
	switch {
	case u.ErrKind == UploadCrash:
		// A platform crash is a finding that fails the whole campaign, as
		// in-process. The honest reporter is not struck.
		s.fail(j, workerError{u.Err, mtracecheck.ErrCrash})
		writeJSON(w, UploadResponse{Status: UploadAccepted})
		return
	case u.ErrKind == UploadShardFailed && !j.spec.Strict:
		// A chunk lost after the worker's retries lands as its partial
		// result and a ShardFailure, through the merger method the
		// in-process campaign uses.
		s.logf("dist: job %s chunk %d lost on %s: %s", j.id, u.Chunk, sender, u.Err)
		fresh, err = j.merger.AbsorbLost(&u.ChunkResult, workerError{u.Err, mtracecheck.ErrShardFailed})
	case u.ErrKind != UploadOK:
		// Any other worker-side failure (and a Strict job's lost chunk):
		// back off and let another worker try, up to the dispatch cap.
		cs.eligible = now.Add(s.opts.backoff(cs.attempt))
		s.logf("dist: job %s chunk %d failed on %s: %s", j.id, u.Chunk, sender, u.Err)
		writeJSON(w, UploadResponse{Status: UploadAccepted})
		return
	default:
		fresh, err = j.merger.Absorb(&u.ChunkResult)
	}
	if err != nil {
		writeJSON(w, s.strike(j, u.Chunk, sender, now, err))
		return
	}
	if !fresh {
		j.stats.Duplicates++
		obs.EmitLease(s.obsrv, obs.LeaseEvent{
			Op: obs.ChunkDuplicate, Job: j.id, Chunk: u.Chunk, Worker: sender,
			Attempt: cs.attempt - 1, Time: now,
		})
		writeJSON(w, UploadResponse{Status: UploadDuplicate})
		return
	}
	cs.status = chunkDone
	if j.merger.CheckpointDue() {
		s.checkpoint(j)
	}
	if j.merger.Done() == len(j.chunks) {
		s.finalize(j)
	}
	writeJSON(w, UploadResponse{Status: UploadAccepted})
}

// workerError is an execution error as a worker reported it: the text of the
// runner's error, matching the sentinel its upload kind names, so a report
// carries it as the in-process campaign carries the runner's own error.
type workerError struct {
	text string
	kind error
}

func (e workerError) Error() string { return e.text }

func (e workerError) Is(target error) bool { return target == e.kind }

// strike records an upload-validation failure against a worker, emits the
// rejection, and quarantines the worker once it crosses the threshold —
// revoking every lease it still holds. Callers hold s.mu.
func (s *Server) strike(j *job, chunk int, worker string, now time.Time, cause error) UploadResponse {
	jobID := ""
	if j != nil {
		jobID = j.id
		j.stats.Rejected++
	}
	ws := s.worker(worker, now)
	ws.strikes++
	obs.EmitLease(s.obsrv, obs.LeaseEvent{
		Op: obs.UploadRejected, Job: jobID, Chunk: chunk, Worker: worker, Time: now,
	})
	s.logf("dist: upload from %s rejected (strike %d): %v", worker, ws.strikes, cause)
	threshold := s.opts.quarantineAfter()
	if threshold > 0 && ws.strikes >= threshold && !ws.quarantined {
		ws.quarantined = true
		revoked := 0
		for lk := range ws.leases {
			if lj := s.jobs[lk.job]; lj != nil && lj.chunks[lk.chunk].status == chunkLeased &&
				lj.chunks[lk.chunk].worker == worker {
				s.releaseLease(lj, lk.chunk, now)
				revoked++
			}
		}
		clear(ws.leases)
		obs.EmitWorker(s.obsrv, obs.WorkerEvent{
			Op: obs.WorkerQuarantined, Worker: worker, Strikes: ws.strikes,
			Leases: revoked, Time: now,
		})
		s.logf("dist: worker %s quarantined after %d rejected uploads (%d leases revoked)",
			worker, ws.strikes, revoked)
		return UploadResponse{Status: UploadQuarantined, Error: cause.Error()}
	}
	return UploadResponse{Status: UploadRejected, Error: cause.Error()}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
}
