package obs

import "time"

// Distributed-campaign events. The dist server's robustness machinery —
// lease-based chunk dispatch, worker quarantine, redispatch after expiry —
// emits these so fleet failures are operationally visible instead of
// silently absorbed by the bit-identical merge. They extend the observer
// layer through the optional DistObserver interface rather than Observer
// itself, so every existing Observer implementation keeps compiling and the
// in-process pipeline's contract is untouched.

// WorkerOp identifies a worker-lifecycle transition seen by the dist server.
type WorkerOp uint8

const (
	// WorkerJoin marks the first lease request from a worker ID.
	WorkerJoin WorkerOp = iota
	// WorkerLost marks a worker missing a lease deadline (crash, hang, or
	// partition); its chunks return to the dispatch queue.
	WorkerLost
	// WorkerQuarantined marks a worker whose uploads repeatedly failed
	// validation; the server revokes its leases and refuses it new ones.
	WorkerQuarantined
)

func (op WorkerOp) String() string {
	switch op {
	case WorkerJoin:
		return "join"
	case WorkerLost:
		return "lost"
	case WorkerQuarantined:
		return "quarantined"
	}
	return "worker-op?"
}

// WorkerEvent fires on worker-lifecycle transitions at the dist server.
type WorkerEvent struct {
	Op     WorkerOp
	Worker string
	// Strikes is the worker's accumulated upload-validation failures at the
	// time of the event.
	Strikes int
	// Leases is how many chunk leases the worker held when the event fired
	// (the chunks being returned to the queue for WorkerLost/Quarantined).
	Leases int
	Time   time.Time
}

// LeaseOp identifies a chunk-lease transition at the dist server.
type LeaseOp uint8

const (
	// LeaseGranted marks a chunk handed to a worker under a deadline.
	LeaseGranted LeaseOp = iota
	// LeaseExpired marks a lease whose deadline passed without a completed
	// upload; the chunk returns to the queue with backoff.
	LeaseExpired
	// ChunkRedispatched marks a chunk granted again after a previous lease
	// expired or its worker was quarantined.
	ChunkRedispatched
	// ChunkDuplicate marks a completed upload for an already-finished chunk
	// (a straggler or a retried send); results are bit-identical regardless
	// of who computed them, so the duplicate is counted and discarded.
	ChunkDuplicate
	// UploadRejected marks a chunk upload that failed server-side
	// validation (corrupt payload, checksum mismatch, wrong provenance);
	// it strikes the uploading worker.
	UploadRejected
)

func (op LeaseOp) String() string {
	switch op {
	case LeaseGranted:
		return "granted"
	case LeaseExpired:
		return "expired"
	case ChunkRedispatched:
		return "redispatched"
	case ChunkDuplicate:
		return "duplicate"
	case UploadRejected:
		return "rejected"
	}
	return "lease-op?"
}

// LeaseEvent fires on chunk-lease transitions at the dist server.
type LeaseEvent struct {
	Op     LeaseOp
	Job    string
	Chunk  int
	Worker string
	// Attempt is the chunk's dispatch count so far (0 for the first grant).
	Attempt int
	Time    time.Time
}

// DistObserver is the optional extension an Observer may implement to
// receive distributed-campaign events, which the dist server emits outside
// any campaign. The server's observer is Multi of its Metrics and the
// caller's, always a DistObserver; Multi forwards these events to the members
// that implement it, so observers that don't care simply don't.
// Like Observer methods, these must be safe for concurrent use and must
// not block.
type DistObserver interface {
	WorkerEvent(e WorkerEvent)
	LeaseEvent(e LeaseEvent)
}

// WorkerEvent implements DistObserver, forwarding to the members that do.
func (m multi) WorkerEvent(e WorkerEvent) {
	for _, o := range m {
		if d, ok := o.(DistObserver); ok {
			d.WorkerEvent(e)
		}
	}
}

// LeaseEvent implements DistObserver, forwarding to the members that do.
func (m multi) LeaseEvent(e LeaseEvent) {
	for _, o := range m {
		if d, ok := o.(DistObserver); ok {
			d.LeaseEvent(e)
		}
	}
}
