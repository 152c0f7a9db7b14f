// Package eventq provides the discrete-event scheduler underlying the
// simulated validation platform: a time-ordered queue of typed event records
// with a monotonic clock. Events at equal times run in scheduling order
// (FIFO), so simulations are fully deterministic for a given seed.
//
// Events are plain value records (Event) dispatched through a handler set
// with SetHandler — no per-event closure allocation on the hot path.
//
// The queue is a timing wheel: the simulator's delays are small bounded
// integers (every latency and jitter on the platform presets is below 400
// cycles), so an event due less than span cycles ahead goes straight into
// the bucket of its timestamp and is popped in O(1); the few longer delays
// (OS scheduling quanta) wait in a small heap until the clock comes within
// span of them. DESIGN.md §10 has the ordering argument.
package eventq

import "math/bits"

// Time is a simulation timestamp in abstract cycles.
type Time int64

// Event is a typed event record. Kind selects the dispatch arm in the
// handler's jump table; Core, Op, and Arg are payload fields whose meaning
// is private to the producer of each kind. At is filled in by the queue.
type Event struct {
	At   Time
	Kind uint8
	Core int32
	Op   int32
	Arg  int64
}

// span is the wheel's reach in cycles: an event due less than span cycles
// from now is bucketed directly. A power of two, so the bucket of a
// timestamp is its low bits.
const span = 1 << 10

const (
	mask     = span - 1
	occWords = span / 64
	none     = int32(-1)
)

// node is one wheel entry; next links the bucket's FIFO list (and the free
// list) through the shared node pool.
type node struct {
	ev   Event
	next int32
}

// bucket is the FIFO list of the events of one timestamp. Its fields are
// meaningful only while the bucket's occupancy bit is set.
type bucket struct{ head, tail int32 }

// farEntry is an event due span or more cycles ahead, ordered by time and
// then by scheduling sequence.
type farEntry struct {
	ev  Event
	seq int64
}

func (a farEntry) before(b farEntry) bool {
	if a.ev.At != b.ev.At {
		return a.ev.At < b.ev.At
	}
	return a.seq < b.seq
}

// Queue is a discrete-event scheduler. The zero value is not ready for use;
// call New.
//
// Invariants: every wheel event is due in [now, now+span), so distinct
// pending timestamps occupy distinct buckets and a bucket's append order is
// the scheduling order of its one timestamp; every far event is due at
// now+span or later. Step restores the second invariant each time it
// advances the clock, before the handler can schedule anything — see
// migrate.
type Queue struct {
	now     Time
	handler func(Event)

	wheel   [span]bucket
	occ     [occWords]uint64 // bit b set: wheel[b] is non-empty
	inWheel int
	nodes   []node
	free    int32 // head of the free list threaded through nodes, or none

	far []farEntry // binary min-heap
	seq int64      // scheduling sequence of far events
}

// New returns an empty queue with the clock at zero.
func New() *Queue { return &Queue{free: none} }

// SetHandler installs the dispatch function invoked for every event. It
// survives Reset, so a Runner installs it once at construction. Stepping a
// non-empty queue with no handler installed panics.
func (q *Queue) SetHandler(h func(Event)) { q.handler = h }

// Now returns the current simulation time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.inWheel + len(q.far) }

// Reset discards all pending events and rewinds the clock and scheduling
// sequence to zero, keeping the underlying storage (and the handler) for
// reuse. A reset queue behaves exactly like a freshly New'd one.
func (q *Queue) Reset() {
	clear(q.occ[:])
	q.far = q.far[:0]
	// Nothing is pending, so every node is free: dropping the pool's length
	// and the free list makes node numbering restart like a new queue's.
	q.nodes = q.nodes[:0]
	q.free = none
	q.inWheel = 0
	q.now, q.seq = 0, 0
}

// Push schedules a typed event at the absolute time ev.At. Scheduling in
// the past (before Now) runs the event at the current time instead; time
// never moves backwards.
func (q *Queue) Push(ev Event) {
	if ev.At < q.now {
		ev.At = q.now
	}
	if ev.At-q.now < span {
		q.bucketAppend(ev)
		return
	}
	q.seq++
	q.far = append(q.far, farEntry{ev: ev, seq: q.seq})
	q.farUp(len(q.far) - 1)
}

// PushAfter schedules a typed event delay cycles from now.
func (q *Queue) PushAfter(delay Time, ev Event) {
	ev.At = q.now + delay
	q.Push(ev)
}

// bucketAppend links ev at the tail of its timestamp's bucket.
func (q *Queue) bucketAppend(ev Event) {
	n := q.free
	if n != none {
		q.free = q.nodes[n].next
	} else {
		n = int32(len(q.nodes))
		q.nodes = append(q.nodes, node{})
	}
	// Field by field: building a node{ev, next} value spills ev field-sized
	// and reloads it 16 bytes at a time, which stalls store forwarding.
	nd := &q.nodes[n]
	nd.ev.At, nd.ev.Kind, nd.ev.Core, nd.ev.Op, nd.ev.Arg = ev.At, ev.Kind, ev.Core, ev.Op, ev.Arg
	nd.next = none
	b := int(ev.At) & mask
	bk := &q.wheel[b]
	if w, bit := b>>6, uint64(1)<<(b&63); q.occ[w]&bit == 0 {
		q.occ[w] |= bit
		bk.head = n
	} else {
		q.nodes[bk.tail].next = n
	}
	bk.tail = n
	q.inWheel++
}

// nextBucket returns the first occupied bucket at or after the current
// time's, in wheel order. The wheel must not be empty.
func (q *Queue) nextBucket() int {
	start := int(q.now) & mask
	w := start >> 6
	if m := q.occ[w] &^ (uint64(1)<<(start&63) - 1); m != 0 {
		return w<<6 | bits.TrailingZeros64(m)
	}
	// The last round revisits the first word for the bits below start.
	for i := 1; i <= occWords; i++ {
		ww := (w + i) & (occWords - 1)
		if m := q.occ[ww]; m != 0 {
			return ww<<6 | bits.TrailingZeros64(m)
		}
	}
	panic("eventq: occupancy bitmap empty with wheel events pending")
}

// migrate moves every far event that has come within span of the clock into
// its bucket, in (time, sequence) order. A far event for time T was
// scheduled when the clock was at most T-span, and an event for T can be
// bucketed directly only once the clock is past T-span, so every far event
// for T was scheduled before every direct one; running this on each clock
// advance, before the handler, appends them to T's bucket first, and the
// bucket's order is the global scheduling order.
func (q *Queue) migrate() {
	for len(q.far) > 0 && q.far[0].ev.At-q.now < span {
		q.bucketAppend(q.far[0].ev)
		n := len(q.far) - 1
		q.far[0] = q.far[n]
		q.far = q.far[:n]
		q.farDown(0)
	}
}

func (q *Queue) farUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.far[i].before(q.far[parent]) {
			return
		}
		q.far[i], q.far[parent] = q.far[parent], q.far[i]
		i = parent
	}
}

func (q *Queue) farDown(i int) {
	n := len(q.far)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && q.far[r].before(q.far[l]) {
			min = r
		}
		if !q.far[min].before(q.far[i]) {
			return
		}
		q.far[i], q.far[min] = q.far[min], q.far[i]
		i = min
	}
}

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event was run.
func (q *Queue) Step() bool {
	var b int
	switch {
	case q.inWheel > 0:
		b = q.nextBucket()
		q.now += Time((b - int(q.now)) & mask)
	case len(q.far) > 0:
		q.now = q.far[0].ev.At
		b = int(q.now) & mask
	default:
		return false
	}
	q.migrate()
	bk := &q.wheel[b]
	n := bk.head
	nd := &q.nodes[n]
	// Field by field, for the reason bucketAppend writes it so.
	ev := Event{At: nd.ev.At, Kind: nd.ev.Kind, Core: nd.ev.Core, Op: nd.ev.Op, Arg: nd.ev.Arg}
	if next := nd.next; next != none {
		bk.head = next
	} else {
		q.occ[b>>6] &^= uint64(1) << (b & 63)
	}
	nd.next = q.free
	q.free = n
	q.inWheel--
	q.handler(ev)
	return true
}

// RunUntil processes events until the queue is empty, done returns true, or
// maxEvents events have run. It returns the number of events processed.
// A maxEvents of 0 means no limit. The done predicate is checked before each
// event.
func (q *Queue) RunUntil(done func() bool, maxEvents int) int {
	n := 0
	for q.Len() > 0 {
		if done != nil && done() {
			return n
		}
		if maxEvents > 0 && n >= maxEvents {
			return n
		}
		q.Step()
		n++
	}
	return n
}
