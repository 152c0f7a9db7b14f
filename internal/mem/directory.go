package mem

import (
	"fmt"
	"math/bits"

	"mtracecheck/internal/eventq"
)

// dirState is the directory's stable view of one line.
type dirState uint8

const (
	dirU  dirState = iota // uncached: memory is the only copy
	dirS                  // shared by one or more caches, memory clean
	dirEM                 // owned (Exclusive or Modified) by one cache
)

func (s dirState) String() string {
	switch s {
	case dirU:
		return "U"
	case dirS:
		return "S"
	case dirEM:
		return "EM"
	default:
		return fmt.Sprintf("dirState(%d)", uint8(s))
	}
}

// dirLine is the directory entry for one line. A busy entry is servicing a
// transaction that awaits owner data, invalidation acks, or the grantee's
// fill acknowledgment; further requests queue FIFO behind it (blocking
// directory). Holding the line busy until the fill is consumed guarantees a
// forwarded request can never observe an owner whose grant is still in
// flight.
//
// The responses a transaction awaits are not delivered as events: each one
// changes only this busy line, which no request sees before the response's
// arrival time, so the directory acts on it when it is sent, at that time
// (see System.arrival). The last invalidation ack or the owner's response
// composes the grant to leave DirLat after its arrival; the fill's ack frees
// the line as of its arrival (freeAt).
//
// A freed line serves its next request at once, as of freeAt: the requests
// queued behind the fill when its ack is sent, or the first to arrive after.
// Every service acts as of max(now, freeAt) — its grant, forwards,
// invalidations and WBAck leave that much later — so the line answers
// nothing before freeAt. Its memory is written only by its own
// transactions (a PutM served, an owner's dirty data), so serving early with
// that timestamp shows nobody anything sooner.
//
// The zero value is an untouched line: uncached, idle, no sharers.
type dirLine struct {
	state      dirState
	busy       bool
	touched    bool // listed in directory.touched
	filled     bool // busy, but free as of freeAt: the grantee's FillAck is sent and nothing is queued
	owner      int
	sharers    uint64      // bit c set: cache c holds the line Shared
	cur        message     // request in service while busy
	acksNeeded int         // invalidation acks still to come
	acksAt     eventq.Time // the latest arrival of an invalidation ack so far
	freeAt     eventq.Time // the last FillAck's arrival: nothing is served before it
	queue      []int32     // message slots of the requests waiting behind cur
}

// directory is the single home node of all lines.
type directory struct {
	sys     *System
	lines   []dirLine // by line-table index (see System.lineOf)
	touched []int32   // entries that received a message since the last reset
}

func newDirectory(s *System) *directory { return &directory{sys: s} }

// reset rewinds the entries the iteration touched to the uncached state in
// place, keeping their queues' capacity. The queued slots go with
// System.Reset's message slots.
func (d *directory) reset() {
	for _, li := range d.touched {
		l := &d.lines[li]
		*l = dirLine{queue: l.queue[:0]}
	}
	d.touched = d.touched[:0]
}

// busyLines counts the lines with pending work. A line whose only pending
// work is its fill's acknowledgment in flight is idle: it frees itself when
// the next request arrives.
func (d *directory) busyLines() int {
	n := 0
	for _, li := range d.touched {
		if l := &d.lines[li]; l.busy && !l.filled {
			n++
		}
	}
	return n
}

// receive dispatches the request in slot arriving at the directory and
// reports whether it kept the slot (queued the request behind a busy line).
// A line whose FillAck is sent is unblocked first, whether or not the ack
// has arrived: the request is served as of its arrival.
func (d *directory) receive(slot int32) bool {
	m := d.sys.msgs[slot]
	li := d.sys.lineOf(m.base)
	l := &d.lines[li]
	if !l.touched {
		l.touched = true
		d.touched = append(d.touched, int32(li))
	}
	switch m.typ {
	case msgGetS, msgGetM, msgPutM:
		if l.filled {
			d.unblock(l, li)
		}
		if l.busy {
			l.queue = append(l.queue, slot)
			return true
		}
		d.service(l, li, m)
	default:
		panic(fmt.Sprintf("mem: directory received %v", m))
	}
	return false
}

// invAck takes an invalidation ack for line-table entry li arriving at at.
// The last one grants M to the requester from memory, leaving DirLat after
// the latest ack's arrival.
func (d *directory) invAck(li int, at eventq.Time) {
	l := &d.lines[li]
	if !l.busy || l.acksNeeded <= 0 {
		panic(fmt.Sprintf("mem: unexpected InvAck for line %#x", l.cur.base))
	}
	l.acksNeeded--
	l.acksAt = max(l.acksAt, at)
	if l.acksNeeded == 0 {
		// All sharers gone: grant M to the requester from memory.
		req := l.cur.from
		l.sharers = 0
		l.state = dirEM
		l.owner = req
		d.grant(req, msgDataM, l.cur.base, li, l.acksAt-d.sys.q.Now())
	}
}

// ownerResponse takes the response of the owner from to a forwarded request
// for line-table entry li, arriving at at; a dirty owner has already copied
// its data into memory. keepsCopy marks an owner that retains a Shared copy.
// The grant leaves DirLat after the response's arrival.
func (d *directory) ownerResponse(li, from int, keepsCopy bool, at eventq.Time) {
	l := &d.lines[li]
	if !l.busy {
		panic(fmt.Sprintf("mem: owner response for idle line %#x", l.cur.base))
	}
	req, wait := l.cur.from, at-d.sys.q.Now()
	switch l.cur.typ {
	case msgGetS:
		l.state = dirS
		l.sharers = 1 << req
		if keepsCopy {
			l.sharers |= 1 << from
		}
		d.grant(req, msgDataS, l.cur.base, li, wait)
	case msgGetM:
		l.state = dirEM
		l.owner = req
		l.sharers = 0
		d.grant(req, msgDataM, l.cur.base, li, wait)
	default:
		panic(fmt.Sprintf("mem: owner response while servicing %v", l.cur.typ))
	}
}

// fillAck takes the grantee from's acknowledgment of its fill of line-table
// entry li, arriving at at: the line is free as of at. Requests already
// queued are served now, as of at; a later one unblocks the line when it
// arrives (receive).
func (d *directory) fillAck(li, from int, at eventq.Time) {
	l := &d.lines[li]
	if !l.busy || l.filled || l.cur.from != from {
		panic(fmt.Sprintf("mem: unexpected FillAck from %d for line %#x", from, l.cur.base))
	}
	l.filled, l.freeAt = true, at
	if len(l.queue) > 0 {
		d.unblock(l, li)
	}
}

// grant sends a fill carrying the current memory copy of the line, which
// leaves the directory after its occupancy plus extra cycles (memory
// latency, the wait for the response it answers to arrive, or for the line
// to be free). The grant is composed now — the data snapshotted, the message
// counted and its jitter drawn — and delivered by one event. Memory cannot
// change before the grant leaves: the line is busy.
func (d *directory) grant(to int, typ msgType, base uint64, li int, extra eventq.Time) {
	slot := d.sys.newMsg(message{typ: typ, from: -1, base: base,
		row: d.sys.copyRow(d.sys.memLine(li))})
	d.sys.post(to, slot, d.sys.cfg.DirLat+extra)
}

// service handles one request on an idle line, as of max(now, freeAt): what
// it sends leaves wait cycles from now. GetS/GetM always leave the line busy:
// either awaiting an owner response / invalidation acks, or (once a grant is
// sent) awaiting the grantee's FillAck.
func (d *directory) service(l *dirLine, li int, m message) {
	wait := max(0, l.freeAt-d.sys.q.Now())
	switch m.typ {
	case msgGetS:
		l.busy = true
		l.cur = m
		switch l.state {
		case dirU:
			l.state = dirEM
			l.owner = m.from
			d.grant(m.from, msgDataE, m.base, li, wait+d.sys.cfg.MemLat)
		case dirS:
			l.sharers |= 1 << m.from
			d.grant(m.from, msgDataS, m.base, li, wait)
		case dirEM:
			if l.owner == m.from {
				// The owner silently dropped a clean line and re-requested:
				// memory is current.
				d.grant(m.from, msgDataE, m.base, li, wait)
				return
			}
			d.sys.send(l.owner, message{typ: msgFwdGetS, from: -1, base: m.base}, wait)
		}
	case msgGetM:
		l.busy = true
		l.cur = m
		switch l.state {
		case dirU:
			l.state = dirEM
			l.owner = m.from
			d.grant(m.from, msgDataM, m.base, li, wait+d.sys.cfg.MemLat)
		case dirS:
			others := l.sharers &^ (1 << m.from)
			if others == 0 {
				l.state = dirEM
				l.owner = m.from
				l.sharers = 0
				d.grant(m.from, msgDataM, m.base, li, wait)
				return
			}
			l.acksNeeded = bits.OnesCount64(others)
			// Fan out in ascending core order: message sequencing (and hence
			// simulated timing) depends on it.
			for ; others != 0; others &= others - 1 {
				d.sys.send(bits.TrailingZeros64(others), message{typ: msgInv, from: -1, base: m.base}, wait)
			}
		case dirEM:
			if l.owner == m.from {
				// Owner silently dropped clean line, now writing.
				d.grant(m.from, msgDataM, m.base, li, wait)
				return
			}
			d.sys.send(l.owner, message{typ: msgFwdGetM, from: -1, base: m.base}, wait)
		}
	case msgPutM:
		if l.state == dirEM && l.owner == m.from {
			copy(d.sys.memLine(li), d.sys.row(m.row))
			l.state = dirU
			l.owner = 0
			l.sharers = 0
		}
		// Stale PutM (ownership already transferred via a forward): the data
		// was already supplied to the directory by the writeback buffer.
		d.sys.send(m.from, message{typ: msgWBAck, from: -1, base: m.base}, wait)
	}
}

// unblock finishes the busy transaction and serves queued requests, as of
// freeAt, until the line blocks again or the queue empties, freeing each
// slot once served. freeAt stays: a request served without blocking the line
// (a PutM) holds the ones after it to the same time.
func (d *directory) unblock(l *dirLine, li int) {
	l.busy, l.filled = false, false
	l.cur = message{}
	l.acksNeeded, l.acksAt = 0, 0
	for !l.busy && len(l.queue) > 0 {
		slot := l.queue[0]
		// Pop by copy-down so the queue keeps its backing array for reuse.
		n := copy(l.queue, l.queue[1:])
		l.queue = l.queue[:n]
		d.service(l, li, d.sys.msgs[slot])
		d.sys.freeMsg(slot)
	}
}
