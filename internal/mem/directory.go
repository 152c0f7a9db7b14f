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
// The zero value is an untouched line: uncached, idle, no sharers.
type dirLine struct {
	state      dirState
	busy       bool
	touched    bool // listed in directory.touched
	owner      int
	sharers    uint64  // bit c set: cache c holds the line Shared
	cur        message // request in service while busy
	acksNeeded int
	queue      []int32 // message slots of the requests waiting behind cur
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

func (d *directory) busyLines() int {
	n := 0
	for _, li := range d.touched {
		if d.lines[li].busy {
			n++
		}
	}
	return n
}

// receive dispatches the message in slot arriving at the directory and
// reports whether it kept the slot (queued the request behind a busy line).
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
		if l.busy {
			l.queue = append(l.queue, slot)
			return true
		}
		d.service(l, li, m)
	case msgInvAck:
		if !l.busy || l.acksNeeded <= 0 {
			panic(fmt.Sprintf("mem: unexpected InvAck for line %#x", m.base))
		}
		l.acksNeeded--
		if l.acksNeeded == 0 {
			// All sharers gone: grant M to the requester from memory.
			req := l.cur.from
			l.sharers = 0
			l.state = dirEM
			l.owner = req
			d.grant(req, msgDataM, m.base, li, 0)
		}
	case msgOwnerData, msgOwnerNoData:
		if !l.busy {
			panic(fmt.Sprintf("mem: owner response for idle line %#x", m.base))
		}
		if m.typ == msgOwnerData && m.dirty {
			copy(d.sys.memLine(li), d.sys.row(m.row))
		}
		req := l.cur.from
		switch l.cur.typ {
		case msgGetS:
			l.state = dirS
			l.sharers = 1 << req
			if m.keepsCopy {
				l.sharers |= 1 << m.from
			}
			d.grant(req, msgDataS, m.base, li, 0)
		case msgGetM:
			l.state = dirEM
			l.owner = req
			l.sharers = 0
			d.grant(req, msgDataM, m.base, li, 0)
		default:
			panic(fmt.Sprintf("mem: owner response while servicing %v", l.cur.typ))
		}
	case msgFillAck:
		if !l.busy || l.cur.from != m.from {
			panic(fmt.Sprintf("mem: unexpected FillAck from %d for line %#x", m.from, m.base))
		}
		d.unblock(l, li)
	default:
		panic(fmt.Sprintf("mem: directory received %v", m))
	}
	return false
}

// grant sends a fill carrying the current memory copy of the line, which
// leaves the directory after its occupancy plus any extra (memory) latency.
// The grant is composed now — the data snapshotted, the message counted and
// its jitter drawn — and delivered by one event.
func (d *directory) grant(to int, typ msgType, base uint64, li, extra int) {
	slot := d.sys.newMsg(message{typ: typ, from: -1, base: base,
		row: d.sys.copyRow(d.sys.memLine(li))})
	d.sys.post(to, slot, d.sys.cfg.DirLat+eventq.Time(extra))
}

// service handles one request on an idle line. GetS/GetM always leave the
// line busy: either awaiting an owner response / invalidation acks, or (once
// a grant is sent) awaiting the grantee's FillAck.
func (d *directory) service(l *dirLine, li int, m message) {
	switch m.typ {
	case msgGetS:
		l.busy = true
		l.cur = m
		switch l.state {
		case dirU:
			l.state = dirEM
			l.owner = m.from
			d.grant(m.from, msgDataE, m.base, li, int(d.sys.cfg.MemLat))
		case dirS:
			l.sharers |= 1 << m.from
			d.grant(m.from, msgDataS, m.base, li, 0)
		case dirEM:
			if l.owner == m.from {
				// The owner silently dropped a clean line and re-requested:
				// memory is current.
				d.grant(m.from, msgDataE, m.base, li, 0)
				return
			}
			d.sys.send(l.owner, message{typ: msgFwdGetS, from: -1, base: m.base})
		}
	case msgGetM:
		l.busy = true
		l.cur = m
		switch l.state {
		case dirU:
			l.state = dirEM
			l.owner = m.from
			d.grant(m.from, msgDataM, m.base, li, int(d.sys.cfg.MemLat))
		case dirS:
			others := l.sharers &^ (1 << m.from)
			if others == 0 {
				l.state = dirEM
				l.owner = m.from
				l.sharers = 0
				d.grant(m.from, msgDataM, m.base, li, 0)
				return
			}
			l.acksNeeded = bits.OnesCount64(others)
			// Fan out in ascending core order: message sequencing (and hence
			// simulated timing) depends on it.
			for ; others != 0; others &= others - 1 {
				d.sys.send(bits.TrailingZeros64(others), message{typ: msgInv, from: -1, base: m.base})
			}
		case dirEM:
			if l.owner == m.from {
				// Owner silently dropped clean line, now writing.
				d.grant(m.from, msgDataM, m.base, li, 0)
				return
			}
			d.sys.send(l.owner, message{typ: msgFwdGetM, from: -1, base: m.base})
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
		d.sys.send(m.from, message{typ: msgWBAck, from: -1, base: m.base})
	}
}

// unblock finishes the busy transaction and serves queued requests until the
// line blocks again or the queue empties, freeing each slot once served.
func (d *directory) unblock(l *dirLine, li int) {
	l.busy = false
	l.cur = message{}
	l.acksNeeded = 0
	for !l.busy && len(l.queue) > 0 {
		slot := l.queue[0]
		// Pop by copy-down so the queue keeps its backing array for reuse.
		n := copy(l.queue, l.queue[1:])
		l.queue = l.queue[:n]
		d.service(l, li, d.sys.msgs[slot])
		d.sys.freeMsg(slot)
	}
}
