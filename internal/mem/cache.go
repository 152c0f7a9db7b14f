package mem

import "fmt"

// lineState is a cache line's MESI stable state.
type lineState uint8

const (
	stateI lineState = iota
	stateS
	stateE
	stateM
)

func (s lineState) String() string {
	switch s {
	case stateI:
		return "I"
	case stateS:
		return "S"
	case stateE:
		return "E"
	case stateM:
		return "M"
	default:
		return fmt.Sprintf("lineState(%d)", uint8(s))
	}
}

// cacheLine is one L1 way.
type cacheLine struct {
	base    uint64
	state   lineState
	row     int32 // the way's data (see System.rows), claimed at its first reservation
	lastUse int64 // monotonic use counter for LRU
	pending bool  // reserved by an outstanding mshr
}

// memReq is one load or store presented to the cache. tok is the caller's
// completion token, handed back through the System's completion hook. val is
// the value a store writes; a load that has performed carries the value it
// read there.
type memReq struct {
	isWrite bool
	addr    uint64
	val     uint32
	tok     int64
}

// mshr tracks one outstanding miss or upgrade for a line, including every
// request that arrived for the line while the transaction was in flight.
// MSHRs are pooled per cache; queued keeps its capacity across reuse.
type mshr struct {
	way    int  // index into cache.lines of the reserved way
	wantM  bool // some queued request needs write permission
	queued []memReq
}

// cache is one core's private L1 controller.
type cache struct {
	sys   *System
	id    int
	lines []cacheLine // Sets × Ways, set-major
	used  []int32     // ways reserved since the last reset (indices into lines)

	// Outstanding transactions and writebacks, by line-table index (see
	// System.lineOf); nil and row 0 mean none. The counts serve Quiescent
	// and reset.
	mshrs    []*mshr
	nMSHR    int
	mshrFree []*mshr
	wb       []int32 // writeback buffer rows: PutM sent, WBAck pending
	nWB      int

	stalled    []memReq // requests waiting for a free way
	stalledAlt []memReq // double buffer for retryStalled
	filled     []memReq // requests a fill performed, finished once its MSHR is settled
	useCtr     int64
}

func newCache(s *System, id int) *cache {
	return &cache{sys: s, id: id, lines: make([]cacheLine, s.cfg.Sets*s.cfg.Ways)}
}

// reset returns the ways the iteration reserved to their initial state and
// discards outstanding transactions, writebacks and stalled requests. A way
// leaves its initial state only through the reservation in access, which
// records it. The rows the ways and writebacks held go with System.Reset's
// arena.
func (c *cache) reset() {
	for _, i := range c.used {
		c.lines[i] = cacheLine{}
	}
	c.used = c.used[:0]
	if c.nMSHR != 0 {
		for li, m := range c.mshrs {
			if m != nil {
				c.freeMSHR(li, m)
			}
		}
	}
	if c.nWB != 0 {
		clear(c.wb)
		c.nWB = 0
	}
	c.stalled = c.stalled[:0]
	c.useCtr = 0
}

// newMSHR claims an MSHR from the pool and files it under line-table index
// li.
func (c *cache) newMSHR(li, way int, wantM bool) *mshr {
	var m *mshr
	if n := len(c.mshrFree); n > 0 {
		m = c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
	} else {
		m = &mshr{}
	}
	m.way, m.wantM = way, wantM
	m.queued = m.queued[:0]
	c.mshrs[li] = m
	c.nMSHR++
	return m
}

func (c *cache) freeMSHR(li int, m *mshr) {
	m.queued = m.queued[:0]
	c.mshrFree = append(c.mshrFree, m)
	c.mshrs[li] = nil
	c.nMSHR--
}

// setOf returns the index in lines of the first way of base's set.
func (c *cache) setOf(base uint64) int {
	return int(base>>c.sys.lineShift&c.sys.setMask) * c.sys.cfg.Ways
}

// find returns the index in lines of the resident line for base, or -1.
func (c *cache) find(base uint64) int {
	first := c.setOf(base)
	for i := first; i < first+c.sys.cfg.Ways; i++ {
		if ln := &c.lines[i]; ln.base == base && (ln.state != stateI || ln.pending) {
			return i
		}
	}
	return -1
}

// lookup returns the resident line for base, or nil.
func (c *cache) lookup(base uint64) *cacheLine {
	if i := c.find(base); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

func (c *cache) touch(ln *cacheLine) {
	c.useCtr++
	ln.lastUse = c.useCtr
}

// access presents a load or store to the cache.
func (c *cache) access(req memReq) {
	base := c.sys.lineBase(req.addr)
	li := c.sys.lineOf(base)

	// Coalesce into an existing transaction for the line.
	if m := c.mshrs[li]; m != nil {
		m.queued = append(m.queued, req)
		if req.isWrite && !m.wantM {
			// The original transaction was read-only; an upgrade will be
			// issued when the fill arrives (see fill).
			m.wantM = true
		}
		return
	}

	if way := c.find(base); way >= 0 && c.lines[way].state != stateI {
		ln := &c.lines[way]
		c.touch(ln)
		if !req.isWrite {
			// Load hit: the word is read and the load completes now.
			c.sys.stats.Hits++
			req.val = c.sys.row(ln.row)[c.sys.wordIndex(req.addr)]
			c.sys.finish(req)
			return
		}
		switch ln.state {
		case stateE, stateM:
			// Store hit with write permission (E→M silently): the word is
			// written and the store completes now.
			c.sys.stats.Hits++
			ln.state = stateM
			c.sys.row(ln.row)[c.sys.wordIndex(req.addr)] = req.val
			c.sys.finish(req)
			return
		case stateS:
			// Upgrade: keep the Shared data resident, request M.
			c.sys.stats.Misses++
			m := c.newMSHR(li, way, true)
			m.queued = append(m.queued, req)
			ln.pending = true
			c.sys.send(-1, message{typ: msgGetM, from: c.id, base: base}, 0)
			return
		}
	}

	// Miss: reserve a way, evicting if necessary.
	c.sys.stats.Misses++
	way := c.pickVictim(c.setOf(base))
	if way < 0 {
		c.sys.stats.Stalls++
		c.stalled = append(c.stalled, req)
		return
	}
	c.evict(way)
	ln := &c.lines[way]
	row := ln.row
	if row == 0 {
		// First reservation since the reset: reset will have to undo it.
		c.used = append(c.used, int32(way))
		row = c.sys.newRow()
	}
	*ln = cacheLine{base: base, state: stateI, pending: true, row: row}
	c.touch(ln)
	m := c.newMSHR(li, way, req.isWrite)
	m.queued = append(m.queued, req)
	typ := msgGetS
	if req.isWrite {
		typ = msgGetM
	}
	c.sys.send(-1, message{typ: typ, from: c.id, base: base}, 0)
}

// pickVictim returns an evictable way (an index into lines) of the set whose
// first way is first: an invalid way if any, else the least recently used
// non-pending way, else -1.
func (c *cache) pickVictim(first int) int {
	best, bestUse := -1, int64(1<<62)
	for i := first; i < first+c.sys.cfg.Ways; i++ {
		ln := &c.lines[i]
		if ln.pending {
			continue
		}
		if ln.state == stateI {
			return i
		}
		if ln.lastUse < bestUse {
			best, bestUse = i, ln.lastUse
		}
	}
	return best
}

// evict removes the line in way; dirty lines go to the writeback buffer and
// a PutM is sent. Clean lines are dropped silently (MESI).
func (c *cache) evict(way int) {
	ln := &c.lines[way]
	if ln.state == stateM {
		c.wb[c.sys.lineOf(ln.base)] = c.sys.copyRow(c.sys.row(ln.row))
		c.nWB++
		c.sys.stats.Writebacks++
		c.sys.send(-1, message{typ: msgPutM, from: c.id, base: ln.base,
			row: c.sys.copyRow(c.sys.row(ln.row))}, 0)
	}
	ln.state = stateI
}

// retryStalled re-presents stalled requests after a way freed up. The two
// stalled buffers ping-pong so re-stalled requests land in the other one.
func (c *cache) retryStalled() {
	if len(c.stalled) == 0 {
		return
	}
	reqs := c.stalled
	c.stalled, c.stalledAlt = c.stalledAlt[:0], reqs
	for _, r := range reqs {
		c.access(r)
	}
}

// receive handles a protocol message addressed to this cache.
func (c *cache) receive(m message) {
	li := c.sys.lineOf(m.base)
	switch m.typ {
	case msgDataS, msgDataE, msgDataM:
		c.fill(m, li)
	case msgInv:
		c.invalidate(m.base, li)
		c.sys.dir.invAck(li, c.sys.arrival())
	case msgFwdGetS:
		c.forward(m.base, li, false)
	case msgFwdGetM:
		c.forward(m.base, li, true)
	case msgWBAck:
		if r := c.wb[li]; r != 0 {
			c.sys.freeRow(r)
			c.wb[li] = 0
			c.nWB--
		}
	default:
		panic(fmt.Sprintf("mem: cache %d received %v", c.id, m))
	}
}

// invalidate drops any copy of the line and notifies the core unless bug 1
// suppresses the notification for lines with an outstanding upgrade.
func (c *cache) invalidate(base uint64, li int) {
	notify := true
	if c.sys.cfg.Bugs.StaleSMInv {
		if m := c.mshrs[li]; m != nil && m.wantM {
			// Bug 1: invalidation during the S→M transient fails to squash
			// the core's already-performed loads.
			notify = false
		}
	}
	if ln := c.lookup(base); ln != nil && ln.state != stateI {
		ln.state = stateI
		c.sys.stats.Invalidations++
	}
	if notify && c.sys.invalHook != nil {
		c.sys.invalHook(c.id, base)
	}
}

// forward services FwdGetS/FwdGetM: supply the line to the directory from
// the live copy or the writeback buffer. Dirty data goes straight into
// memory, which nothing reads while the directory line is busy.
func (c *cache) forward(base uint64, li int, isGetM bool) {
	if ln := c.lookup(base); ln != nil && (ln.state == stateE || ln.state == stateM) {
		if ln.state == stateM {
			copy(c.sys.memLine(li), c.sys.row(ln.row))
		}
		if isGetM {
			// Respond after the squash hook runs, preserving hook-before-send
			// ordering.
			ln.state = stateI
			c.sys.stats.Invalidations++
			if c.sys.invalHook != nil {
				c.sys.invalHook(c.id, base)
			}
			c.sys.dir.ownerResponse(li, c.id, false, c.sys.arrival())
		} else {
			ln.state = stateS
			c.sys.dir.ownerResponse(li, c.id, true, c.sys.arrival())
		}
		return
	}
	if r := c.wb[li]; r != 0 {
		if c.sys.cfg.Bugs.WBRaceDeadlock {
			// Bug 3: the owner ignores forwarded requests racing with its
			// writeback; the directory waits forever.
			return
		}
		copy(c.sys.memLine(li), c.sys.row(r))
		c.sys.dir.ownerResponse(li, c.id, false, c.sys.arrival())
		return
	}
	// Silently dropped clean line (E→I): memory is up to date.
	if isGetM && c.sys.invalHook != nil {
		c.sys.invalHook(c.id, base)
	}
	c.sys.dir.ownerResponse(li, c.id, false, c.sys.arrival())
}

// fill completes an outstanding transaction with data and permission.
func (c *cache) fill(m message, li int) {
	tx := c.mshrs[li]
	if tx == nil {
		panic(fmt.Sprintf("mem: cache %d fill for line %#x without mshr", c.id, m.base))
	}
	ln := &c.lines[tx.way]
	if ln.base != m.base {
		panic(fmt.Sprintf("mem: cache %d fill slot holds %#x, want %#x", c.id, ln.base, m.base))
	}
	copy(c.sys.row(ln.row), c.sys.row(m.row))
	switch m.typ {
	case msgDataS:
		ln.state = stateS
	case msgDataE:
		ln.state = stateE
	case msgDataM:
		ln.state = stateM
	}
	c.touch(ln)
	// Acknowledge the fill so the directory can unblock the line.
	c.sys.dir.fillAck(li, c.id, c.sys.arrival())

	// Perform the queued requests in arrival order. A write met while the
	// line is only Shared re-issues the transaction as GetM, and it and the
	// requests behind it wait in the MSHR for the DataM fill.
	c.filled = c.filled[:0]
	upgrade := false
	for len(tx.queued) > 0 {
		req := tx.queued[0]
		idx := c.sys.wordIndex(req.addr)
		if req.isWrite {
			if ln.state == stateS {
				upgrade = true
				break
			}
			ln.state = stateM
			c.sys.row(ln.row)[idx] = req.val
		} else {
			req.val = c.sys.row(ln.row)[idx]
		}
		// Pop by copy-down so the queue keeps its backing array for reuse.
		n := copy(tx.queued, tx.queued[1:])
		tx.queued = tx.queued[:n]
		c.filled = append(c.filled, req)
	}
	if upgrade {
		c.sys.send(-1, message{typ: msgGetM, from: c.id, base: m.base}, 0)
	} else {
		ln.pending = false
		c.freeMSHR(li, tx)
		c.retryStalled()
	}
	// The performed requests complete with the fill, on either path. The
	// completion hook only schedules events, so it cannot reach back into
	// this cache while filled is walked.
	for _, req := range c.filled {
		c.sys.finish(req)
	}
}
