// Package mem implements the coherent memory substrate of the simulated
// validation platform: per-core private L1 caches kept coherent by a
// blocking directory-based MESI protocol with explicit messages, transient
// states, writeback races, and configurable latencies.
//
// The package stands in for the cache hierarchies of the paper's silicon
// platforms (Core 2 Quad, Exynos 5422) and for gem5's MESI implementation in
// the bug-injection case studies (§7). Two of the paper's three injected
// bugs live here:
//
//   - Bug 1 ("protocol issue"): an invalidation received while a line is in
//     the Shared→Modified transient does not notify the core, so younger
//     loads that performed early against the stale Shared data are never
//     squashed — a ld→ld ordering violation (the Peekaboo problem).
//   - Bug 3 ("race in cache coherence protocol"): an owner that has a
//     writeback (PutM) in flight ignores forwarded requests for that line,
//     deadlocking the directory — every affected run crashes, as in the
//     paper's Table 3.
//
// (Bug 2, the load-queue issue, lives in package sim.)
//
// Timing: every message takes NetLat plus a uniformly random jitter cycles;
// cache hits take TagLat; the directory adds DirLat and memory fills MemLat.
// Timing variability — hit vs. miss vs. line ping-pong — is what produces
// the non-deterministic interleavings the paper measures, so latencies are
// deliberately coarse but state-dependent.
//
// Scheduling is closure-free: every deferred action is a typed eventq.Event
// whose kind lives in the package's reserved kind space (KindBase and up),
// routed back in through Dispatch by the engine's jump table. Requests carry
// a caller-chosen completion token instead of a callback; the system reports
// completions synchronously through the hook set with SetCompleteHook.
// Every copy of a line outside backing memory — a message's data, a
// writeback buffer, a cache way's data — is a row of one arena (System.rows),
// and messages, MSHRs and pending-replay records live in reused slots, so a
// steady-state iteration allocates nothing.
//
// Per-line state — backing memory, directory entries, each cache's MSHR and
// writeback slots — lives in dense tables indexed by line number (see
// System.lineOf), and the directory's sharer set is a bit set, so the
// per-message path does no map operation. Reset restores a fresh system from
// any state, in flight or deadlocked, and clears only the lines and cache
// ways the iteration touched.
package mem

import (
	"fmt"
	"math/bits"
	"slices"

	"mtracecheck/internal/eventq"
)

// KindBase is the first event kind owned by package mem. The engine's
// dispatch routes every event with Kind >= KindBase to System.Dispatch;
// kinds below KindBase belong to the engine.
const KindBase uint8 = 0x80

// Event kinds scheduled by the memory system. Payload layout is private to
// this package: events are produced here and consumed by Dispatch.
const (
	// kindDeliver delivers message slot Op to cache Core (or the directory
	// when Core is negative) — the network hop.
	kindDeliver = KindBase + iota
	// kindLoadHit replays a load hit on cache Core after tag latency;
	// Op indexes the pending-request pool.
	kindLoadHit
	// kindStoreHit replays a store hit on cache Core after tag latency;
	// Op indexes the pending-request pool.
	kindStoreHit
	// kindWake unblocks the directory line at base Arg when its fill's
	// acknowledgment arrives, for the requests queued behind it.
	kindWake
)

// Bugs selects injectable protocol defects (paper §7).
type Bugs struct {
	// StaleSMInv is bug 1: skip the core notification for invalidations
	// that arrive while the line has an outstanding upgrade (S→M).
	StaleSMInv bool
	// WBRaceDeadlock is bug 3: the owner ignores FwdGetS/FwdGetM for lines
	// sitting in its writeback buffer, deadlocking the protocol.
	WBRaceDeadlock bool
}

// Config parameterizes the memory system. LineSize, WordSize and Sets are
// powers of two, so an address splits into line, word and set by shifts and
// masks.
type Config struct {
	Cores    int
	LineSize int // bytes per line
	WordSize int // bytes per word (4)
	Sets     int // L1 sets
	Ways     int // L1 ways

	TagLat eventq.Time // L1 hit latency
	NetLat eventq.Time // per-message network latency
	DirLat eventq.Time // directory occupancy per request
	MemLat eventq.Time // backing-memory access latency
	Jitter int         // max extra cycles added per message (uniform)

	Bugs Bugs
}

// DefaultConfig returns a 4-core, 32 KiB (256-set, 2-way) configuration with
// latencies loosely modeled on the paper's desktop platform.
func DefaultConfig(cores int) Config {
	return Config{
		Cores: cores, LineSize: 64, WordSize: 4, Sets: 256, Ways: 2,
		TagLat: 2, NetLat: 12, DirLat: 4, MemLat: 60, Jitter: 6,
	}
}

// TinyCacheConfig shrinks the L1 to 1 KiB 2-way (8 sets), the calibration
// the paper uses for bugs 1 and 3 to intensify evictions under a small
// working set.
func TinyCacheConfig(cores int) Config {
	c := DefaultConfig(cores)
	c.Sets, c.Ways = 8, 2
	return c
}

// maxCores is the width of the directory's sharer bit set.
const maxCores = 64

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Cores < 1 || c.Cores > maxCores:
		return fmt.Errorf("mem: %d cores outside [1,%d]", c.Cores, maxCores)
	case c.LineSize <= 0 || c.WordSize <= 0:
		return fmt.Errorf("mem: bad line/word sizes %d/%d", c.LineSize, c.WordSize)
	case !powerOfTwo(c.LineSize):
		return fmt.Errorf("mem: LineSize %d is not a power of two", c.LineSize)
	case !powerOfTwo(c.WordSize):
		return fmt.Errorf("mem: WordSize %d is not a power of two", c.WordSize)
	case c.WordSize > c.LineSize:
		return fmt.Errorf("mem: bad line/word sizes %d/%d", c.LineSize, c.WordSize)
	case c.Sets < 1 || c.Ways < 1:
		return fmt.Errorf("mem: bad geometry %d sets × %d ways", c.Sets, c.Ways)
	case !powerOfTwo(c.Sets):
		return fmt.Errorf("mem: Sets %d is not a power of two", c.Sets)
	case c.TagLat < 0 || c.NetLat < 0 || c.DirLat < 0 || c.MemLat < 0 || c.Jitter < 0:
		return fmt.Errorf("mem: negative latency")
	}
	return nil
}

func powerOfTwo(n int) bool { return n&(n-1) == 0 }

// Stats counts memory-system activity.
type Stats struct {
	Loads, Stores int64 // completed operations
	Hits, Misses  int64
	Messages      int64
	Invalidations int64
	Writebacks    int64
	Stalls        int64 // requests stalled for a free way
}

// System is the coherent memory system. It is single-goroutine: all methods
// must be called from event dispatch of the owning queue or between runs.
type System struct {
	cfg    Config
	wpl    int // words per line
	q      *eventq.Queue
	rng    interface{ Intn(int) int }
	caches []*cache
	dir    *directory
	stats  Stats

	// The geometry as shifts and masks (Config's sizes are powers of two).
	lineShift uint   // log2 LineSize
	wordShift uint   // log2 WordSize
	lineMask  uint64 // LineSize-1: an address's offset within its line
	setMask   uint64 // Sets-1: a line number's set

	// Line tables: memory here, dir.lines, and every cache's mshrs and wb
	// are indexed by line number minus origin and cover nLines lines. They
	// grow together (growLines) when an access names a line outside them.
	memory []uint32 // backing store, wpl words per line
	origin int
	nLines int

	outstanding int // incomplete Read/Write operations

	// Message slots: in-flight protocol messages live in msgs, addressed by
	// the slot index riding in the event. A message's data is a row it owns.
	msgs    []message
	msgFree []int32

	// Pending-request slots for tag-latency hit replays.
	pend     []memReq
	pendFree []int32

	// Line rows: every line copy outside memory — message data, writeback
	// buffers, cache-way data — is a row of wpl words, addressed by row
	// number. Row 0 is reserved, so a zero row field means none.
	rows    []uint32
	rowFree []int32

	// invalHook, when set, is called whenever a cache loses read permission
	// on a line it had granted loads from (Inv or FwdGetM). The execution
	// engine uses it to squash speculatively performed loads.
	invalHook func(core int, base uint64)

	// completeHook receives every finished Read/Write: the request's token
	// and, for reads, the loaded value. Called synchronously from dispatch.
	completeHook func(tok int64, v uint32)
}

// NewSystem builds a memory system scheduling on q and drawing jitter from
// rng (which must not be shared with concurrent users; a *math/rand.Rand
// will do).
func NewSystem(q *eventq.Queue, cfg Config, rng interface{ Intn(int) int }) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, wpl: cfg.LineSize / cfg.WordSize, q: q, rng: rng,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		wordShift: uint(bits.TrailingZeros(uint(cfg.WordSize))),
		lineMask:  uint64(cfg.LineSize - 1),
		setMask:   uint64(cfg.Sets - 1),
	}
	s.rows = make([]uint32, s.wpl)
	s.dir = newDirectory(s)
	for i := 0; i < cfg.Cores; i++ {
		s.caches = append(s.caches, newCache(s, i))
	}
	return s, nil
}

// SetInvalHook registers the invalidation callback (see System doc).
func (s *System) SetInvalHook(fn func(core int, base uint64)) { s.invalHook = fn }

// SetCompleteHook registers the completion callback invoked for every
// finished Read/Write. It must be set before issuing requests.
func (s *System) SetCompleteHook(fn func(tok int64, v uint32)) { s.completeHook = fn }

// Stats returns a snapshot of activity counters.
func (s *System) Stats() Stats { return s.stats }

func (s *System) lineBase(addr uint64) uint64 { return addr &^ s.lineMask }

func (s *System) wordIndex(addr uint64) int { return int(addr&s.lineMask) >> s.wordShift }

// lineOf returns the line-table index of the line at base, growing the
// tables to cover it if need be. Growth re-indexes every table, so indices
// and pointers into the tables taken before a call that can grow are stale
// after it; only the first access to a line (cache.access, PeekWord) can
// grow, every message names a line some access already covered.
func (s *System) lineOf(base uint64) int {
	i := int(base>>s.lineShift) - s.origin
	if uint(i) >= uint(s.nLines) {
		i = s.growLines(i + s.origin)
	}
	return i
}

// lineBlock is the granularity of the line tables: they cover whole aligned
// blocks of this many lines, so a test program's few dozen consecutive lines
// are covered by the first access or two instead of one regrow per line.
const lineBlock = 64

// growLines extends the line tables to cover line number line and returns
// its index. The tables are dense over the span of lines touched, and that
// span at least doubles per call, so even a wide span costs a logarithmic
// number of regrows.
func (s *System) growLines(line int) int {
	lo, hi := line&^(lineBlock-1), line|(lineBlock-1)+1
	shift := 0
	if n := s.nLines; n > 0 {
		if line < s.origin {
			lo, hi = max(0, min(lo, s.origin-n)), s.origin+n
		} else {
			lo, hi = s.origin, max(hi, s.origin+2*n)
		}
		shift = s.origin - lo
	}
	n := hi - lo
	s.memory = regrow(s.memory, shift*s.wpl, n*s.wpl)
	s.dir.lines = regrow(s.dir.lines, shift, n)
	for i := range s.dir.touched {
		s.dir.touched[i] += int32(shift)
	}
	for _, c := range s.caches {
		c.mshrs = regrow(c.mshrs, shift, n)
		c.wb = regrow(c.wb, shift, n)
	}
	s.origin, s.nLines = lo, n
	return line - lo
}

// regrow returns a zeroed table of n entries holding old's at offset shift.
func regrow[T any](old []T, shift, n int) []T {
	t := make([]T, n)
	copy(t[shift:], old)
	return t
}

// memLine returns the backing-store copy of line-table entry li.
func (s *System) memLine(li int) []uint32 {
	return s.memory[li*s.wpl : (li+1)*s.wpl : (li+1)*s.wpl]
}

// netDelay returns one message's latency including jitter.
func (s *System) netDelay() eventq.Time {
	d := s.cfg.NetLat
	if s.cfg.Jitter > 0 {
		d += eventq.Time(s.rng.Intn(s.cfg.Jitter + 1))
	}
	return d
}

// newRow claims a row and returns its number. Its words are unspecified:
// every row is written whole before it is read.
func (s *System) newRow() int32 {
	if n := len(s.rowFree); n > 0 {
		r := s.rowFree[n-1]
		s.rowFree = s.rowFree[:n-1]
		return r
	}
	r := int32(len(s.rows) / s.wpl)
	s.rows = slices.Grow(s.rows, s.wpl)[:len(s.rows)+s.wpl]
	return r
}

// row returns the words of row r. Claiming a row may move the arena, so the
// slice is not to be kept across a newRow.
func (s *System) row(r int32) []uint32 {
	i := int(r) * s.wpl
	return s.rows[i : i+s.wpl : i+s.wpl]
}

// copyRow claims a row holding a copy of line. line may be a row: a newRow
// that moves the arena leaves the old array, and so line, intact.
func (s *System) copyRow(line []uint32) int32 {
	r := s.newRow()
	copy(s.row(r), line)
	return r
}

func (s *System) freeRow(r int32) { s.rowFree = append(s.rowFree, r) }

// newMsg claims a message slot holding m. The message owns m.row, if any,
// until freeMsg.
func (s *System) newMsg(m message) int32 {
	var slot int32
	if n := len(s.msgFree); n > 0 {
		slot = s.msgFree[n-1]
		s.msgFree = s.msgFree[:n-1]
	} else {
		slot = int32(len(s.msgs))
		s.msgs = append(s.msgs, message{})
	}
	s.msgs[slot] = m
	return slot
}

func (s *System) freeMsg(slot int32) {
	if r := s.msgs[slot].row; r != 0 {
		s.freeRow(r)
	}
	s.msgFree = append(s.msgFree, slot)
}

// newPend claims a pending-request slot for a tag-latency replay.
func (s *System) newPend(req memReq) int32 {
	var slot int32
	if n := len(s.pendFree); n > 0 {
		slot = s.pendFree[n-1]
		s.pendFree = s.pendFree[:n-1]
	} else {
		slot = int32(len(s.pend))
		s.pend = append(s.pend, memReq{})
	}
	s.pend[slot] = req
	return slot
}

func (s *System) takePend(slot int32) memReq {
	req := s.pend[slot]
	s.pendFree = append(s.pendFree, slot)
	return req
}

// post puts a composed message slot on the network to the directory
// (to == -1) or to cache to, delivered after wait cycles at its sender plus
// the network's latency: one Messages count, one jitter draw and one event.
func (s *System) post(to int, slot int32, wait eventq.Time) {
	s.q.Push(eventq.Event{At: s.arrival() + wait, Kind: kindDeliver, Core: int32(to), Op: slot})
}

// send composes and posts a message in one step.
func (s *System) send(to int, m message) { s.post(to, s.newMsg(m), 0) }

// arrival counts one message leaving now, draws its network latency and
// returns when it arrives. A cache → directory response goes no further: the
// directory acts on it at that time without an event (see dirLine).
func (s *System) arrival() eventq.Time {
	s.stats.Messages++
	return s.q.Now() + s.netDelay()
}

// Dispatch routes a typed event scheduled by this package. The engine's
// event handler forwards every event with Kind >= KindBase here.
func (s *System) Dispatch(ev eventq.Event) {
	switch ev.Kind {
	case kindDeliver:
		// Freed only after receive returns, as handlers read the message's
		// row, and not at all when the directory queues the slot.
		if to := int(ev.Core); to < 0 {
			if s.dir.receive(ev.Op) {
				return
			}
		} else {
			s.caches[to].receive(s.msgs[ev.Op])
		}
		s.freeMsg(ev.Op)
	case kindLoadHit:
		s.caches[ev.Core].replayLoadHit(ev.Op)
	case kindStoreHit:
		s.caches[ev.Core].replayStoreHit(ev.Op)
	case kindWake:
		s.dir.wake(uint64(ev.Arg))
	default:
		panic(fmt.Sprintf("mem: Dispatch of unknown kind %d", ev.Kind))
	}
}

// finish retires one performed request and reports it to the engine: a load
// with the value it read, a store with 0.
func (s *System) finish(req memReq) {
	s.outstanding--
	v := req.val
	if req.isWrite {
		s.stats.Stores++
		v = 0
	} else {
		s.stats.Loads++
	}
	s.completeHook(req.tok, v)
}

// Read issues a load of the word at addr on behalf of core. The completion
// hook receives tok and the loaded value when the load performs.
func (s *System) Read(core int, addr uint64, tok int64) {
	s.outstanding++
	s.caches[core].access(memReq{addr: addr, tok: tok})
}

// Write issues a store of val to the word at addr on behalf of core. The
// completion hook receives tok (value 0) when the store has obtained write
// permission and updated the line (i.e. the store is globally visible).
func (s *System) Write(core int, addr uint64, val uint32, tok int64) {
	s.outstanding++
	s.caches[core].access(memReq{isWrite: true, addr: addr, val: val, tok: tok})
}

// Quiescent reports whether no operations or writebacks are in flight. A
// fill's acknowledgment still on its way to an otherwise idle line is not
// pending work (see directory.busyLines).
func (s *System) Quiescent() bool {
	if s.outstanding != 0 || s.dir.busyLines() != 0 {
		return false
	}
	for _, c := range s.caches {
		if c.nMSHR != 0 || c.nWB != 0 || len(c.stalled) != 0 {
			return false
		}
	}
	return true
}

// Reset restores the initial state (all memory zero, caches empty) from any
// state: whatever is in flight — messages, requests queued at the directory,
// MSHRs, writebacks, stalled and pending requests — is discarded. Events the
// queue still holds name discarded slots, so the caller empties the queue
// (eventq.Queue.Reset) with it. Backing storage (line tables, the row arena,
// slots) is kept for reuse and only what the iteration touched is zeroed — a
// memory line changes only through a directory message for it, a cache way
// only after the cache reserved it — so a reset system behaves identically
// to a freshly built one without re-paying its construction allocations or
// sweeping every cache way. The error is always nil.
func (s *System) Reset() error {
	for _, li := range s.dir.touched {
		clear(s.memLine(int(li)))
	}
	s.dir.reset()
	for _, c := range s.caches {
		c.reset()
	}
	s.msgs, s.msgFree = s.msgs[:0], s.msgFree[:0]
	s.pend, s.pendFree = s.pend[:0], s.pendFree[:0]
	s.rows, s.rowFree = s.rows[:s.wpl], s.rowFree[:0]
	s.outstanding = 0
	s.stats = Stats{}
	return nil
}

// CheckInvariants verifies the single-writer/multiple-reader property and
// cache/directory agreement at a quiescent point. Intended for tests.
func (s *System) CheckInvariants() error {
	if !s.Quiescent() {
		return fmt.Errorf("mem: CheckInvariants while not quiescent")
	}
	type holder struct {
		core  int
		state lineState
	}
	byLine := make(map[uint64][]holder)
	for _, c := range s.caches {
		for i := range c.lines {
			if ln := &c.lines[i]; ln.state != stateI {
				byLine[ln.base] = append(byLine[ln.base], holder{c.id, ln.state})
			}
		}
	}
	for base, hs := range byLine {
		writers, readers := 0, 0
		for _, h := range hs {
			if h.state == stateM || h.state == stateE {
				writers++
			} else {
				readers++
			}
		}
		if writers > 1 || (writers == 1 && readers > 0) {
			return fmt.Errorf("mem: SWMR violated on line %#x: %+v", base, hs)
		}
	}
	return nil
}
