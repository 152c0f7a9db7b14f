package sim

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"

	"mtracecheck/internal/eventq"
	"mtracecheck/internal/mem"
	"mtracecheck/internal/prog"
)

// ErrDeadlock reports that the platform stopped making progress with
// operations still outstanding — the manifestation of the paper's bug 3
// (all affected runs "crash" the simulation).
var ErrDeadlock = errors.New("sim: protocol deadlock: no progress with operations outstanding")

// ErrLivelock reports that an iteration exceeded its event budget.
var ErrLivelock = errors.New("sim: iteration exceeded event budget")

// Execution is the observable result of one test iteration.
//
// Load values, forwarding marks, and write-serialization orders are stored in
// dense slices rather than maps: operation IDs are contiguous per program
// (thread-major, 0..NumOps-1) and shared words are indexed 0..NumWords-1, so
// index addressing replaces associative lookups on the hot path.
//
// Ownership: the Execution returned by Runner.Run is the Runner's reusable
// scratch buffer — it is valid only until the next Run call on that Runner.
// Callers that retain executions across iterations must Clone them.
type Execution struct {
	// LoadValues holds, indexed by operation ID, the value each load
	// returned. Entries for non-load operations are zero.
	LoadValues []uint32
	// WS lists, per shared word (indexed by word), the store operation IDs in
	// global write-serialization (coherence) order. Words without stores have
	// empty slices.
	WS [][]int
	// Forwarded marks, indexed by operation ID, loads satisfied by
	// store-to-load forwarding from the thread's own store buffer (reads that
	// preceded global visibility).
	Forwarded []bool
	// Cycles is the iteration's duration in simulated cycles.
	Cycles eventq.Time
	// Squashes counts load-queue squash/replay events.
	Squashes int
	// Events counts the discrete events the iteration dispatched, up to the
	// one that retired its last operation.
	Events int
	// MemStats snapshots the memory system counters for the iteration.
	MemStats mem.Stats
	// Timeline holds per-operation timing when the Runner's Trace flag is
	// set: perform (global visibility / value bind) and commit times plus
	// per-op squash counts, in op-ID order.
	Timeline []OpEvent
}

// reset prepares the scratch execution for a fresh iteration.
func (ex *Execution) reset(numOps, numWords int) {
	if cap(ex.LoadValues) < numOps {
		ex.LoadValues = make([]uint32, numOps)
		ex.Forwarded = make([]bool, numOps)
	} else {
		ex.LoadValues = ex.LoadValues[:numOps]
		ex.Forwarded = ex.Forwarded[:numOps]
		clear(ex.LoadValues)
		clear(ex.Forwarded)
	}
	if cap(ex.WS) < numWords {
		ex.WS = make([][]int, numWords)
	} else {
		ex.WS = ex.WS[:numWords]
	}
	for w := range ex.WS {
		ex.WS[w] = ex.WS[w][:0]
	}
	ex.Cycles = 0
	ex.Squashes = 0
	ex.Events = 0
	ex.MemStats = mem.Stats{}
	ex.Timeline = ex.Timeline[:0]
}

// Clone returns a deep copy safe to retain across subsequent Run calls.
func (ex *Execution) Clone() *Execution {
	c := &Execution{
		LoadValues: append([]uint32(nil), ex.LoadValues...),
		Forwarded:  append([]bool(nil), ex.Forwarded...),
		WS:         make([][]int, len(ex.WS)),
		Cycles:     ex.Cycles,
		Squashes:   ex.Squashes,
		Events:     ex.Events,
		MemStats:   ex.MemStats,
	}
	for w, ids := range ex.WS {
		if len(ids) > 0 {
			c.WS[w] = append([]int(nil), ids...)
		}
	}
	if len(ex.Timeline) > 0 {
		c.Timeline = append([]OpEvent(nil), ex.Timeline...)
	}
	return c
}

// WSByWord returns the write-serialization orders as a freshly allocated map
// keyed by shared word, with entries only for words that saw at least one
// store (the shape graph.WS consumers expect). The slices are copies, safe to
// retain across iterations.
func (ex *Execution) WSByWord() map[int][]int {
	m := make(map[int][]int)
	for w, ids := range ex.WS {
		if len(ids) > 0 {
			m[w] = append([]int(nil), ids...)
		}
	}
	return m
}

// OpEvent is one operation's timing within an iteration (Runner.Trace).
type OpEvent struct {
	OpID      int
	Performed eventq.Time
	Committed eventq.Time
	Squashes  int
	Forwarded bool
	Value     uint32
}

// Engine event kinds, dispatched through the jump table in engine.dispatch.
// Kinds at or above mem.KindBase belong to the memory system and are routed
// to mem.System.Dispatch.
const (
	// evThreadStart releases thread slot Core from the iteration's start
	// barrier after its random skew.
	evThreadStart uint8 = 1 + iota
	// evLoadIssue presents a load to the memory system: thread slot Core,
	// op index Op, epoch Arg. The issuing core is read at dispatch time —
	// OS migration may have moved the thread since scheduling.
	evLoadIssue
	// evStoreIssue drains a store from the store buffer into the memory
	// system: thread slot Core, op index Op.
	evStoreIssue
	// evQuantum fires an OS scheduling quantum (see os.go).
	evQuantum
)

// Completion tokens: a load/store issued to the memory system carries its
// requester identity packed into an int64, handed back synchronously through
// the completion hook — (thread slot << 48) | (op index << 32) | epoch.
// NewRunner rejects programs whose dimensions overflow the fields.
const (
	tokSlotShift = 48
	tokOpShift   = 32
	tokEpochMask = (1 << 32) - 1
	maxTokOps    = 1 << 16
	maxTokSlots  = 1 << 15
)

func packTok(slot, op, epoch int) int64 {
	return int64(slot)<<tokSlotShift | int64(op)<<tokOpShift | int64(epoch&tokEpochMask)
}

// opRec tracks one operation's dynamic state within an iteration.
type opRec struct {
	op        prog.Op
	issued    bool
	inFlight  bool
	performed bool // loads: value bound; stores: drained (globally visible)
	committed bool
	buffered  bool // stores: resident in the store buffer
	forwarded bool
	value     uint32
	epoch     int // bumped on squash; stale completions are dropped

	performedAt eventq.Time
	committedAt eventq.Time
	squashes    int
}

// static per-op precomputed indices (shared across iterations).
type opStatic struct {
	prefixFences      int    // fences before this op in its thread
	prefixStores      int    // stores before this op in its thread
	prefixSameWordSt  int    // same-word stores before this op
	prefixSameWordLd  int    // same-word loads before this op
	lastSameWordStore int    // thread-local index of latest earlier same-word store; -1
	nextSameWordStore int    // stores: thread-local index of the next same-word store; -1
	storeIndex        int    // index among the thread's stores (stores only)
	addr              uint64 // memory ops: byte address of the shared word
	line              uint64 // memory ops: base address of addr's line in the platform's caches
}

type thread struct {
	slot     int
	core     int
	ops      []opRec
	static   []opStatic
	storeOps []int // op index of each store, by storeIndex
	next     int   // issue pointer
	commit   int   // commit pointer
	low      int   // oldest op not yet both committed and performed
	sbUsed   int
	running  bool
	started  bool
	retired  bool // every op committed and the store buffer empty; see pumpThread

	// ready is a bitset over op indices: bit i is set exactly when op i is
	// issued, not in flight, not performed, and a load or a buffered store
	// that may drain (see drainable) — the ops pumpThread tries to start.
	// Issuing a load, buffering a drainable store and the drain that makes a
	// buffered store drainable set a bit, starting an access clears it, and
	// a squash sets it again.
	ready []uint64

	committedFences   int
	drainedStores     int
	drainedByWord     []int // same-word drained-store count, indexed by word
	performedLdByWord []int // indexed by word
}

func (t *thread) setReady(i int)   { t.ready[i>>6] |= 1 << (i & 63) }
func (t *thread) clearReady(i int) { t.ready[i>>6] &^= 1 << (i & 63) }

// reset rewinds the thread to the start of an iteration.
func (t *thread) reset(r *Runner) {
	t.core = r.plat.coreOf(t.slot)
	t.next, t.commit, t.low, t.sbUsed = 0, 0, 0, 0
	t.running = true
	t.started = false
	t.retired = false
	t.committedFences = 0
	t.drainedStores = 0
	clear(t.drainedByWord)
	clear(t.performedLdByWord)
	clear(t.ready)
	ops := r.prog.Threads[t.slot].Ops
	for i := range t.ops {
		t.ops[i] = opRec{op: ops[i]}
	}
}

// Source produces executions one iteration at a time, each under the
// per-iteration seed its caller draws from the campaign's SeedStream.
// *Runner is the canonical implementation; wrappers interpose on it (e.g. the
// fault injector's stall/panic shim) without the pipeline knowing.
// Implementations inherit Runner's ownership contract: one goroutine drives
// one Source, and the returned Execution may be a reusable scratch buffer
// valid only until the next call.
type Source interface {
	RunSeeded(seed int64) (*Execution, error)
}

// Runner executes a program repeatedly on a platform, one fresh iteration at
// a time (the paper applies a hard reset before each test run, §5).
//
// A Runner is owned by exactly one goroutine: Run advances its seed stream,
// and both entry points mutate the reusable iteration state, so concurrent
// calls would interleave nondeterministically. Parallel pipelines give each
// worker goroutine its own Runner and feed it per-iteration seeds from a
// SeedStream of the campaign seed via RunSeeded, so any runner can execute
// any iteration; Run and RunSeeded reject concurrent use.
//
// All per-iteration state — the event queue, the memory system, thread and
// op records, and the scratch Execution — is allocated once and reused, so a
// steady-state Run performs no per-iteration setup allocations. Reuse is
// observationally identical to rebuilding from scratch: at the top of every
// iteration the RNG is reseeded (same stream as a fresh rand.New), the event
// queue is emptied and rewound, and the memory system is reset, whatever
// state the previous iteration — finished, deadlocked or out of events —
// left it in.
type Runner struct {
	plat   Platform
	prog   *prog.Program
	seeds  *SeedStream // Run's per-iteration seeds
	static [][]opStatic
	busy   atomic.Int32 // guards the single-goroutine ownership contract

	// Reusable per-iteration state (see begin).
	rng     *randStream // iteration RNG, reseeded from each iteration's seed
	q       *eventq.Queue
	eng     engine
	threads []*thread
	exec    Execution

	// MaxEvents bounds one iteration's event count (0 = default).
	MaxEvents int
	// Trace records per-operation timing into Execution.Timeline.
	Trace bool
}

// SeedStream produces the per-iteration seed sequence of a campaign seed:
// value i is iteration i's seed, for a Runner's own Run calls and for every
// chunk a campaign hands out alike. Feeding RunSeeded from the stream
// decouples results from how iterations are partitioned across workers. The
// stream is drawn incrementally and forward-only, so multi-million-iteration
// campaigns never materialize a full table, and a consumer taking ranges in
// ascending order — what every chunk scheduler hands a chunk runner — draws
// each seed once instead of skipping ahead from iteration 0 per range.
//
// A SeedStream is not safe for concurrent use; every chunk runner and every
// Runner owns one.
type SeedStream struct {
	seed   int64
	master *randStream
	pos    int // global iteration index of the next seed
}

// NewSeedStream returns the seed stream of the given campaign seed,
// positioned at iteration 0.
func NewSeedStream(seed int64) *SeedStream {
	return &SeedStream{seed: seed, master: newRand(seed)}
}

// Next returns the next iteration's seed.
func (s *SeedStream) Next() int64 {
	s.pos++
	return s.master.Int63()
}

// FillFrom fills dst with the seeds of iterations [start, start+len(dst)).
// A start at or past the cursor draws forward to it; one below restarts the
// stream from iteration 0 (reseeding the source it has, not building another).
func (s *SeedStream) FillFrom(start int, dst []int64) {
	if start < s.pos {
		s.master.Seed(s.seed)
		s.pos = 0
	}
	for ; s.pos < start; s.pos++ {
		s.master.Int63()
	}
	for i := range dst {
		dst[i] = s.master.Int63()
	}
	s.pos += len(dst)
}

// NewRunner validates the platform/program pair and prepares static
// analysis shared by all iterations.
func NewRunner(plat Platform, p *prog.Program, seed int64) (*Runner, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !plat.OS.Enabled && p.NumThreads() > plat.Cores {
		return nil, fmt.Errorf("sim: %d threads exceed %d cores without OS scheduling",
			p.NumThreads(), plat.Cores)
	}
	if p.NumThreads() >= maxTokSlots {
		return nil, fmt.Errorf("sim: %d threads overflow the completion-token slot field", p.NumThreads())
	}
	// A layout word narrower than the memory system's would put two shared
	// words in one memory word, where each store overwrites the other.
	if p.Layout.WordSize < plat.Mem.WordSize {
		return nil, fmt.Errorf("sim: layout word=%d is narrower than the platform's %d-byte memory word",
			p.Layout.WordSize, plat.Mem.WordSize)
	}
	for _, th := range p.Threads {
		if len(th.Ops) >= maxTokOps {
			return nil, fmt.Errorf("sim: %d ops per thread overflow the completion-token op field", len(th.Ops))
		}
	}
	r := &Runner{plat: plat, prog: p, seeds: NewSeedStream(seed)}
	// Squashes key on the line the caches invalidate, which is the
	// platform's, not the program layout's.
	lineMask := ^uint64(plat.Mem.LineSize - 1)
	r.static = make([][]opStatic, p.NumThreads())
	threadStores := make([][]int, p.NumThreads()) // per thread: op index of each store
	for ti, th := range p.Threads {
		st := make([]opStatic, len(th.Ops))
		var storeOps []int
		fences, stores := 0, 0
		sameWordSt := map[int]int{}
		sameWordLd := map[int]int{}
		lastStore := map[int]int{}
		for i, op := range th.Ops {
			s := opStatic{
				prefixFences:      fences,
				prefixStores:      stores,
				lastSameWordStore: -1,
				nextSameWordStore: -1,
			}
			if op.IsMemory() {
				s.addr = p.Layout.AddrOf(op.Word)
				s.line = s.addr & lineMask
				s.prefixSameWordSt = sameWordSt[op.Word]
				s.prefixSameWordLd = sameWordLd[op.Word]
				if idx, ok := lastStore[op.Word]; ok {
					s.lastSameWordStore = idx
				}
			}
			switch op.Kind {
			case prog.Fence:
				fences++
			case prog.Store:
				if prev := s.lastSameWordStore; prev >= 0 {
					st[prev].nextSameWordStore = i
				}
				s.storeIndex = stores
				storeOps = append(storeOps, i)
				stores++
				sameWordSt[op.Word]++
				lastStore[op.Word] = i
			case prog.Load:
				sameWordLd[op.Word]++
			}
			st[i] = s
		}
		r.static[ti] = st
		threadStores[ti] = storeOps
	}
	// Reusable iteration state. The RNG is reseeded from the iteration's seed
	// at the top of every run; seeding an existing stream yields exactly the
	// stream a fresh rand.New(rand.NewSource(seed)) would.
	r.rng = newRand(0)
	r.q = eventq.New()
	memCfg := plat.Mem
	memCfg.Cores = plat.Cores
	ms, err := mem.NewSystem(r.q, memCfg, r.rng)
	if err != nil {
		return nil, err
	}
	r.threads = make([]*thread, 0, p.NumThreads())
	for ti, th := range p.Threads {
		t := &thread{
			slot:              ti,
			static:            r.static[ti],
			storeOps:          threadStores[ti],
			ops:               make([]opRec, len(th.Ops)),
			ready:             make([]uint64, (len(th.Ops)+63)/64),
			drainedByWord:     make([]int, p.NumWords),
			performedLdByWord: make([]int, p.NumWords),
		}
		r.threads = append(r.threads, t)
	}
	r.eng = engine{r: r, q: r.q, ms: ms, rng: r.rng, threads: r.threads, exec: &r.exec}
	r.q.SetHandler(r.eng.dispatch)
	ms.SetInvalHook(r.eng.onInvalidate)
	ms.SetCompleteHook(r.eng.onMemComplete)
	return r, nil
}

// engine is the per-iteration dynamic state.
type engine struct {
	r       *Runner
	q       *eventq.Queue
	ms      *mem.System
	rng     *randStream
	threads []*thread
	exec    *Execution

	// Platform parameters the per-event paths read, resolved once per run
	// (see resolve) so the hot loops touch no Platform or Model method.
	squashActive bool // ld→ld ordered: LQ squash machinery engaged
	stLdOrdered  bool // st→ld ordered (SC): loads wait for earlier stores
	stStOrdered  bool // st→st ordered: FIFO store buffer
	forwarding   bool // store-to-load forwarding permitted
	lqSquashSkip bool // bug 2
	window       int
	sbDepth      int
	issueJitter  int
	drainDelay   int
	lateProb     float64
	lateMax      int
	coreDelay    []eventq.Time // empty: no per-core delay

	unretired int // threads with work left; 0 ends the iteration
	rotateIdx int // OS: next thread slot to schedule
}

// resolve copies the platform parameters the hot paths read into the
// engine.
func (e *engine) resolve(p *Platform) {
	e.squashActive = p.Model.Ordered(prog.Load, prog.Load)
	e.stLdOrdered = p.Model.Ordered(prog.Store, prog.Load)
	e.stStOrdered = p.Model.Ordered(prog.Store, prog.Store)
	e.forwarding = p.Atomicity.AllowsForwarding()
	e.lqSquashSkip = p.Bugs.LQSquashSkip
	e.window, e.sbDepth = p.Window, p.SBDepth
	e.issueJitter, e.drainDelay = p.IssueJitterMax, p.DrainDelayMax
	e.lateProb, e.lateMax = p.LateLoadProb, p.LateLoadMax
	e.coreDelay = p.CoreDelay
}

// Run executes the next iteration of the Runner's own seed stream (the
// SeedStream of NewRunner's seed) from a cold, zeroed platform state.
//
// The returned Execution is the Runner's reusable scratch buffer: it is
// valid until the next Run call. Clone it to retain it longer.
func (r *Runner) Run() (*Execution, error) {
	if !r.busy.CompareAndSwap(0, 1) {
		return nil, errors.New("sim: concurrent Runner.Run calls: each Runner must be driven by a single goroutine")
	}
	defer r.busy.Store(0)
	return r.run(r.seeds.Next())
}

// RunSeeded executes one iteration under an explicit per-iteration seed,
// leaving the Runner's own seed stream untouched. It is the streaming
// pipeline's entry point: a chunk runner draws its chunk's seeds from the
// campaign's seed stream (see SeedStream), so any worker's Runner can execute
// any iteration and determinism does not depend on how the iteration sequence
// is partitioned.
//
// The returned Execution is the Runner's reusable scratch buffer, exactly as
// for Run.
func (r *Runner) RunSeeded(seed int64) (*Execution, error) {
	if !r.busy.CompareAndSwap(0, 1) {
		return nil, errors.New("sim: concurrent Runner.RunSeeded calls: each Runner must be driven by a single goroutine")
	}
	defer r.busy.Store(0)
	return r.run(seed)
}

// run executes one iteration under the given per-iteration seed. Callers
// hold the busy guard.
func (r *Runner) run(seed int64) (*Execution, error) {
	r.begin(seed)
	e := &r.eng
	maxEvents := r.MaxEvents
	if maxEvents == 0 {
		maxEvents = 200_000 + 20_000*r.prog.NumOps()
	}
	n := r.q.RunUntil(e.done, maxEvents)
	if !e.done() {
		if n >= maxEvents {
			return nil, ErrLivelock
		}
		return nil, ErrDeadlock
	}
	e.exec.Cycles = r.q.Now()
	e.exec.MemStats = e.ms.Stats()
	if r.Trace {
		for _, t := range e.threads {
			for i := range t.ops {
				o := &t.ops[i]
				e.exec.Timeline = append(e.exec.Timeline, OpEvent{
					OpID:      o.op.ID,
					Performed: o.performedAt,
					Committed: o.committedAt,
					Squashes:  o.squashes,
					Forwarded: o.forwarded,
					Value:     o.value,
				})
			}
		}
	}
	e.exec.Events = n
	return e.exec, nil
}

// begin resets the platform and schedules the iteration's first events: on
// return the queue holds every thread's start (and the first OS quantum) and
// the iteration advances by stepping the queue until the engine is done.
// Whatever the previous iteration left in flight is discarded here.
func (r *Runner) begin(seed int64) {
	e := &r.eng
	r.q.Reset()
	e.ms.Reset()
	r.rng.Seed(seed)
	e.exec.reset(r.prog.NumOps(), r.prog.NumWords)
	e.resolve(&r.plat)
	e.unretired = len(e.threads)
	e.rotateIdx = 0
	for _, t := range e.threads {
		t.reset(r)
	}
	if r.plat.OS.Enabled {
		e.initOS()
	}
	// Threads leave the iteration's release barrier with random skew.
	for _, t := range e.threads {
		delay := eventq.Time(0)
		if m := r.plat.StartJitterMax; m > 0 {
			delay = eventq.Time(r.rng.Intn(m + 1))
		}
		r.q.PushAfter(delay, eventq.Event{Kind: evThreadStart, Core: int32(t.slot)})
	}
	e.pump()
}

// dispatch is the engine's jump table: every typed event the queue pops is
// decoded here by kind. Memory-system kinds route to mem.System.Dispatch.
func (e *engine) dispatch(ev eventq.Event) {
	if ev.Kind >= mem.KindBase {
		e.ms.Dispatch(ev)
		return
	}
	switch ev.Kind {
	case evThreadStart:
		t := e.threads[ev.Core]
		t.started = true
		e.pumpThread(t)
	case evLoadIssue:
		t := e.threads[ev.Core]
		i := int(ev.Op)
		e.ms.Read(t.core, t.static[i].addr, packTok(t.slot, i, int(ev.Arg)))
	case evStoreIssue:
		t := e.threads[ev.Core]
		i := int(ev.Op)
		e.ms.Write(t.core, t.static[i].addr, t.ops[i].op.Value, packTok(t.slot, i, 0))
	case evQuantum:
		if e.done() {
			return
		}
		e.rotate()
		e.scheduleQuantum()
	default:
		panic(fmt.Sprintf("sim: dispatch of unknown event kind %d", ev.Kind))
	}
}

// onMemComplete is the memory system's completion hook: it unpacks the
// requester identity from the token and finishes the load or store. Called
// synchronously from mem dispatch — not via a fresh event — so completion
// ordering is exactly the protocol's delivery ordering.
func (e *engine) onMemComplete(tok int64, v uint32) {
	t := e.threads[tok>>tokSlotShift]
	i := int(tok>>tokOpShift) & (maxTokOps - 1)
	o := &t.ops[i]
	if o.op.Kind == prog.Load {
		e.finishLoad(t, i, int(tok&tokEpochMask), v)
		return
	}
	o.inFlight = false
	o.performed = true
	o.performedAt = e.q.Now()
	t.sbUsed--
	t.drainedStores++
	word := o.op.Word
	t.drainedByWord[word]++
	e.exec.WS[word] = append(e.exec.WS[word], o.op.ID)
	// The drain makes at most one buffered store drainable: the FIFO's next
	// store, or the next store to the same word.
	next := -1
	if e.stStOrdered {
		if t.drainedStores < len(t.storeOps) {
			next = t.storeOps[t.drainedStores]
		}
	} else {
		next = t.static[i].nextSameWordStore
	}
	if next >= 0 && t.ops[next].buffered {
		t.setReady(next)
	}
	e.pumpThread(t)
}

// done reports whether every thread has retired: all ops committed and every
// store drained (committed loads have performed, committed stores are
// buffered, and an empty store buffer means each of those has drained). The
// count is maintained by pumpThread, which runs after every change to a
// thread's commit pointer or store buffer.
func (e *engine) done() bool { return e.unretired == 0 }

func (e *engine) delayOf(core int) eventq.Time {
	if len(e.coreDelay) == 0 {
		return 0
	}
	return e.coreDelay[core]
}

// pump advances every thread. Only events that change several threads at
// once (an OS quantum, the iteration's start) need it; see pumpThread.
func (e *engine) pump() {
	for _, t := range e.threads {
		e.pumpThread(t)
	}
}

// pumpThread advances one thread: commits in order, issues into the window,
// starts eligible load performs and store drains. A load that forwards from
// the store buffer is performed in the pump, which repeats its pass until a
// pass performs no forward: a performed load can commit, and so let further
// ops issue, buffer and forward.
//
// Everything it decides — window occupancy, commit eligibility, and the
// tryLoad/tryDrain ordering checks — reads only the thread's own state, and
// it leaves the thread at a fixpoint: nothing more can issue or commit, and
// every op that can start is in flight. Pumping a thread whose state has not
// changed since its last pump therefore schedules nothing and draws no random
// number, so an event pumps only the threads it changed and the result is
// the event sequence an all-thread pump after every event would produce
// (TestPumpOfUnchangedThreadsIsNoOp).
func (e *engine) pumpThread(t *thread) {
	for forwarded := t.running && t.started; forwarded; {
		forwarded = false
		// Alternate issuing and committing to a fixpoint: issuing a store
		// lets the commit sweep buffer it, which can unblock further
		// issues within the window.
		for {
			before := t.next + t.commit
			for t.next < len(t.ops) && t.next-t.commit < e.window {
				o := &t.ops[t.next]
				o.issued = true
				if o.op.Kind == prog.Load {
					t.setReady(t.next)
				}
				t.next++
			}
			e.commitSweep(t)
			if t.next+t.commit == before {
				break
			}
		}
		// Try the ready ops in program order. The walk begins at the oldest
		// op that is not fully retired: committed stores may still be
		// draining from the store buffer, and committed is not performed for
		// them. A try changes only its own op's bit, so each word is walked
		// from a copy.
		for t.low < t.next && t.ops[t.low].committed && t.ops[t.low].performed {
			t.low++
		}
		for w := t.low >> 6; w<<6 < t.next; w++ {
			for word := t.ready[w]; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				if t.ops[i].op.Kind == prog.Load {
					forwarded = e.tryLoad(t, i) || forwarded
				} else {
					e.tryDrain(t, i)
				}
			}
		}
	}
	// Outside the running check: a descheduled thread's last store can still
	// drain, and the iteration ends on that event.
	if !t.retired && t.commit == len(t.ops) && t.sbUsed == 0 {
		t.retired = true
		e.unretired--
	}
}

// commitSweep retires operations in program order.
func (e *engine) commitSweep(t *thread) {
	for t.commit < len(t.ops) {
		o := &t.ops[t.commit]
		if !o.issued {
			return
		}
		switch o.op.Kind {
		case prog.Load:
			if !o.performed {
				return
			}
		case prog.Store:
			if !o.buffered {
				if t.sbUsed >= e.sbDepth {
					return // store buffer full
				}
				o.buffered = true
				t.sbUsed++
				if e.drainable(t, t.commit) {
					t.setReady(t.commit)
				}
			}
		case prog.Fence:
			// A fence retires only when every earlier store has drained
			// (earlier loads have performed by commit-order construction).
			if t.drainedStores < t.static[t.commit].prefixStores {
				return
			}
			t.committedFences++
			o.performed = true
		}
		o.committed = true
		o.committedAt = e.q.Now()
		t.commit++
	}
}

// tryLoad starts a load perform if its ordering constraints allow, and
// reports whether it performed the load by forwarding.
func (e *engine) tryLoad(t *thread, i int) bool {
	o := &t.ops[i]
	st := t.static[i]

	// Earlier fences must have retired.
	if t.committedFences < st.prefixFences {
		return false
	}
	// Under SC (st→ld preserved) all earlier stores must be globally
	// visible before the load reads.
	if e.stLdOrdered && t.drainedStores < st.prefixStores {
		return false
	}
	// Without squash machinery (RMO), same-word loads perform in order to
	// preserve coherence.
	if !e.squashActive && t.performedLdByWord[o.op.Word] < st.prefixSameWordLd {
		return false
	}
	// Same-word stores: every earlier one must at least be buffered; the
	// youngest decides between forwarding and a memory read.
	if st.lastSameWordStore >= 0 {
		last := &t.ops[st.lastSameWordStore]
		if !last.buffered {
			return false
		}
		if !last.performed {
			// Youngest same-word store still in the store buffer: its
			// (static) program value is forwarded now.
			if !e.forwarding {
				return false // single-copy: wait for the drain
			}
			t.clearReady(i)
			e.performLoad(t, i, last.op.Value, true)
			return true
		}
		if t.drainedByWord[o.op.Word] < st.prefixSameWordSt {
			// An older same-word store is still undrained; reading memory
			// now could return a value older than program order allows.
			return false
		}
	}
	// Perform against the coherent memory system.
	o.inFlight = true
	t.clearReady(i)
	delay := e.delayOf(t.core)
	if m := e.issueJitter; m > 0 {
		delay += eventq.Time(e.rng.Intn(m + 1))
	}
	if p := e.lateProb; p > 0 && e.rng.Float64() < p {
		delay += eventq.Time(e.rng.Intn(e.lateMax + 1))
	}
	e.q.PushAfter(delay, eventq.Event{Kind: evLoadIssue,
		Core: int32(t.slot), Op: int32(i), Arg: int64(o.epoch)})
	return false
}

// finishLoad binds the value a load read from memory, unless the load was
// squashed while the access was in flight, and pumps its thread.
func (e *engine) finishLoad(t *thread, i, epoch int, v uint32) {
	if t.ops[i].epoch != epoch {
		return // squashed mid-flight; the replay owns the op now
	}
	e.performLoad(t, i, v, false)
	e.pumpThread(t)
}

// performLoad binds load i's value.
func (e *engine) performLoad(t *thread, i int, v uint32, forwarded bool) {
	o := &t.ops[i]
	o.inFlight = false
	o.performed = true
	o.performedAt = e.q.Now()
	o.value = v
	o.forwarded = forwarded
	e.exec.LoadValues[o.op.ID] = v
	e.exec.Forwarded[o.op.ID] = forwarded
	if !e.squashActive {
		t.performedLdByWord[o.op.Word]++
	}
}

// drainable reports whether the model's store order lets buffered store i
// drain: it is the FIFO store buffer's head, or, without st→st order, every
// older same-word store has drained (per-word FIFO always holds: coherence).
func (e *engine) drainable(t *thread, i int) bool {
	st := &t.static[i]
	if e.stStOrdered {
		return t.drainedStores == st.storeIndex
	}
	return t.drainedByWord[t.ops[i].op.Word] == st.prefixSameWordSt
}

// tryDrain starts the drain of a drainable buffered store.
func (e *engine) tryDrain(t *thread, i int) {
	o := &t.ops[i]
	o.inFlight = true
	t.clearReady(i)
	delay := e.delayOf(t.core)
	if m := e.drainDelay; m > 0 {
		delay += eventq.Time(e.rng.Intn(m + 1))
	}
	e.q.PushAfter(delay, eventq.Event{Kind: evStoreIssue, Core: int32(t.slot), Op: int32(i)})
}

// onInvalidate is the load-queue squash hook: performed-but-uncommitted
// loads whose line was invalidated replay, preserving the architectural
// ld→ld order — unless bug 2 skips the squash.
func (e *engine) onInvalidate(core int, lineBase uint64) {
	if !e.squashActive {
		return
	}
	if e.lqSquashSkip {
		return // bug 2: the LSQ ignores the invalidation
	}
	for _, t := range e.threads {
		if t.core != core {
			continue
		}
		// A performed load only becomes stale in the ld→ld-appearance sense
		// when some older load has not yet performed: loads that performed
		// in program order already present a legal execution. Find the
		// oldest unperformed load; only younger performed loads on the
		// invalidated line need squashing.
		oldest := -1
		for i := t.commit; i < t.next; i++ {
			o := &t.ops[i]
			if o.op.Kind == prog.Load && !o.performed {
				oldest = i
				break
			}
		}
		if oldest < 0 {
			continue
		}
		squashed := false
		for i := oldest + 1; i < t.next; i++ {
			o := &t.ops[i]
			if o.op.Kind != prog.Load || !o.performed || o.committed {
				continue
			}
			if t.static[i].line != lineBase {
				continue
			}
			e.squashLoad(t, i)
			squashed = true
		}
		if squashed {
			e.pumpThread(t) // replay: the squashed loads are eligible again
		}
	}
}

// squashLoad discards a performed load's value so that it replays: the epoch
// bump drops any completion of the old access, and the load is ready again.
func (e *engine) squashLoad(t *thread, i int) {
	o := &t.ops[i]
	o.performed = false
	o.forwarded = false
	o.epoch++
	o.squashes++
	e.exec.Squashes++
	t.setReady(i)
}

// FormatTimeline renders an execution's timeline as tab-separated text:
// one line per operation with its mnemonic, perform/commit cycles, value,
// and squash count. Requires the Runner's Trace flag.
func FormatTimeline(w io.Writer, p *prog.Program, ex *Execution) error {
	if len(ex.Timeline) == 0 {
		return fmt.Errorf("sim: execution has no timeline (set Runner.Trace)")
	}
	if _, err := fmt.Fprintln(w, "op\tthread\tkind\tperformed\tcommitted\tvalue\tsquashes\tforwarded"); err != nil {
		return err
	}
	for _, ev := range ex.Timeline {
		op := p.OpByID(ev.OpID)
		if _, err := fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%v\n",
			ev.OpID, op.Thread, op, ev.Performed, ev.Committed, ev.Value,
			ev.Squashes, ev.Forwarded); err != nil {
			return err
		}
	}
	return nil
}
