package mem

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mtracecheck/internal/eventq"
)

// bench adapts the token-based System API back to callback style for tests:
// each read/write claims a token, and the completion hook routes the value to
// the registered callback. It also wires the queue's handler to the system's
// dispatch, standing in for the engine's jump table.
type bench struct {
	q    *eventq.Queue
	s    *System
	cbs  map[int64]func(uint32)
	next int64
}

func newBench(q *eventq.Queue, s *System) *bench {
	b := &bench{q: q, s: s, cbs: map[int64]func(uint32){}}
	q.SetHandler(s.Dispatch)
	s.SetCompleteHook(func(tok int64, v uint32) {
		cb := b.cbs[tok]
		delete(b.cbs, tok)
		cb(v)
	})
	return b
}

func (b *bench) read(core int, addr uint64, done func(uint32)) {
	tok := b.next
	b.next++
	b.cbs[tok] = done
	b.s.Read(core, addr, tok)
}

func (b *bench) write(core int, addr uint64, val uint32, done func()) {
	tok := b.next
	b.next++
	b.cbs[tok] = func(uint32) { done() }
	b.s.Write(core, addr, val, tok)
}

// newSys builds a system for tests; jitter 0 keeps scenarios deterministic
// unless a test wants variability.
func newSys(t *testing.T, cores int, cfg Config) (*eventq.Queue, *System, *bench) {
	t.Helper()
	q := eventq.New()
	s, err := NewSystem(q, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	_ = cores
	return q, s, newBench(q, s)
}

func drain(t *testing.T, q *eventq.Queue, s *System) {
	t.Helper()
	q.RunUntil(nil, 2_000_000)
	if s.Outstanding() != 0 {
		t.Fatalf("deadlock: %d operations outstanding with empty queue", s.Outstanding())
	}
}

func TestReadInitialValue(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Jitter = 0
	q, s, b := newSys(t, 1, cfg)
	var got uint32 = 99
	b.read(0, 0x1000, func(v uint32) { got = v })
	drain(t, q, s)
	if got != 0 {
		t.Errorf("initial read = %d, want 0", got)
	}
}

func TestWriteThenRead(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Jitter = 0
	q, s, b := newSys(t, 1, cfg)
	var got uint32
	b.write(0, 0x1000, 7, func() {
		b.read(0, 0x1000, func(v uint32) { got = v })
	})
	drain(t, q, s)
	if got != 7 {
		t.Errorf("read after write = %d, want 7", got)
	}
	if s.PeekWord(0x1000) != 7 {
		t.Errorf("PeekWord = %d, want 7", s.PeekWord(0x1000))
	}
}

func TestCrossCoreVisibility(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Jitter = 0
	q, s, b := newSys(t, 2, cfg)
	var got uint32
	b.write(0, 0x2000, 42, func() {
		b.read(1, 0x2000, func(v uint32) { got = v })
	})
	drain(t, q, s)
	if got != 42 {
		t.Errorf("cross-core read = %d, want 42", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSameLineDifferentWords(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Jitter = 0
	q, s, b := newSys(t, 2, cfg)
	var a, bb uint32
	b.write(0, 0x3000, 1, func() {
		b.write(1, 0x3004, 2, func() {
			b.read(0, 0x3004, func(v uint32) { a = v })
			b.read(1, 0x3000, func(v uint32) { bb = v })
		})
	})
	drain(t, q, s)
	if a != 2 || bb != 1 {
		t.Errorf("word values = %d,%d; want 2,1", a, bb)
	}
}

// TestSerializedOracle issues fully serialized random traffic and demands
// exact last-writer semantics — the strongest protocol correctness check.
func TestSerializedOracle(t *testing.T) {
	cfgs := map[string]Config{
		"default": DefaultConfig(4),
		"tiny":    TinyCacheConfig(4), // forces evictions, PutM, WBAck, silent drops
	}
	for name, cfg := range cfgs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cfg.Jitter = 3
			q, s, b := newSys(t, 4, cfg)
			rng := rand.New(rand.NewSource(99))
			expect := map[uint64]uint32{}
			addrs := make([]uint64, 24)
			for i := range addrs {
				addrs[i] = 0x8000 + uint64(i)*4 // 6 lines with 4 words each... (16-word lines: 2 lines)
			}
			for i := 0; i < 3000; i++ {
				core := rng.Intn(4)
				addr := addrs[rng.Intn(len(addrs))]
				if rng.Intn(2) == 0 {
					val := uint32(i + 1)
					b.write(core, addr, val, func() {})
					expect[addr] = val
				} else {
					want := expect[addr]
					b.read(core, addr, func(v uint32) {
						if v != want {
							t.Errorf("serialized read of %#x = %d, want %d", addr, v, want)
						}
					})
				}
				drain(t, q, s) // serialize: complete before next op
			}
			if err := s.CheckInvariants(); err != nil {
				t.Error(err)
			}
			for addr, want := range expect {
				if got := s.PeekWord(addr); got != want {
					t.Errorf("final %#x = %d, want %d", addr, got, want)
				}
			}
		})
	}
}

// TestConcurrentTrafficCompletes floods the system with concurrent requests
// and checks that everything completes, values are plausible (every read
// returns the initial value or some written value for that address), and
// invariants hold afterwards.
func TestConcurrentTrafficCompletes(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		cfg := TinyCacheConfig(4)
		cfg.Jitter = 8
		q := eventq.New()
		s, err := NewSystem(q, cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		b := newBench(q, s)
		rng := rand.New(rand.NewSource(seed * 7))
		written := map[uint64]map[uint32]bool{}
		type obs struct {
			addr uint64
			val  uint32
		}
		var reads []obs
		for i := 0; i < 2000; i++ {
			core := rng.Intn(4)
			addr := 0x8000 + uint64(rng.Intn(16))*4
			if rng.Intn(2) == 0 {
				val := uint32(i + 1)
				if written[addr] == nil {
					written[addr] = map[uint32]bool{}
				}
				written[addr][val] = true
				b.write(core, addr, val, func() {})
			} else {
				addr := addr
				b.read(core, addr, func(v uint32) { reads = append(reads, obs{addr, v}) })
			}
		}
		q.RunUntil(nil, 20_000_000)
		if s.Outstanding() != 0 {
			t.Fatalf("seed %d: deadlock, %d outstanding", seed, s.Outstanding())
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, r := range reads {
			if r.val == 0 {
				continue // initial value
			}
			if !written[r.addr][r.val] {
				t.Fatalf("seed %d: read of %#x returned %d, never written there", seed, r.addr, r.val)
			}
		}
	}
}

func TestInvalHookFiresOnRemoteWrite(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Jitter = 0
	q, s, b := newSys(t, 2, cfg)
	var hooks []int
	s.SetInvalHook(func(core int, base uint64) { hooks = append(hooks, core) })
	// Core 0 and 1 both read (line Shared), then core 1 writes: core 0 must
	// be notified.
	b.read(0, 0x4000, func(uint32) {})
	b.read(1, 0x4000, func(uint32) {})
	drain(t, q, s)
	hooks = nil
	b.write(1, 0x4000, 5, func() {})
	drain(t, q, s)
	found := false
	for _, c := range hooks {
		if c == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("invalidation hook not delivered to core 0; hooks=%v", hooks)
	}
}

func TestInvalHookFiresOnFwdGetM(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Jitter = 0
	q, s, b := newSys(t, 2, cfg)
	var hooks []int
	s.SetInvalHook(func(core int, base uint64) { hooks = append(hooks, core) })
	b.write(0, 0x5000, 1, func() {}) // core 0 owns M
	drain(t, q, s)
	hooks = nil
	b.write(1, 0x5000, 2, func() {}) // FwdGetM to core 0
	drain(t, q, s)
	if len(hooks) != 1 || hooks[0] != 0 {
		t.Errorf("hooks = %v, want [0]", hooks)
	}
}

// TestBug1SuppressesHook sets up the S→M transient race: both cores share
// the line, then both upgrade concurrently. The loser receives an Inv while
// its GetM is outstanding; with bug 1 its squash notification is swallowed.
func TestBug1SuppressesHook(t *testing.T) {
	run := func(bugs Bugs) (hookCount int) {
		cfg := DefaultConfig(2)
		cfg.Jitter = 0
		cfg.Bugs = bugs
		q := eventq.New()
		s, _ := NewSystem(q, cfg, rand.New(rand.NewSource(1)))
		b := newBench(q, s)
		s.SetInvalHook(func(core int, base uint64) { hookCount++ })
		b.read(0, 0x6000, func(uint32) {})
		b.read(1, 0x6000, func(uint32) {})
		q.RunUntil(nil, 0)
		// Concurrent upgrades: one wins, the other is invalidated mid-upgrade.
		b.write(0, 0x6000, 1, func() {})
		b.write(1, 0x6000, 2, func() {})
		q.RunUntil(nil, 0)
		if s.Outstanding() != 0 {
			t.Fatal("deadlock in upgrade race")
		}
		return hookCount
	}
	correct := run(Bugs{})
	buggy := run(Bugs{StaleSMInv: true})
	if buggy >= correct {
		t.Errorf("bug 1 did not suppress notifications: correct=%d buggy=%d", correct, buggy)
	}
}

// TestBug3Deadlocks drives eviction/write races with bug 3 enabled until a
// protocol deadlock appears, and verifies the same traffic completes with
// the bug disabled.
func TestBug3Deadlocks(t *testing.T) {
	traffic := func(bugs Bugs, seed int64) (outstanding int) {
		cfg := TinyCacheConfig(4)
		cfg.Jitter = 8
		cfg.Bugs = bugs
		q := eventq.New()
		s, _ := NewSystem(q, cfg, rand.New(rand.NewSource(seed)))
		b := newBench(q, s)
		rng := rand.New(rand.NewSource(seed))
		// Many lines mapping onto 8 sets force dirty evictions; concurrent
		// writers force forwards that race the writebacks.
		for i := 0; i < 1500; i++ {
			core := rng.Intn(4)
			addr := 0x8000 + uint64(rng.Intn(64))*64 // line-granular, 64 lines over 8 sets
			if rng.Intn(3) == 0 {
				b.read(core, addr, func(uint32) {})
			} else {
				b.write(core, addr, uint32(i+1), func() {})
			}
		}
		q.RunUntil(nil, 50_000_000)
		return s.Outstanding()
	}
	deadlocked := false
	for seed := int64(1); seed <= 10; seed++ {
		if traffic(Bugs{}, seed) != 0 {
			t.Fatalf("seed %d: bug-free protocol deadlocked", seed)
		}
		if traffic(Bugs{WBRaceDeadlock: true}, seed) != 0 {
			deadlocked = true
		}
	}
	if !deadlocked {
		t.Error("bug 3 never produced a deadlock across 10 seeds")
	}
}

func TestReset(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Jitter = 0
	q, s, b := newSys(t, 2, cfg)
	b.write(0, 0x7000, 9, func() {})
	drain(t, q, s)
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	var got uint32 = 99
	b.read(1, 0x7000, func(v uint32) { got = v })
	drain(t, q, s)
	if got != 0 {
		t.Errorf("read after Reset = %d, want 0", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Cores: 1, LineSize: 64, WordSize: 0, Sets: 1, Ways: 1},
		{Cores: 1, LineSize: 63, WordSize: 4, Sets: 1, Ways: 1},
		{Cores: 1, LineSize: 64, WordSize: 4, Sets: 0, Ways: 1},
		{Cores: 1, LineSize: 64, WordSize: 4, Sets: 1, Ways: 1, NetLat: -1},
		{Cores: 65, LineSize: 64, WordSize: 4, Sets: 1, Ways: 1}, // wider than the sharer bit set
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
	if err := DefaultConfig(4).Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

// TestConfigValidateRefusesNonPowerOfTwo: the geometry the memory system
// splits addresses by shifts and masks is refused, by field and value, when a
// size is not a power of two.
func TestConfigValidateRefusesNonPowerOfTwo(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"48-byte line", func(c *Config) { c.LineSize = 48 }, "LineSize 48 is not a power of two"},
		{"6-byte word", func(c *Config) { c.WordSize = 6 }, "WordSize 6 is not a power of two"},
		{"3 sets", func(c *Config) { c.Sets = 3 }, "Sets 3 is not a power of two"},
	} {
		cfg := DefaultConfig(4)
		c.edit(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestGeometryMatchesDivision: on the memory configurations of the x86
// (DefaultConfig(4)), ARM (DefaultConfig(8), jitter aside) and gem5
// (TinyCacheConfig(8)) presets and the 4-set one the eviction experiment uses,
// the shift-and-mask line base, word index, line number and set equal the
// division formulas they replace, on random addresses.
func TestGeometryMatchesDivision(t *testing.T) {
	fourSets := DefaultConfig(4)
	fourSets.Sets = 4
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range []Config{DefaultConfig(4), DefaultConfig(8), TinyCacheConfig(8), fourSets} {
		_, s, _ := newSys(t, cfg.Cores, cfg)
		c := s.caches[0]
		line, word, sets := uint64(cfg.LineSize), uint64(cfg.WordSize), uint64(cfg.Sets)
		for range 10_000 {
			addr := uint64(rng.Int63n(1 << 40))
			base := addr - addr%line
			if got := s.lineBase(addr); got != base {
				t.Fatalf("%+v: lineBase(%#x) = %#x, want %#x", cfg, addr, got, base)
			}
			if got, want := s.wordIndex(addr), int(addr%line/word); got != want {
				t.Fatalf("%+v: wordIndex(%#x) = %d, want %d", cfg, addr, got, want)
			}
			// lineOf grows the line tables to cover what it is asked, so it
			// sees the low 256 KiB only.
			if low := base % (1 << 18); s.lineOf(low)+s.origin != int(low/line) {
				t.Fatalf("%+v: lineOf(%#x) is line %d, want %d", cfg, low, s.lineOf(low)+s.origin, low/line)
			}
			if got, want := c.setOf(base), int(base/line%sets)*cfg.Ways; got != want {
				t.Fatalf("%+v: setOf(%#x) = %d, want %d", cfg, base, got, want)
			}
		}
	}
}

// TestInvalidationFanOutAscending: the directory invalidates a line's sharers
// in ascending core order — the order the sorted sharer list gave before the
// set became a bit set, which message sequencing and hence every golden
// depends on. With no jitter all invalidations travel equally long, so the
// hook order is the send order.
func TestInvalidationFanOutAscending(t *testing.T) {
	cfg := DefaultConfig(64)
	cfg.Jitter = 0
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 60; round++ {
		q, s, b := newSys(t, 64, cfg)
		var order []int
		s.SetInvalHook(func(core int, base uint64) { order = append(order, core) })
		sharers := rng.Perm(64)[:1+rng.Intn(20)]
		for _, c := range sharers {
			b.read(c, 0x4000, func(uint32) {})
			drain(t, q, s)
		}
		writer := rng.Intn(64)
		if round%2 == 0 {
			writer = sharers[rng.Intn(len(sharers))] // an upgrade: the writer is not invalidated
		}
		order = nil
		b.write(writer, 0x4000, 1, func() {})
		drain(t, q, s)
		var want []int
		for _, c := range sharers {
			if c != writer {
				want = append(want, c)
			}
		}
		sort.Ints(want)
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("round %d: sharers %v, writer %d: invalidated in order %v, want %v",
				round, sharers, writer, order, want)
		}
	}
}

// TestResetEqualsFreshSystem: Reset restores a fresh system from any state
// and clears only what the iteration touched, so after each of three
// iterations the system must be indistinguishable from a new one — every word
// zero, invariants intact, and the same traffic producing the same values,
// counters and timing. The iterations end quiescent after touching some lines
// and ways (and growing the line tables in both directions), mid-flight (a
// GetS queued behind a busy line, a fill on its way, a writeback
// unacknowledged), with a directory line that served a request as of a
// FillAck's arrival still to come, and deadlocked by bug 3.
func TestResetEqualsFreshSystem(t *testing.T) {
	cfg := TinyCacheConfig(4)
	cfg.Jitter = 5
	const lines = 96
	addrOf := func(line, word int) uint64 { return 0x8000 + uint64(line)*64 + uint64(word)*4 }
	// issue presents n random operations over lines [lo, hi), running the
	// queue dry after every burst operations (never, for burst 0), and
	// returns what the reads observed.
	issue := func(q *eventq.Queue, s *System, seed int64, n, lo, hi, burst int) *[]uint32 {
		b := newBench(q, s)
		rng := rand.New(rand.NewSource(seed))
		seen := new([]uint32)
		for i := 0; i < n; i++ {
			core, addr := rng.Intn(4), addrOf(lo+rng.Intn(hi-lo), rng.Intn(16))
			if rng.Intn(2) == 0 {
				b.write(core, addr, uint32(i+1), func() {})
			} else {
				b.read(core, addr, func(v uint32) { *seen = append(*seen, v) })
			}
			if burst > 0 && i%burst == 0 {
				q.RunUntil(nil, 0)
			}
		}
		return seen
	}
	// traffic is issue in bursts of 7 run to the end.
	traffic := func(q *eventq.Queue, s *System, seed int64, n, lo, hi int) []uint32 {
		seen := issue(q, s, seed, n, lo, hi, 7)
		q.RunUntil(nil, 0)
		return *seen
	}
	build := func() (*eventq.Queue, *System, *rand.Rand) {
		q := eventq.New()
		rng := rand.New(rand.NewSource(0))
		s, err := NewSystem(q, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		return q, s, rng
	}
	q, s, rng := build()
	// resetEqualsFresh resets the system and compares it with a new one.
	resetEqualsFresh := func(after string) {
		t.Helper()
		q.Reset()
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Errorf("after %s: %v", after, err)
		}
		for line := 0; line < lines; line++ {
			for word := 0; word < 16; word++ {
				if v := s.PeekWord(addrOf(line, word)); v != 0 {
					t.Fatalf("after %s: line %d word %d = %d after Reset, want 0", after, line, word, v)
				}
			}
		}
		if (s.Stats() != Stats{}) {
			t.Errorf("after %s: Stats after Reset: %+v", after, s.Stats())
		}
		fq, fs, frng := build()
		rng.Seed(4)
		frng.Seed(4)
		got := traffic(q, s, 9, 600, 0, lines)
		want := traffic(fq, fs, 9, 600, 0, lines)
		if fs.Outstanding() != 0 {
			t.Fatalf("after %s: a fresh system deadlocked, %d outstanding", after, fs.Outstanding())
		}
		if !reflect.DeepEqual(got, want) || q.Now() != fq.Now() || s.Stats() != fs.Stats() ||
			s.Outstanding() != 0 {
			t.Errorf("after %s: reset system diverges from a fresh one: end %d vs %d, stats %+v vs %+v",
				after, q.Now(), fq.Now(), s.Stats(), fs.Stats())
		}
		for line := 0; line < lines; line++ {
			for word := 0; word < 16; word++ {
				if a, b := s.PeekWord(addrOf(line, word)), fs.PeekWord(addrOf(line, word)); a != b {
					t.Fatalf("after %s: line %d word %d: reset system holds %d, fresh system %d",
						after, line, word, a, b)
				}
			}
		}
	}

	rng.Seed(3)
	traffic(q, s, 1, 400, 70, 80) // a partial touch, in the upper line block
	traffic(q, s, 2, 100, 5, 25)  // ... then the tables grow downwards mid-iteration
	if s.Outstanding() != 0 || s.Stats().Writebacks == 0 || s.nLines != 2*lineBlock {
		t.Fatalf("warm-up traffic unfit to test Reset: %d outstanding, %d lines covered, %+v",
			s.Outstanding(), s.nLines, s.Stats())
	}
	resetEqualsFresh("a quiescent iteration")

	issue(q, s, 5, 300, 0, 24, 0)
	for !midFlight(s) {
		if !q.Step() {
			t.Fatal("traffic ran dry before a GetS queued behind a busy line with a fill and a writeback in flight")
		}
	}
	resetEqualsFresh("an iteration stopped mid-flight")

	issue(q, s, 6, 300, 0, 24, 0)
	for !servedAhead(s) {
		if !q.Step() {
			t.Fatal("traffic ran dry before a line served a request as of a FillAck in flight")
		}
	}
	resetEqualsFresh("an iteration stopped with a line served ahead")

	// Bug 3 is switched on for this iteration alone, so the system is
	// compared with a bug-free one afterwards as before.
	s.cfg.Bugs.WBRaceDeadlock = true
	issue(q, s, 1, 1500, 0, 64, 0)
	q.RunUntil(nil, 0)
	if s.Outstanding() == 0 {
		t.Fatal("bug 3 did not deadlock the traffic")
	}
	s.cfg.Bugs.WBRaceDeadlock = false
	resetEqualsFresh("a bug-3 deadlock")
}

// midFlight reports whether a GetS waits behind a busy directory line, a
// fill is on its way and a writeback is unacknowledged.
func midFlight(s *System) bool {
	free := make([]bool, len(s.msgs))
	for _, slot := range s.msgFree {
		free[slot] = true
	}
	queuedGetS, fill, writeback := false, false, false
	for _, li := range s.dir.touched {
		for _, slot := range s.dir.lines[li].queue {
			queuedGetS = queuedGetS || s.msgs[slot].typ == msgGetS
		}
	}
	for slot, m := range s.msgs {
		fill = fill || !free[slot] && (m.typ == msgDataS || m.typ == msgDataE || m.typ == msgDataM)
	}
	for _, c := range s.caches {
		writeback = writeback || c.nWB != 0
	}
	return queuedGetS && fill && writeback
}

// servedAhead reports whether a directory line has served a request as of
// a FillAck's arrival that is still to come.
func servedAhead(s *System) bool {
	for _, li := range s.dir.touched {
		if l := &s.dir.lines[li]; !l.filled && l.freeAt > s.q.Now() {
			return true
		}
	}
	return false
}

func TestStatsAccumulate(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Jitter = 0
	q, s, b := newSys(t, 2, cfg)
	b.write(0, 0x9000, 1, func() {})
	drain(t, q, s)
	b.read(0, 0x9000, func(uint32) {})
	drain(t, q, s)
	st := s.Stats()
	if st.Loads != 1 || st.Stores != 1 {
		t.Errorf("Loads/Stores = %d/%d, want 1/1", st.Loads, st.Stores)
	}
	if st.Misses == 0 || st.Hits == 0 || st.Messages == 0 {
		t.Errorf("expected nonzero misses/hits/messages: %+v", st)
	}
}

// TestDirectMappedOracle repeats the serialized last-writer oracle on a
// direct-mapped (1-way) cache, maximizing conflict evictions.
func TestDirectMappedOracle(t *testing.T) {
	cfg := TinyCacheConfig(4)
	cfg.Ways = 1
	cfg.Jitter = 5
	q, s, b := newSys(t, 4, cfg)
	rng := rand.New(rand.NewSource(123))
	expect := map[uint64]uint32{}
	for i := 0; i < 2000; i++ {
		core := rng.Intn(4)
		addr := 0x8000 + uint64(rng.Intn(32))*64 // 32 distinct lines over 8 direct-mapped sets
		if rng.Intn(2) == 0 {
			val := uint32(i + 1)
			b.write(core, addr, val, func() {})
			expect[addr] = val
		} else {
			want := expect[addr]
			b.read(core, addr, func(v uint32) {
				if v != want {
					t.Errorf("read %#x = %d, want %d", addr, v, want)
				}
			})
		}
		drain(t, q, s)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if s.Stats().Writebacks == 0 {
		t.Error("direct-mapped stress produced no writebacks")
	}
}

// TestPoolsReachSteadyState runs two identical bursts of traffic with a Reset
// between them and checks the second burst allocates (almost) nothing: every
// reused store — message slots, the row arena, MSHRs — must
// have reached capacity during the first burst.
func TestPoolsReachSteadyState(t *testing.T) {
	cfg := TinyCacheConfig(4)
	cfg.Jitter = 4
	q, s, b := newSys(t, 4, cfg)
	burst := func() {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 500; i++ {
			core := rng.Intn(4)
			addr := 0x8000 + uint64(rng.Intn(32))*4
			if rng.Intn(2) == 0 {
				b.write(core, addr, uint32(i+1), func() {})
			} else {
				b.read(core, addr, func(uint32) {})
			}
		}
		q.RunUntil(nil, 0)
		if s.Outstanding() != 0 {
			t.Fatal("burst deadlocked")
		}
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		q.Reset()
	}
	burst() // warm every pool
	allocs := testing.AllocsPerRun(3, burst)
	// The bench harness's token→callback map and closures account for the
	// small remainder; the memory system itself must be allocation-free.
	if allocs > 1100 {
		t.Errorf("steady-state burst allocated %.0f times; pools not reused", allocs)
	}
}

// TestEventsAndMessagesPerTransaction pins what each transaction costs now
// that cache → directory responses act at their arrival time without an
// event: a load or store hit completes before Read or Write returns (no
// event, no message); an uncached read miss is GetS and DataE (2 events)
// plus the FillAck (3 messages); a cache-to-cache read adds the forward and
// the owner's response (3 events, 5 messages); an upgrade against k other
// sharers is GetM, k invalidations and DataM (k+2 events) plus k acks and
// the FillAck (2k+3 messages). Each transaction starts after the last one's
// events ran out, its fill's ack still on its way: without jitter a request
// arrives exactly when that ack does and unblocks the line itself.
func TestEventsAndMessagesPerTransaction(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Jitter = 0
	// measure runs op to the end and returns its events and messages.
	measure := func(q *eventq.Queue, s *System, op func()) (events int, msgs int64) {
		before := s.Stats().Messages
		op()
		events = q.RunUntil(nil, 0)
		if s.Outstanding() != 0 {
			t.Fatalf("%d operations outstanding", s.Outstanding())
		}
		return events, s.Stats().Messages - before
	}
	check := func(what string, events int, msgs int64, wantEvents int, wantMsgs int64) {
		t.Helper()
		if events != wantEvents || msgs != wantMsgs {
			t.Errorf("%s: %d events, %d messages; want %d and %d", what, events, msgs, wantEvents, wantMsgs)
		}
	}

	q, s, b := newSys(t, 8, cfg)
	e, m := measure(q, s, func() { b.read(0, 0x1000, func(uint32) {}) })
	check("uncached read miss", e, m, 2, 3)
	for _, write := range []bool{false, true} {
		what, completed := "load hit", false
		e, m = measure(q, s, func() {
			if write {
				what = "store hit"
				b.write(0, 0x1004, 5, func() { completed = true })
			} else {
				b.read(0, 0x1000, func(uint32) { completed = true })
			}
			if !completed {
				t.Errorf("%s: not completed when the access returned", what)
			}
		})
		check(what, e, m, 0, 0)
	}

	q, s, b = newSys(t, 8, cfg)
	measure(q, s, func() { b.write(0, 0x1000, 1, func() {}) })
	e, m = measure(q, s, func() { b.read(1, 0x1000, func(uint32) {}) })
	check("cache-to-cache read", e, m, 3, 5)

	for k := 1; k <= 4; k++ {
		q, s, b = newSys(t, 8, cfg)
		for c := 0; c <= k; c++ {
			measure(q, s, func() { b.read(c, 0x1000, func(uint32) {}) })
		}
		e, m = measure(q, s, func() { b.write(0, 0x1000, 1, func() {}) })
		check(fmt.Sprintf("upgrade against %d other sharers", k), e, m, k+2, int64(2*k+3))
	}
}

// scripted is a jitter source that returns its draws in order, then zeros.
type scripted struct{ draws []int }

func (r *scripted) Intn(n int) int {
	if len(r.draws) == 0 {
		return 0
	}
	d := r.draws[0]
	r.draws = r.draws[1:]
	if d >= n {
		panic(fmt.Sprintf("scripted draw %d out of [0,%d)", d, n))
	}
	return d
}

// TestFillAckArrival: a line whose grantee has sent its FillAck is free as
// of the ack's arrival, with no event for the ack itself, and serves the
// next request at once as of that time. With scripted jitter — zero but for
// the FillAcks — each case pins when a grant to the last requester leaves
// the directory (its delivery less NetLat):
//
//   - "ack in flight": cores 0 and 1 read the line, so it ends Shared; core
//     1's FillAck (jitter 30) arrives at cycle 182 and core 2's GetS, issued
//     as core 1's read completes, reaches the line at 152. Its DataS leaves
//     at freeAt + DirLat.
//   - "after PutM": core 0 writes line A (FillAck jitter 30: free at 130),
//     then, as the write completes, writes line B of the same set, evicting
//     A; core 1 reads A. The PutM and core 1's GetS both reach A at cycle
//     100. The PutM is served as of 130 and leaves A uncached, and the GetS,
//     which finds A idle, is still served as of 130: its DataE leaves at
//     freeAt + DirLat + MemLat.
func TestFillAckArrival(t *testing.T) {
	const lineA, lineB = 0x1000, 0x1000 + 8*64 // one set of a direct-mapped 8-set cache
	for _, c := range []struct {
		name   string
		draws  []int       // the jitters in draw order (then zeros)
		to     int         // the core whose grant is timed
		freeAt eventq.Time // when the line is free
		leaves eventq.Time // when the grant leaves the directory
	}{
		// c0 GetS, DataE, c0 FillAck, c1 GetS, FwdGetS, owner response,
		// DataS, c1 FillAck.
		{name: "ack in flight", draws: []int{0, 0, 0, 0, 0, 0, 0, 30}, to: 2, freeAt: 182, leaves: 182 + 4},
		// c0 GetM, DataM, c0 FillAck.
		{name: "after PutM", draws: []int{0, 0, 30}, to: 1, freeAt: 130, leaves: 130 + 4 + 60},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig(3)
			cfg.Sets, cfg.Ways = 8, 1
			cfg.Jitter = 100
			q := eventq.New()
			s, err := NewSystem(q, cfg, &scripted{draws: c.draws})
			if err != nil {
				t.Fatal(err)
			}
			b := newBench(q, s)
			var leaves, freeAt eventq.Time = -1, -1
			q.SetHandler(func(ev eventq.Event) {
				if m := s.msgs[ev.Op]; int(ev.Core) == c.to && (m.typ == msgDataS || m.typ == msgDataE) {
					leaves = q.Now() - cfg.NetLat
					freeAt = s.dir.lines[s.lineOf(lineA)].freeAt
				}
				s.Dispatch(ev)
			})
			if c.to == 2 {
				b.read(0, lineA, func(uint32) {
					b.read(1, lineA, func(uint32) { b.read(2, lineA, func(uint32) {}) })
				})
			} else {
				b.write(0, lineA, 7, func() {
					b.write(0, lineB, 8, func() {})
					b.read(1, lineA, func(uint32) {})
				})
			}
			q.RunUntil(nil, 0)
			if s.Outstanding() != 0 {
				t.Fatalf("%d operations outstanding", s.Outstanding())
			}
			if leaves != c.leaves || freeAt != c.freeAt {
				t.Errorf("core %d's grant left at cycle %d, the line free at %d; want %d and %d",
					c.to, leaves, freeAt, c.leaves, c.freeAt)
			}
		})
	}
}

// TestQuiescentWithFillAckInFlight: once a transaction's events have run
// out, its line waits for nothing but its FillAck's arrival, which frees it
// for the next request; the system is quiescent and its invariants hold
// without draining anything further.
func TestQuiescentWithFillAckInFlight(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Jitter = 0
	q, s, b := newSys(t, 2, cfg)
	b.write(0, 0x2000, 3, func() {})
	drain(t, q, s)
	l := &s.dir.lines[s.lineOf(0x2000)]
	if !l.busy || !l.filled || l.freeAt <= q.Now() {
		t.Fatalf("line busy %v, filled %v, free at %d at cycle %d: want its FillAck in flight",
			l.busy, l.filled, l.freeAt, q.Now())
	}
	if !s.Quiescent() || s.dir.busyLines() != 0 {
		t.Errorf("a line waiting only for its FillAck counts as busy (%d busy lines)", s.dir.busyLines())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
