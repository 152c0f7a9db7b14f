package eventq

import (
	"math/rand"
	"sort"
	"testing"
)

// recorder collects, as the queue's handler, the Arg of every event fired.
func recorder(q *Queue, got *[]int) {
	q.SetHandler(func(ev Event) { *got = append(*got, int(ev.Arg)) })
}

func TestOrderingByTime(t *testing.T) {
	q := New()
	var got []int
	recorder(q, &got)
	q.Push(Event{At: 30, Arg: 3})
	q.Push(Event{At: 10, Arg: 1})
	q.Push(Event{At: 20, Arg: 2})
	q.RunUntil(nil, 0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if q.Now() != 30 {
		t.Errorf("Now = %d, want 30", q.Now())
	}
}

func TestFIFOAtEqualTimes(t *testing.T) {
	for _, at := range []Time{5, span + 5} { // bucketed directly, and via the far heap
		q := New()
		var got []int
		recorder(q, &got)
		for i := 0; i < 10; i++ {
			q.Push(Event{At: at, Arg: int64(i)})
		}
		q.RunUntil(nil, 0)
		if len(got) != 10 || !sort.IntsAreSorted(got) {
			t.Errorf("at %d: equal-time events out of scheduling order: %v", at, got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	q := New()
	var fired Time = -1
	q.SetHandler(func(ev Event) {
		if ev.Arg == 0 {
			q.PushAfter(5, Event{Arg: 1})
		} else {
			fired = q.Now()
		}
	})
	q.Push(Event{At: 100})
	q.RunUntil(nil, 0)
	if fired != 105 {
		t.Errorf("PushAfter fired at %d, want 105", fired)
	}
}

func TestPastSchedulingClamped(t *testing.T) {
	q := New()
	var fired Time = -1
	q.SetHandler(func(ev Event) {
		if ev.Arg == 0 {
			q.Push(Event{At: 10, Arg: 1}) // in the past
		} else {
			fired = q.Now()
		}
	})
	q.Push(Event{At: 50})
	q.RunUntil(nil, 0)
	if fired != 50 {
		t.Errorf("past event fired at %d, want 50", fired)
	}
}

func TestRunUntilPredicate(t *testing.T) {
	q := New()
	count := 0
	q.SetHandler(func(Event) { count++ })
	for i := 0; i < 100; i++ {
		q.Push(Event{At: Time(i)})
	}
	n := q.RunUntil(func() bool { return count >= 10 }, 0)
	if count != 10 || n != 10 {
		t.Errorf("count=%d n=%d, want 10/10", count, n)
	}
	if q.Len() != 90 {
		t.Errorf("Len = %d, want 90", q.Len())
	}
}

func TestRunUntilMaxEvents(t *testing.T) {
	q := New()
	count := 0
	q.SetHandler(func(Event) { count++ })
	for i := 0; i < 100; i++ {
		q.Push(Event{At: Time(i)})
	}
	if n := q.RunUntil(nil, 7); n != 7 || count != 7 {
		t.Errorf("n=%d count=%d, want 7/7", n, count)
	}
}

func TestStepEmpty(t *testing.T) {
	q := New()
	if q.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestRandomizedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := New()
	var fired []Time
	q.SetHandler(func(Event) { fired = append(fired, q.Now()) })
	for i := 0; i < 1000; i++ {
		q.Push(Event{At: Time(rng.Intn(3 * span))})
	}
	q.RunUntil(nil, 0)
	if len(fired) != 1000 {
		t.Fatalf("fired %d events", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("time went backwards at %d: %d < %d", i, fired[i], fired[i-1])
		}
	}
}

// TestTypedEventOrdering: time-major order, past-scheduling clamped to now,
// PushAfter relative to the current time.
func TestTypedEventOrdering(t *testing.T) {
	q := New()
	var got []int
	var at []Time
	q.SetHandler(func(ev Event) {
		got = append(got, int(ev.Arg))
		at = append(at, q.Now())
		if ev.Arg == 1 {
			q.PushAfter(7, Event{Kind: 1, Arg: 9})
			q.Push(Event{At: 2, Kind: 1, Arg: 8}) // in the past: clamps to now
		}
	})
	q.Push(Event{At: 30, Kind: 1, Arg: 3})
	q.Push(Event{At: 10, Kind: 1, Arg: 1})
	q.Push(Event{At: 20, Kind: 1, Arg: 2})
	q.RunUntil(nil, 0)
	want := []int{1, 8, 9, 2, 3}
	wantAt := []Time{10, 10, 17, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] || at[i] != wantAt[i] {
			t.Fatalf("fired %v at %v; want %v at %v", got, at, want, wantAt)
		}
	}
}

// TestFarEventsPrecedeLaterDirectOnes pins the migration rule: an event
// scheduled span or more cycles ahead waits in the far heap, and must still
// fire before an event scheduled later for the same time from within span.
func TestFarEventsPrecedeLaterDirectOnes(t *testing.T) {
	q := New()
	var got []int
	const target = 2*span + 17
	q.SetHandler(func(ev Event) {
		got = append(got, int(ev.Arg))
		if ev.Arg == 0 {
			q.Push(Event{At: target, Arg: 3}) // direct: the clock is within span
		}
	})
	q.Push(Event{At: target, Arg: 1}) // far
	q.Push(Event{At: target, Arg: 2}) // far
	q.Push(Event{At: target - span + 1, Arg: 0})
	q.RunUntil(nil, 0)
	if want := []int{0, 1, 2, 3}; len(got) != 4 || !sort.IntsAreSorted(got) {
		t.Errorf("fired %v, want %v", got, want)
	}
	if q.Now() != target {
		t.Errorf("Now = %d, want %d", q.Now(), target)
	}
}

// TestHandlerSurvivesReset: Reset clears events and rewinds the clock but
// keeps the installed handler, so a Runner wires it exactly once.
func TestHandlerSurvivesReset(t *testing.T) {
	q := New()
	fired := 0
	q.SetHandler(func(Event) { fired++ })
	q.Push(Event{At: 1, Kind: 1})
	q.Push(Event{At: 5 * span, Kind: 1})
	q.Reset()
	if q.Len() != 0 || q.Now() != 0 {
		t.Fatalf("Reset left Len=%d Now=%d", q.Len(), q.Now())
	}
	q.Push(Event{At: 1, Kind: 1})
	q.RunUntil(nil, 0)
	if fired != 1 {
		t.Errorf("fired %d events after reset, want 1", fired)
	}
}

// TestTypedPathAllocFree: pushing and dispatching events through a warm
// queue allocates nothing — the engine's hot loop depends on this — whether
// they are bucketed directly or pass through the far heap, and whichever
// buckets they land in.
func TestTypedPathAllocFree(t *testing.T) {
	q := New()
	q.SetHandler(func(Event) {})
	round := func(base Time) {
		for i := 0; i < 64; i++ {
			q.Push(Event{At: base + Time(i), Kind: 1})
			q.Push(Event{At: base + span + Time(7*i), Kind: 1})
		}
		q.RunUntil(nil, 0)
	}
	round(0)
	base := q.Now()
	allocs := testing.AllocsPerRun(10, func() {
		base += 333 // a different set of buckets every run
		round(base)
	})
	if allocs != 0 {
		t.Errorf("typed path allocated %.1f per run, want 0", allocs)
	}
}

func TestCascadingEvents(t *testing.T) {
	q := New()
	depth := 0
	q.SetHandler(func(Event) {
		if depth < 50 {
			depth++
			q.PushAfter(1, Event{})
		}
	})
	q.Push(Event{})
	q.RunUntil(nil, 0)
	if depth != 50 || q.Now() != 50 {
		t.Errorf("depth=%d now=%d", depth, q.Now())
	}
}

// heapQueue is the binary heap the timing wheel replaced, kept as the
// reference model: events pop time-major with an explicit scheduling
// sequence as the tie-break. It implements exactly the Queue contract and
// nothing else.
type heapQueue struct {
	h       []heapEntry
	now     Time
	seq     int64
	handler func(Event)
}

type heapEntry struct {
	ev  Event
	seq int64
}

func (a heapEntry) before(b heapEntry) bool {
	if a.ev.At != b.ev.At {
		return a.ev.At < b.ev.At
	}
	return a.seq < b.seq
}

func (q *heapQueue) SetHandler(h func(Event)) { q.handler = h }
func (q *heapQueue) Now() Time                { return q.now }
func (q *heapQueue) Len() int                 { return len(q.h) }
func (q *heapQueue) Reset()                   { q.h, q.now, q.seq = q.h[:0], 0, 0 }

func (q *heapQueue) Push(ev Event) {
	if ev.At < q.now {
		ev.At = q.now
	}
	q.seq++
	q.h = append(q.h, heapEntry{ev, q.seq})
	for i := len(q.h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.h[i].before(q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *heapQueue) PushAfter(delay Time, ev Event) {
	ev.At = q.now + delay
	q.Push(ev)
}

func (q *heapQueue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	e := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && q.h[r].before(q.h[l]) {
			min = r
		}
		if !q.h[min].before(q.h[i]) {
			break
		}
		q.h[i], q.h[min] = q.h[min], q.h[i]
		i = min
	}
	q.now = e.ev.At
	q.handler(e.ev)
	return true
}

func (q *heapQueue) RunUntil(done func() bool, maxEvents int) int {
	n := 0
	for len(q.h) > 0 {
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

// scheduler is what the differential script drives: the wheel and the
// reference heap.
type scheduler interface {
	SetHandler(func(Event))
	Now() Time
	Len() int
	Push(Event)
	PushAfter(Time, Event)
	Step() bool
	RunUntil(func() bool, int) int
	Reset()
}

// pop is one fired event as the script observes it.
type pop struct {
	id  int64
	now Time
}

// runScript interprets script against q and returns every pop, with the
// clock read inside the handler. The script is a byte string so the fuzzer
// can mutate it; each step consumes an opcode byte and its operand bytes.
// Handlers push too: an event whose id is divisible by 3 schedules a
// follow-up, every other one at zero delay, so equal-time bursts and
// in-handler scheduling at the current time are always in the mix.
func runScript(q scheduler, script []byte) []pop {
	var pops []pop
	nextID := int64(0)
	newEvent := func() Event {
		nextID++
		return Event{Kind: 1, Arg: nextID}
	}
	q.SetHandler(func(ev Event) {
		pops = append(pops, pop{ev.Arg, q.Now()})
		if ev.Arg%3 == 0 && nextID < 1<<16 {
			delay := Time(0)
			if ev.Arg%2 == 0 {
				delay = Time(ev.Arg*37) % 3001
			}
			q.PushAfter(delay, newEvent())
		}
	})
	// Delays the wheel treats specially, then a uniform 0…3000.
	edge := []Time{0, 0, 1, span - 1, span, span + 1, 2*span - 1, 2 * span, 3000}
	arg := func(i *int) int {
		if *i >= len(script) {
			return 0
		}
		v := int(script[*i])
		*i++
		return v
	}
	for i := 0; i < len(script); {
		switch op := arg(&i); op % 8 {
		case 0, 1: // push at a uniform delay
			q.PushAfter(Time(arg(&i)<<8|arg(&i))%3001, newEvent())
		case 2: // push at an edge delay
			q.PushAfter(edge[arg(&i)%len(edge)], newEvent())
		case 3: // equal-time burst
			d := edge[arg(&i)%len(edge)]
			for n := arg(&i)%6 + 2; n > 0; n-- {
				q.PushAfter(d, newEvent())
			}
		case 4: // absolute time, possibly in the past
			ev := newEvent()
			ev.At = q.Now() - 50 + Time(arg(&i))
			q.Push(ev)
		case 5: // a few steps
			for n := arg(&i)%8 + 1; n > 0; n-- {
				q.Step()
			}
		case 6: // RunUntil with an event budget
			n := q.RunUntil(nil, arg(&i)%16+1)
			pops = append(pops, pop{-1, Time(n)}) // the count is an observation too
		case 7: // Reset mid-run, rarely
			if arg(&i)%8 == 0 {
				q.Reset()
				pops = append(pops, pop{-2, q.Now()})
			}
		}
		pops = append(pops, pop{-3 - int64(q.Len()), q.Now()}) // Len and Now after every step
	}
	q.RunUntil(nil, 0)
	pops = append(pops, pop{-3 - int64(q.Len()), q.Now()})
	return pops
}

func diffScript(t *testing.T, script []byte) {
	t.Helper()
	got := runScript(New(), script)
	want := runScript(&heapQueue{}, script)
	if len(got) != len(want) {
		t.Fatalf("wheel recorded %d observations, reference heap %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("observation %d: wheel %+v, reference heap %+v", i, got[i], want[i])
		}
	}
}

// TestQueueMatchesReferenceHeap drives the wheel and the heap it replaced
// with the same random scripts and requires identical pop order, clock and
// length after every step.
func TestQueueMatchesReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		script := make([]byte, 50+rng.Intn(400))
		rng.Read(script)
		diffScript(t, script)
	}
}

// FuzzQueueOrder is the same differential with fuzzer-chosen scripts.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{2, 4, 2, 5, 2, 3, 5, 7, 3, 4, 3, 5, 0, 6, 15})
	f.Add([]byte{0, 11, 184, 4, 0, 7, 0, 1, 0, 200, 6, 3})
	f.Add([]byte{3, 8, 5, 3, 0, 5, 5, 2, 7, 8, 2, 1, 5, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip()
		}
		diffScript(t, script)
	})
}
