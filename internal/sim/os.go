package sim

import (
	"mtracecheck/internal/eventq"
	"mtracecheck/internal/prog"
)

// initOS installs time-sliced scheduling of threads over cores. Up to Cores
// threads run concurrently; every quantum the runnable window rotates, and
// (with Migrate) threads land on different cores, arriving with cold caches.
// A preempted thread's pipeline is flushed: its performed-but-uncommitted
// loads are squashed, as a context switch serializes the core.
func (e *engine) initOS() {
	if len(e.threads) <= e.r.plat.Cores && !e.r.plat.OS.Migrate {
		// Fewer threads than cores and no migration: every thread runs, but
		// quantum interrupts still inject thread-level jitter by briefly
		// pausing threads (modelling OS housekeeping preemptions).
		e.scheduleQuantum()
		return
	}
	// Start with the first Cores threads runnable.
	for i, t := range e.threads {
		t.running = i < e.r.plat.Cores
		if t.running {
			t.core = e.r.plat.coreOf(i)
		}
	}
	e.scheduleQuantum()
}

func (e *engine) quantumLen() eventq.Time {
	q := e.r.plat.OS.Quantum
	if q <= 0 {
		q = 400
	}
	if j := e.r.plat.OS.QuantumJitter; j > 0 {
		q += e.rng.Intn(j + 1)
	}
	return eventq.Time(q)
}

func (e *engine) scheduleQuantum() {
	e.q.PushAfter(e.quantumLen(), eventq.Event{Kind: evQuantum})
}

// rotate advances the runnable window by one thread and reassigns cores.
func (e *engine) rotate() {
	n := len(e.threads)
	cores := e.r.plat.Cores
	if n <= cores {
		// All threads fit: model a housekeeping preemption by pausing one
		// thread for this quantum and flushing its pipeline.
		victim := e.threads[e.rotateIdx%n]
		e.rotateIdx++
		for _, t := range e.threads {
			t.running = true
		}
		victim.running = false
		e.flushPipeline(victim)
		e.pump()
		return
	}
	e.rotateIdx = (e.rotateIdx + 1) % n
	for _, t := range e.threads {
		if t.running {
			e.flushPipeline(t)
		}
		t.running = false
	}
	for i := 0; i < cores; i++ {
		slot := (e.rotateIdx + i) % n
		t := e.threads[slot]
		t.running = true
		if e.r.plat.OS.Migrate {
			t.core = e.r.plat.coreOf(i)
		} else {
			t.core = e.r.plat.coreOf(slot)
		}
	}
	e.pump()
}

// flushPipeline squashes a thread's performed-but-uncommitted loads, as a
// context switch drains the core's pipeline.
func (e *engine) flushPipeline(t *thread) {
	for i := t.commit; i < t.next; i++ {
		o := &t.ops[i]
		if o.op.Kind == prog.Load && o.performed && !o.committed {
			e.squashLoad(t, i)
		}
	}
}
