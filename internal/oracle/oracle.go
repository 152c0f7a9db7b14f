// Package oracle answers "what may this program do under this memory model?"
// from the model definitions alone (DESIGN §5), sharing no code or table with
// internal/mcm, which the simulator and the checkers both read: a misreading
// there shows as a disagreement with the oracle instead of cancelling out.
//
// Allowed is the axiomatic answer, after Akgün et al.: every candidate
// execution — a reads-from choice per load times a coherence order per word —
// is kept when it is acyclic under the model. Walk is an operational one, a
// sequentially consistent machine. The tests cross-check the two, and a TSO
// store-buffer machine, on the litmus library and generated programs.
package oracle

import (
	"fmt"
	"slices"

	"mtracecheck/internal/prog"
)

// Execution is one execution of a program: what each load read and the order
// in which each word's stores became visible.
type Execution struct {
	// RF is indexed by op ID: the store op each load read, or -1 for the
	// initial value (the dense row instrument.Meta.DecodeInto fills).
	// Entries of non-loads are -1.
	RF []int32
	// WS lists, per word, its stores' op IDs in coherence order (the shape
	// of sim.Execution.WS).
	WS [][]int
	// Values is indexed by op ID: the value each load returned, zero for
	// non-loads (the shape of sim.Execution.LoadValues).
	Values []uint32
}

func newExecution(p *prog.Program) Execution {
	e := Execution{RF: make([]int32, p.NumOps()), WS: make([][]int, p.NumWords), Values: make([]uint32, p.NumOps())}
	for i := range e.RF {
		e.RF[i] = -1
	}
	return e
}

// read records that load reads store (-1: the initial value).
func (e *Execution) read(p *prog.Program, load, store int) {
	e.RF[load], e.Values[load] = int32(store), prog.InitialValue
	if store >= 0 {
		e.Values[load] = p.OpByID(store).Value
	}
}

// Walk runs p on a sequentially consistent machine: one operation at a time,
// each load reading the last store to its word. pick(n) chooses which of the
// n threads issues next; a thread with nothing left passes the turn to the
// next one that has. Every execution Walk returns is allowed under every
// model. With pick = rand.Intn it is the paper's §4.1 reference interpreter.
func Walk(p *prog.Program, pick func(n int) int) Execution {
	e := newExecution(p)
	next := make([]int, p.NumThreads())
	for left := p.NumOps(); left > 0; left-- {
		t := pick(len(next))
		for next[t] == len(p.Threads[t].Ops) {
			t = (t + 1) % len(next)
		}
		op := p.Threads[t].Ops[next[t]]
		next[t]++
		switch op.Kind {
		case prog.Load:
			src := -1
			if ws := e.WS[op.Word]; len(ws) > 0 {
				src = ws[len(ws)-1]
			}
			e.read(p, op.ID, src)
		case prog.Store:
			e.WS[op.Word] = append(e.WS[op.Word], op.ID)
		}
	}
	return e
}

// preserved is each model's preserved program order (DESIGN §5): whether an
// earlier operation of kind first stays ordered before a later one of kind
// second of the same thread on another word, indexed [first][second] by
// prog.Load and prog.Store. A fence between two operations orders them under
// every model; operations on one word are ordered by coherence.
var preserved = map[string][2][2]bool{
	"SC":  {{true, true}, {true, true}},
	"TSO": {{true, true}, {false, true}}, // store→load relaxed: a FIFO store buffer
	"PSO": {{true, true}, {false, false}},
	"RMO": {{false, false}, {false, false}},
}

// Allowed's bounds: its candidates number up to (stores+1)^loads · stores!.
const maxThreads, maxAccesses = 4, 4

// Allowed returns every execution of p the model (SC, TSO, PSO or RMO) allows
// on a multi-copy atomic machine: each pair of (reads-from, coherence order)
// that satisfies per-location sequential consistency — po restricted to one
// word, rf, coherence and from-read edges acyclic — and the model's global
// order — preserved program order, fences, rf between threads, coherence and
// from-read edges acyclic. A load may read its own thread's store early, so
// rf within a thread orders nothing globally. p may have at most 4 threads
// of at most 4 loads and stores each.
func Allowed(p *prog.Program, model string) ([]Execution, error) {
	order, ok := preserved[model]
	if !ok {
		return nil, fmt.Errorf("oracle: unknown model %q", model)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.NumThreads() > maxThreads || p.NumOps() > 64 {
		return nil, fmt.Errorf("oracle: %d threads and %d operations exceed %d threads of %d loads and stores",
			p.NumThreads(), p.NumOps(), maxThreads, maxAccesses)
	}
	n := p.NumOps()
	s := search{p: p, exec: newExecution(p), out: []Execution{}, both: make([]uint64, 2*n)}
	s.global, s.local = s.both[:n], s.both[n:]
	for w := 0; w < p.NumWords; w++ {
		s.sources = append(s.sources, append([]prog.Op{{ID: -1}}, p.StoresToWord(w)...))
	}
	for _, th := range p.Threads {
		accesses := 0
		for i, a := range th.Ops {
			if !a.IsMemory() {
				continue
			}
			if accesses++; accesses > maxAccesses {
				return nil, fmt.Errorf("oracle: thread %d has more than %d loads and stores", a.Thread, maxAccesses)
			}
			if a.Kind == prog.Load {
				s.loads = append(s.loads, a)
			}
			fenced := false
			for _, b := range th.Ops[i+1:] {
				switch {
				case b.Kind == prog.Fence:
					fenced = true
				case fenced || order[a.Kind][b.Kind]:
					s.global.add(a.ID, b.ID)
				}
				if b.IsMemory() && b.Word == a.Word {
					s.local.add(a.ID, b.ID)
				}
			}
		}
	}
	s.coherence(-1, -1, nil)
	return s.out, nil
}

// closure is a transitive closure over op IDs: bit v of c[u] says u reaches v.
type closure []uint64

// add inserts the edge u→v, reporting false instead when it closes a cycle.
func (c closure) add(u, v int) bool {
	if u == v || c[v]&(1<<u) != 0 {
		return false
	}
	for a := range c {
		if a == u || c[a]&(1<<u) != 0 {
			c[a] |= 1<<v | c[v]
		}
	}
	return true
}

// search enumerates candidates depth first, adding each choice's edges to
// both closures and abandoning a branch at its first cycle.
type search struct {
	p             *prog.Program
	loads         []prog.Op
	sources       [][]prog.Op // per word: the initial value (ID -1), then its stores
	global, local closure
	both          []uint64   // the two closures' storage, global's then local's
	spare         [][]uint64 // buffers for fork's copies of both
	exec          Execution  // the candidate being built
	out           []Execution
}

// edge adds u→v to the global order when global is set and to the
// per-location order always; it reports whether both stay acyclic.
func (s *search) edge(u, v int, global bool) bool {
	return (!global || s.global.add(u, v)) && s.local.add(u, v)
}

// fork runs then with both closures restored afterwards.
func (s *search) fork(then func()) {
	var saved []uint64
	if k := len(s.spare) - 1; k >= 0 {
		saved, s.spare = s.spare[k], s.spare[:k]
	}
	saved = append(saved[:0], s.both...)
	then()
	copy(s.both, saved)
	s.spare = append(s.spare, saved)
}

// coherence extends word w's coherence order, whose last store so far is
// prev, by each store of left in turn; once every word is ordered it moves
// on to the loads.
func (s *search) coherence(w, prev int, left []prog.Op) {
	if len(left) == 0 {
		if w+1 < s.p.NumWords {
			s.coherence(w+1, -1, s.sources[w+1][1:])
		} else {
			s.readsFrom(0)
		}
		return
	}
	for i, st := range left {
		s.fork(func() {
			if prev >= 0 && !s.edge(prev, st.ID, true) {
				return
			}
			ws := s.exec.WS[w]
			s.exec.WS[w] = append(ws, st.ID)
			s.coherence(w, st.ID, append(slices.Clone(left[:i]), left[i+1:]...))
			s.exec.WS[w] = ws
		})
	}
}

// readsFrom chooses the source of load i and of every load after it: the
// initial value or any store to the load's word. The load is then ordered
// before the store after its source in coherence (from-read).
func (s *search) readsFrom(i int) {
	if i == len(s.loads) {
		e := Execution{RF: slices.Clone(s.exec.RF), Values: slices.Clone(s.exec.Values),
			WS: make([][]int, len(s.exec.WS))}
		for w, ws := range s.exec.WS {
			e.WS[w] = slices.Clone(ws)
		}
		s.out = append(s.out, e)
		return
	}
	ld := s.loads[i]
	for _, src := range s.sources[ld.Word] {
		s.fork(func() {
			if src.ID >= 0 && !s.edge(src.ID, ld.ID, src.Thread != ld.Thread) {
				return
			}
			ws := s.exec.WS[ld.Word]
			if k := slices.Index(ws, src.ID) + 1; k < len(ws) && !s.edge(ld.ID, ws[k], true) {
				return
			}
			s.exec.read(s.p, ld.ID, src.ID)
			s.readsFrom(i + 1)
		})
	}
}
