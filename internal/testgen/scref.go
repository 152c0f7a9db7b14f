package testgen

import (
	"math/rand"

	"mtracecheck/internal/prog"
)

// SCReference executes the program on a sequentially consistent reference
// interpreter that picks one ready operation uniformly at random at each
// step, with single-copy store atomicity — the paper's §4.1 "in-house
// architectural simulator" used for the k-medoids limit study. It returns
// the observed reads-from relation (load op ID → store op ID, -1 for the
// initial value) and the per-word write-serialization order.
//
// Every returned execution is SC-legal and therefore valid under every
// supported (weaker) model, which makes SCReference a convenient source of
// guaranteed-clean execution sets for the checking pipeline.
func SCReference(p *prog.Program, rng *rand.Rand) (rf map[int]int, ws map[int][]int) {
	rf = make(map[int]int)
	ws = make(map[int][]int)
	next := make([]int, p.NumThreads())
	memory := map[int]int{} // word -> last store op ID (absent = initial)
	remaining := p.NumOps()
	for remaining > 0 {
		// Pick a random thread that still has operations.
		t := rng.Intn(p.NumThreads())
		for len(p.Threads[t].Ops) == next[t] {
			t = (t + 1) % p.NumThreads()
		}
		op := p.Threads[t].Ops[next[t]]
		next[t]++
		remaining--
		switch op.Kind {
		case prog.Load:
			if st, ok := memory[op.Word]; ok {
				rf[op.ID] = st
			} else {
				rf[op.ID] = -1
			}
		case prog.Store:
			memory[op.Word] = op.ID
			ws[op.Word] = append(ws[op.Word], op.ID)
		}
	}
	return rf, ws
}

// LoadValuesOf converts a reads-from relation into observed load values
// (what the instrumented code would see at runtime), dense by operation ID
// like sim.Execution.LoadValues.
func LoadValuesOf(p *prog.Program, rf map[int]int) []uint32 {
	vals := make([]uint32, p.NumOps())
	for loadID, storeID := range rf {
		if storeID < 0 {
			vals[loadID] = prog.InitialValue
		} else {
			vals[loadID] = p.OpByID(storeID).Value
		}
	}
	return vals
}
