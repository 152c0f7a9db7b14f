package testgen

import (
	"fmt"
	"strings"

	"mtracecheck/internal/prog"
)

// Outcome describes a particular execution result as the values observed by
// selected loads, keyed by load operation ID. A value of prog.InitialValue
// means the load read the initial memory contents.
type Outcome map[int]uint32

// MatchesValues reports whether the observed load values — a dense slice
// indexed by operation ID, the shape sim.Execution.LoadValues uses, covering
// at least the outcome's loads — satisfy the outcome.
func (o Outcome) MatchesValues(vals []uint32) bool {
	for id, want := range o {
		if id >= len(vals) || vals[id] != want {
			return false
		}
	}
	return true
}

// Litmus is a directed test: a small program and an outcome of interest.
// Which models forbid the outcome is computed, not written down: see
// internal/oracle.
type Litmus struct {
	Name        string
	Description string
	Prog        *prog.Program
	Interesting Outcome
}

// op returns the ID of the operation at (thread, index); storeVal returns
// the value written by the store at (thread, index).
func opID(p *prog.Program, thread, index int) int { return p.Threads[thread].Ops[index].ID }

func storeVal(p *prog.Program, thread, index int) uint32 {
	op := p.Threads[thread].Ops[index]
	if op.Kind != prog.Store {
		panic(fmt.Sprintf("testgen: op %d/%d is %v, not a store", thread, index, op.Kind))
	}
	return op.Value
}

// LitmusTests returns the directed litmus library. Shared words: the tests
// use at most four words (x=0, y=1, ...), each on its own cache line.
func LitmusTests() []Litmus {
	const x, y = 0, 1
	layout := prog.DefaultLayout()
	var tests []Litmus

	// SB — store buffering (Dekker). Both loads reading the initial value
	// requires st→ld reordering: forbidden only under SC.
	{
		p := prog.NewBuilder("SB", 2, layout).
			Thread().Store(x).Load(y).
			Thread().Store(y).Load(x).
			MustBuild()
		tests = append(tests, Litmus{
			Name:        "SB",
			Description: "store buffering: r0=r1=0 needs st->ld reordering",
			Prog:        p,
			Interesting: Outcome{
				opID(p, 0, 1): prog.InitialValue,
				opID(p, 1, 1): prog.InitialValue,
			},
		})
	}

	// SB+F — store buffering with fences: forbidden under every model.
	{
		p := prog.NewBuilder("SB+F", 2, layout).
			Thread().Store(x).Fence().Load(y).
			Thread().Store(y).Fence().Load(x).
			MustBuild()
		tests = append(tests, Litmus{
			Name:        "SB+F",
			Description: "store buffering with full fences: r0=r1=0 always forbidden",
			Prog:        p,
			Interesting: Outcome{
				opID(p, 0, 2): prog.InitialValue,
				opID(p, 1, 2): prog.InitialValue,
			},
		})
	}

	// MP — message passing. Seeing the flag but stale data requires st→st
	// (writer) or ld→ld (reader) reordering: forbidden under SC and TSO.
	{
		p := prog.NewBuilder("MP", 2, layout).
			Thread().Store(x).Store(y). // x=data, y=flag
			Thread().Load(y).Load(x).
			MustBuild()
		tests = append(tests, Litmus{
			Name:        "MP",
			Description: "message passing: flag set but data stale",
			Prog:        p,
			Interesting: Outcome{
				opID(p, 1, 0): storeVal(p, 0, 1), // read flag
				opID(p, 1, 1): prog.InitialValue, // stale data
			},
		})
	}

	// MP+F — message passing with fences: forbidden everywhere.
	{
		p := prog.NewBuilder("MP+F", 2, layout).
			Thread().Store(x).Fence().Store(y).
			Thread().Load(y).Fence().Load(x).
			MustBuild()
		tests = append(tests, Litmus{
			Name:        "MP+F",
			Description: "message passing with full fences: always forbidden",
			Prog:        p,
			Interesting: Outcome{
				opID(p, 1, 0): storeVal(p, 0, 2),
				opID(p, 1, 2): prog.InitialValue,
			},
		})
	}

	// LB — load buffering. Both loads seeing the other thread's store
	// requires ld→st reordering: forbidden under SC, TSO, PSO.
	{
		p := prog.NewBuilder("LB", 2, layout).
			Thread().Load(x).Store(y).
			Thread().Load(y).Store(x).
			MustBuild()
		tests = append(tests, Litmus{
			Name:        "LB",
			Description: "load buffering: both loads see the other store",
			Prog:        p,
			Interesting: Outcome{
				opID(p, 0, 0): storeVal(p, 1, 1),
				opID(p, 1, 0): storeVal(p, 0, 1),
			},
		})
	}

	// CoRR — coherence read-read: a later same-address load must not read an
	// older value than an earlier one. Forbidden under every model; this is
	// exactly the ld→ld-violation manifestation of the paper's bugs 1 and 2.
	{
		p := prog.NewBuilder("CoRR", 1, layout).
			Thread().Store(x).
			Thread().Load(x).Load(x).
			MustBuild()
		tests = append(tests, Litmus{
			Name:        "CoRR",
			Description: "coherence read-read: new value then old value",
			Prog:        p,
			Interesting: Outcome{
				opID(p, 1, 0): storeVal(p, 0, 0),
				opID(p, 1, 1): prog.InitialValue,
			},
		})
	}

	// LB+F — load buffering with fences: forbidden under every model.
	{
		p := prog.NewBuilder("LB+F", 2, layout).
			Thread().Load(x).Fence().Store(y).
			Thread().Load(y).Fence().Store(x).
			MustBuild()
		tests = append(tests, Litmus{
			Name:        "LB+F",
			Description: "load buffering with full fences: always forbidden",
			Prog:        p,
			Interesting: Outcome{
				opID(p, 0, 0): storeVal(p, 1, 2),
				opID(p, 1, 0): storeVal(p, 0, 2),
			},
		})
	}

	// WRC — write-to-read causality: forbidden under SC/TSO/PSO with
	// multi-copy atomic stores.
	{
		p := prog.NewBuilder("WRC", 2, layout).
			Thread().Store(x).
			Thread().Load(x).Store(y).
			Thread().Load(y).Load(x).
			MustBuild()
		tests = append(tests, Litmus{
			Name:        "WRC",
			Description: "write-to-read causality chain broken",
			Prog:        p,
			Interesting: Outcome{
				opID(p, 1, 0): storeVal(p, 0, 0),
				opID(p, 2, 0): storeVal(p, 1, 1),
				opID(p, 2, 1): prog.InitialValue,
			},
		})
	}

	// IRIW — independent reads of independent writes: the two readers
	// disagree on the store order. With multi-copy atomic stores this needs
	// ld→ld reordering: forbidden under SC/TSO/PSO.
	{
		p := prog.NewBuilder("IRIW", 2, layout).
			Thread().Store(x).
			Thread().Store(y).
			Thread().Load(x).Load(y).
			Thread().Load(y).Load(x).
			MustBuild()
		tests = append(tests, Litmus{
			Name:        "IRIW",
			Description: "independent readers disagree on write order",
			Prog:        p,
			Interesting: Outcome{
				opID(p, 2, 0): storeVal(p, 0, 0),
				opID(p, 2, 1): prog.InitialValue,
				opID(p, 3, 0): storeVal(p, 1, 0),
				opID(p, 3, 1): prog.InitialValue,
			},
		})
	}

	// IRIW+F — independent reads with fenced readers: forbidden under every
	// model given multi-copy atomic stores.
	{
		p := prog.NewBuilder("IRIW+F", 2, layout).
			Thread().Store(x).
			Thread().Store(y).
			Thread().Load(x).Fence().Load(y).
			Thread().Load(y).Fence().Load(x).
			MustBuild()
		tests = append(tests, Litmus{
			Name:        "IRIW+F",
			Description: "fenced independent readers disagree on write order",
			Prog:        p,
			Interesting: Outcome{
				opID(p, 2, 0): storeVal(p, 0, 0),
				opID(p, 2, 2): prog.InitialValue,
				opID(p, 3, 0): storeVal(p, 1, 0),
				opID(p, 3, 2): prog.InitialValue,
			},
		})
	}

	return tests
}

// LitmusByName returns the named litmus test; the error for an unknown name
// lists the known ones.
func LitmusByName(name string) (Litmus, error) {
	var known []string
	for _, l := range LitmusTests() {
		if l.Name == name {
			return l, nil
		}
		known = append(known, l.Name)
	}
	return Litmus{}, fmt.Errorf("testgen: no litmus test named %q (known: %s)", name, strings.Join(known, ", "))
}
