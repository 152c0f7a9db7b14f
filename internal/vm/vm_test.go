package vm

import (
	"errors"
	"math/rand"
	"testing"

	"mtracecheck/internal/instrument"
	"mtracecheck/internal/isa"
	"mtracecheck/internal/oracle"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/testgen"
)

// mustGenerate is testgen.Generate, panicking on error.
func mustGenerate(cfg testgen.Config) *prog.Program {
	p, err := testgen.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// assemble is a.Assemble, failing the test on error.
func assemble(t *testing.T, a *isa.Asm) []isa.Instr {
	t.Helper()
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// valueFn adapts dense load values (indexed by op ID).
func valueFn(t *testing.T, vals []uint32) func(int) (uint32, error) {
	t.Helper()
	return func(id int) (uint32, error) {
		if id >= len(vals) {
			t.Fatalf("no value for load %d", id)
		}
		return vals[id], nil
	}
}

func TestBasicArithmeticAndHalt(t *testing.T) {
	a := isa.NewAsm()
	a.MOVI(1, 5)
	a.ADDI(1, 7)
	a.STR(0x100, 1)
	a.HALT()
	th := NewThread(assemble(t, a), DefaultCostModel())
	res, err := th.Run(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Private[0x100] != 12 {
		t.Errorf("private[0x100] = %d, want 12", res.Private[0x100])
	}
	if res.Instructions != 4 {
		t.Errorf("instructions = %d, want 4", res.Instructions)
	}
	if res.PrivateStores != 1 {
		t.Errorf("private stores = %d", res.PrivateStores)
	}
}

func TestBranchingAndPredictor(t *testing.T) {
	// Loop-free code taking the same branch repeatedly across Runs: the
	// predictor should converge and stop mispredicting.
	a := isa.NewAsm()
	a.MOVI(0, 1)
	a.CMPI(0, 1)
	a.BEQ("yes")
	a.MOVI(2, 99)
	a.Label("yes")
	a.HALT()
	th := NewThread(assemble(t, a), DefaultCostModel())
	var first, last *Result
	for i := 0; i < 10; i++ {
		res, err := th.Run(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		}
		last = res
	}
	if last.Mispredicts != 0 {
		t.Errorf("warmed predictor still mispredicting: %d", last.Mispredicts)
	}
	if first.Mispredicts == 0 {
		t.Error("cold predictor never mispredicted (suspicious)")
	}
}

func TestFailTrap(t *testing.T) {
	a := isa.NewAsm()
	a.FAIL()
	th := NewThread(assemble(t, a), DefaultCostModel())
	_, err := th.Run(nil, 0)
	if !errors.Is(err, ErrAssertFailed) {
		t.Errorf("err = %v, want ErrAssertFailed", err)
	}
}

func TestRunawayGuard(t *testing.T) {
	a := isa.NewAsm()
	a.Label("top")
	a.B("top")
	th := NewThread(assemble(t, a), DefaultCostModel())
	if _, err := th.Run(nil, 100); err == nil {
		t.Error("infinite loop not caught")
	}
}

// TestInstrumentedMatchesEncode is the central cross-check: interpreting
// the generated instrumented code must produce exactly the signature words
// that instrument.Meta.EncodeValues computes analytically.
func TestInstrumentedMatchesEncode(t *testing.T) {
	for _, width := range []int{32, 64} {
		for seed := int64(1); seed <= 3; seed++ {
			p := mustGenerate(testgen.Config{
				Threads: 3, OpsPerThread: 50, Words: 4, Seed: seed,
			})
			meta, err := instrument.Analyze(p, width, nil)
			if err != nil {
				t.Fatal(err)
			}
			gp, err := instrument.Generate(meta, isa.EncodingRISC)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 10; trial++ {
				vals := oracle.Walk(p, rng.Intn).Values
				want, err := meta.EncodeValues(vals)
				if err != nil {
					t.Fatal(err)
				}
				wordAt := 0
				for ti := range p.Threads {
					th := NewThread(gp.Instrumented[ti], DefaultCostModel())
					res, err := th.Run(valueFn(t, vals), 0)
					if err != nil {
						t.Fatalf("thread %d: %v", ti, err)
					}
					words := meta.Threads[ti].Words
					for w := 0; w < words; w++ {
						got := res.Private[instrument.SigSlotAddr(ti, w)]
						// 32-bit platforms store 32-bit words; EncodeValues
						// words always fit the register width by construction.
						if got != want.Word(wordAt+w) {
							t.Fatalf("width %d thread %d word %d: vm %d, encode %d",
								width, ti, w, got, want.Word(wordAt+w))
						}
					}
					wordAt += words
				}
			}
		}
	}
}

// TestInstrumentedAssertCatchesBadValue: feeding a value outside the
// candidate set must reach the FAIL trap.
func TestInstrumentedAssertCatchesBadValue(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 2, OpsPerThread: 20, Words: 2, Seed: 4})
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := instrument.Generate(meta, isa.EncodingCISC)
	if err != nil {
		t.Fatal(err)
	}
	th := NewThread(gp.Instrumented[0], DefaultCostModel())
	_, err = th.Run(func(id int) (uint32, error) { return 0xDEAD, nil }, 0)
	if !errors.Is(err, ErrAssertFailed) {
		t.Errorf("err = %v, want ErrAssertFailed", err)
	}
}

// TestIntrusivenessAccounting: the flush variant performs one private store
// per load; the instrumented variant performs one per signature word.
func TestIntrusivenessAccounting(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 2, OpsPerThread: 50, Words: 4, Seed: 5})
	meta, err := instrument.Analyze(p, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := instrument.Generate(meta, isa.EncodingRISC)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	vals := oracle.Walk(p, rng.Intn).Values
	for ti := range p.Threads {
		loads := int64(len(p.Threads[ti].Loads()))
		fl := NewThread(gp.Flush[ti], DefaultCostModel())
		fres, err := fl.Run(valueFn(t, vals), 0)
		if err != nil {
			t.Fatal(err)
		}
		if fres.PrivateStores != loads {
			t.Errorf("thread %d flush: %d private stores, want %d", ti, fres.PrivateStores, loads)
		}
		in := NewThread(gp.Instrumented[ti], DefaultCostModel())
		ires, err := in.Run(valueFn(t, vals), 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(meta.Threads[ti].Words); ires.PrivateStores != want {
			t.Errorf("thread %d instrumented: %d private stores, want %d",
				ti, ires.PrivateStores, want)
		}
		if loads > 2 && ires.PrivateStores >= fres.PrivateStores {
			t.Errorf("thread %d: signature stores (%d) not below flush stores (%d)",
				ti, ires.PrivateStores, fres.PrivateStores)
		}
	}
}

// TestOriginalCheaperThanInstrumented: the cost model must price the
// instrumented run above the original but in the same ballpark once the
// predictor warms (paper: minimal overhead with few unique interleavings).
func TestOriginalCheaperThanInstrumented(t *testing.T) {
	p := mustGenerate(testgen.Config{Threads: 2, OpsPerThread: 100, Words: 8, Seed: 7})
	meta, err := instrument.Analyze(p, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := instrument.Generate(meta, isa.EncodingRISC)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	vals := oracle.Walk(p, rng.Intn).Values

	orig := NewThread(gp.Original[0], DefaultCostModel())
	inst := NewThread(gp.Instrumented[0], DefaultCostModel())
	var oC, iC int64
	for i := 0; i < 20; i++ { // same interleaving every iteration: warm predictor
		or, err := orig.Run(valueFn(t, vals), 0)
		if err != nil {
			t.Fatal(err)
		}
		ir, err := inst.Run(valueFn(t, vals), 0)
		if err != nil {
			t.Fatal(err)
		}
		oC, iC = or.Cycles, ir.Cycles
	}
	if iC <= oC {
		t.Errorf("instrumented (%d cycles) not above original (%d)", iC, oC)
	}
	if float64(iC) > 3.5*float64(oC) {
		t.Errorf("warmed instrumented overhead too high: %d vs %d cycles", iC, oC)
	}
}
