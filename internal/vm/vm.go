// Package vm interprets the pseudo-ISA code emitted by package instrument,
// replaying one thread's instruction stream against the load values an
// execution observed. It exists to measure what the paper measures about
// the instrumentation itself:
//
//   - Fig. 10: execution-time overhead of signature computation, via an
//     instruction cost model with a branch predictor (the paper attributes
//     the overhead almost entirely to branch mispredictions);
//   - Fig. 11: intrusiveness, by counting memory accesses unrelated to the
//     test (signature spills and register-flush stores to the thread's
//     private area);
//   - functional cross-checking: the signature words the interpreted code
//     stores must equal instrument.Meta.EncodeValues's result.
//
// Memory semantics: test loads return the value the execution observed for
// that operation (the coherent-memory interleaving was already resolved by
// package sim); test stores and fences are costed but need no effect here;
// STR writes to the private region are recorded.
package vm

import (
	"errors"
	"fmt"

	"mtracecheck/internal/isa"
)

// ErrAssertFailed reports that the instrumented code's assert chain caught
// a load value outside its candidate set (isa.FAIL reached).
var ErrAssertFailed = errors.New("vm: instrumentation assertion failed")

// CostModel assigns cycle costs to instruction classes.
type CostModel struct {
	Base        int // every instruction
	Mem         int // extra for LD/ST/STR
	Fence       int // extra for FENCE
	TakenBranch int // extra for a taken branch
	Mispredict  int // extra on branch misprediction
}

// DefaultCostModel loosely models a short pipeline: cheap ALU ops, costlier
// memory operations, and a significant misprediction penalty.
func DefaultCostModel() CostModel {
	return CostModel{Base: 1, Mem: 3, Fence: 10, TakenBranch: 1, Mispredict: 14}
}

// Result summarizes one thread-run.
type Result struct {
	Instructions int64
	Branches     int64
	Mispredicts  int64
	TestLoads    int64
	TestStores   int64
	Fences       int64
	// PrivateStores counts STR instructions — memory accesses unrelated to
	// the test execution (signature spills or register flushes).
	PrivateStores int64
	Cycles        int64
	// Private holds the final contents of the thread-private region
	// written by STR, keyed by address.
	Private map[uint64]uint64
}

// predictor is a classic per-PC 2-bit saturating counter table.
type predictor struct {
	counters map[int]uint8
}

func newPredictor() *predictor { return &predictor{counters: make(map[int]uint8)} }

// predict returns the predicted direction for the branch at pc and updates
// the counter with the actual outcome, reporting whether the prediction was
// wrong.
func (p *predictor) mispredicted(pc int, taken bool) bool {
	c := p.counters[pc]
	predictTaken := c >= 2
	if taken && c < 3 {
		c++
	} else if !taken && c > 0 {
		c--
	}
	p.counters[pc] = c
	return predictTaken != taken
}

// Thread interprets one thread's code. loadValue supplies the observed
// value for each test load (by test operation ID). The predictor state
// persists across Run calls, modelling a warmed branch predictor across
// iterations of the test loop — the effect behind the paper's observation
// that low-diversity tests pay almost no instrumentation overhead.
type Thread struct {
	code []isa.Instr
	cm   CostModel
	pred *predictor
}

// NewThread prepares an interpreter for the given code.
func NewThread(code []isa.Instr, cm CostModel) *Thread {
	return &Thread{code: code, cm: cm, pred: newPredictor()}
}

// Run interprets the code once. maxSteps guards against runaway loops
// (0 means a generous default).
func (t *Thread) Run(loadValue func(testOpID int) (uint32, error), maxSteps int) (*Result, error) {
	if maxSteps <= 0 {
		maxSteps = 100 * len(t.code)
		if maxSteps < 10000 {
			maxSteps = 10000
		}
	}
	res := &Result{Private: make(map[uint64]uint64)}
	var regs [isa.NumRegs]uint64
	flag := false
	pc := 0
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			return res, fmt.Errorf("vm: exceeded %d steps (runaway code?)", maxSteps)
		}
		if pc < 0 || pc >= len(t.code) {
			return res, fmt.Errorf("vm: pc %d out of code bounds", pc)
		}
		ins := t.code[pc]
		res.Instructions++
		res.Cycles += int64(t.cm.Base)
		switch ins.Op {
		case isa.LD:
			res.Cycles += int64(t.cm.Mem)
			res.TestLoads++
			v, err := loadValue(ins.TestOpID)
			if err != nil {
				return res, err
			}
			regs[ins.Rd] = uint64(v)
		case isa.ST:
			res.Cycles += int64(t.cm.Mem)
			res.TestStores++
		case isa.STR:
			res.Cycles += int64(t.cm.Mem)
			res.PrivateStores++
			res.Private[ins.Addr] = regs[ins.Rs]
		case isa.MOVI:
			regs[ins.Rd] = ins.Imm
		case isa.ADDI:
			regs[ins.Rd] += ins.Imm
		case isa.CMPI:
			flag = regs[ins.Rs] == ins.Imm
		case isa.BEQ, isa.BNE, isa.B:
			res.Branches++
			taken := true
			if ins.Op == isa.BEQ {
				taken = flag
			} else if ins.Op == isa.BNE {
				taken = !flag
			}
			if t.pred.mispredicted(pc, taken) {
				res.Mispredicts++
				res.Cycles += int64(t.cm.Mispredict)
			}
			if taken {
				res.Cycles += int64(t.cm.TakenBranch)
				pc = ins.Target
				continue
			}
		case isa.FENCE:
			res.Cycles += int64(t.cm.Fence)
			res.Fences++
		case isa.FAIL:
			return res, fmt.Errorf("%w at pc %d (test op %d)", ErrAssertFailed, pc, ins.TestOpID)
		case isa.HALT:
			return res, nil
		default:
			return res, fmt.Errorf("vm: unknown opcode %v at pc %d", ins.Op, pc)
		}
		pc++
	}
}
