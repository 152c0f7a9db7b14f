package isa

import "fmt"

// Asm builds an instruction sequence with symbolic labels, resolving branch
// targets at Assemble time. Labels may be referenced before definition
// (forward branches), which the instrumentation's branch chains rely on.
type Asm struct {
	code   []Instr
	labels map[string]int
	refs   []ref
	opID   int // TestOpID attributed to subsequently emitted instructions
}

type ref struct {
	instr int
	label string
}

// NewAsm returns an empty assembler.
func NewAsm() *Asm {
	return &Asm{labels: make(map[string]int), opID: -1}
}

// SetTestOp attributes subsequently emitted instructions to the given test
// operation ID; pass -1 for instrumentation-only code.
func (a *Asm) SetTestOp(id int) { a.opID = id }

// Len returns the number of instructions emitted so far.
func (a *Asm) Len() int { return len(a.code) }

// Label defines name at the current position.
func (a *Asm) Label(name string) {
	if _, dup := a.labels[name]; dup {
		panic(fmt.Sprintf("isa: duplicate label %q", name))
	}
	a.labels[name] = len(a.code)
}

func (a *Asm) emit(i Instr) {
	i.TestOpID = a.opID
	a.code = append(a.code, i)
}

// LD emits a load of [addr] into rd.
func (a *Asm) LD(rd Reg, addr uint64) { a.emit(Instr{Op: LD, Rd: rd, Addr: addr}) }

// ST emits a store of the immediate to [addr].
func (a *Asm) ST(addr uint64, imm uint64) { a.emit(Instr{Op: ST, Addr: addr, Imm: imm}) }

// STR emits a store of register rs to [addr].
func (a *Asm) STR(addr uint64, rs Reg) { a.emit(Instr{Op: STR, Rs: rs, Addr: addr}) }

// MOVI emits rd = imm.
func (a *Asm) MOVI(rd Reg, imm uint64) { a.emit(Instr{Op: MOVI, Rd: rd, Imm: imm}) }

// ADDI emits rd += imm.
func (a *Asm) ADDI(rd Reg, imm uint64) { a.emit(Instr{Op: ADDI, Rd: rd, Imm: imm}) }

// CMPI emits flag = (rs == imm).
func (a *Asm) CMPI(rs Reg, imm uint64) { a.emit(Instr{Op: CMPI, Rs: rs, Imm: imm}) }

func (a *Asm) branch(op Opcode, label string) {
	a.refs = append(a.refs, ref{instr: len(a.code), label: label})
	a.emit(Instr{Op: op, Target: -1})
}

// BEQ emits a branch to label when the flag is set.
func (a *Asm) BEQ(label string) { a.branch(BEQ, label) }

// BNE emits a branch to label when the flag is clear.
func (a *Asm) BNE(label string) { a.branch(BNE, label) }

// B emits an unconditional branch to label.
func (a *Asm) B(label string) { a.branch(B, label) }

// FENCE emits a full barrier.
func (a *Asm) FENCE() { a.emit(Instr{Op: FENCE}) }

// FAIL emits an assertion trap.
func (a *Asm) FAIL() { a.emit(Instr{Op: FAIL}) }

// HALT emits a thread terminator.
func (a *Asm) HALT() { a.emit(Instr{Op: HALT}) }

// Assemble resolves all label references and returns the code.
func (a *Asm) Assemble() ([]Instr, error) {
	for _, r := range a.refs {
		tgt, ok := a.labels[r.label]
		if !ok {
			return nil, fmt.Errorf("isa: undefined label %q", r.label)
		}
		a.code[r.instr].Target = tgt
	}
	return a.code, nil
}
