// Package isa defines the small pseudo-ISA in which test programs are
// materialized after instrumentation, together with two byte encodings used
// for the paper's code-size accounting (Fig. 12):
//
//   - EncodingRISC: fixed 4-byte instructions (the "ARM-like" flavor), with
//     an extra 4-byte literal word when an immediate or address does not fit
//     the instruction's 16-bit immediate field (a movw/movt-style pair).
//   - EncodingCISC: variable-length instructions (the "x86-like" flavor):
//     one opcode byte, one register byte when registers are used, plus the
//     minimal 1/2/4/8-byte immediate and 4-byte absolute addresses.
//
// The interpreter in internal/vm executes the instruction list directly; the
// encodings exist so instrumented-versus-original code-size ratios are
// measured on realistic instruction bytes rather than estimated.
package isa

import (
	"encoding/binary"
	"fmt"
)

// Reg names one of the 16 general-purpose registers r0..r15.
type Reg uint8

// NumRegs is the number of addressable registers.
const NumRegs = 16

// String returns the conventional register name, e.g. "r3".
func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Opcode enumerates the pseudo-ISA instructions.
type Opcode uint8

const (
	// LD loads the shared word at Addr into Rd.
	LD Opcode = iota
	// ST stores the immediate Imm to the shared word at Addr.
	ST
	// STR stores register Rs to the (typically thread-private) word at
	// Addr; used by signature spills and the register-flushing baseline.
	STR
	// MOVI sets Rd to the immediate Imm.
	MOVI
	// ADDI adds the immediate Imm to Rd.
	ADDI
	// CMPI sets the equality flag to (Rs == Imm).
	CMPI
	// BEQ branches to Target when the equality flag is set.
	BEQ
	// BNE branches to Target when the equality flag is clear.
	BNE
	// B branches unconditionally to Target.
	B
	// FENCE is a full memory barrier.
	FENCE
	// FAIL traps: an instrumentation assertion failed (paper §3.1 — a value
	// outside the load's statically computed candidate set).
	FAIL
	// HALT ends the thread.
	HALT
)

var opcodeNames = [...]string{
	LD: "ld", ST: "st", STR: "str", MOVI: "movi", ADDI: "addi", CMPI: "cmpi",
	BEQ: "beq", BNE: "bne", B: "b", FENCE: "fence", FAIL: "fail", HALT: "halt",
}

// String returns the mnemonic.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) {
		return opcodeNames[o]
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// Instr is one decoded instruction. Target is an instruction index within
// the containing code sequence (resolved by the assembler).
type Instr struct {
	Op     Opcode
	Rd, Rs Reg
	Imm    uint64
	Addr   uint64
	Target int
	// TestOpID links the instruction back to the test-program operation it
	// implements (-1 for instrumentation-only instructions). The VM uses it
	// to attribute memory traffic.
	TestOpID int
}

// String renders a textual disassembly of the instruction.
func (i Instr) String() string {
	switch i.Op {
	case LD:
		return fmt.Sprintf("ld %s, [%#x]", i.Rd, i.Addr)
	case ST:
		return fmt.Sprintf("st [%#x], #%d", i.Addr, i.Imm)
	case STR:
		return fmt.Sprintf("str [%#x], %s", i.Addr, i.Rs)
	case MOVI:
		return fmt.Sprintf("movi %s, #%d", i.Rd, i.Imm)
	case ADDI:
		return fmt.Sprintf("addi %s, #%d", i.Rd, i.Imm)
	case CMPI:
		return fmt.Sprintf("cmpi %s, #%d", i.Rs, i.Imm)
	case BEQ, BNE, B:
		return fmt.Sprintf("%s @%d", i.Op, i.Target)
	default:
		return i.Op.String()
	}
}

// Encoding selects a byte-size model for code-size accounting.
type Encoding uint8

const (
	// EncodingRISC is the fixed-width (ARM-like) encoding.
	EncodingRISC Encoding = iota
	// EncodingCISC is the variable-width (x86-like) encoding.
	EncodingCISC
)

// String names the encoding.
func (e Encoding) String() string {
	if e == EncodingRISC {
		return "RISC"
	}
	return "CISC"
}

// immBytes returns the minimal immediate width for the CISC encoding.
func immBytes(v uint64) int {
	switch {
	case v < 1<<8:
		return 1
	case v < 1<<16:
		return 2
	case v < 1<<32:
		return 4
	default:
		return 8
	}
}

// Size returns the encoded size of the instruction in bytes.
func (e Encoding) Size(i Instr) int {
	if e == EncodingRISC {
		// 4 bytes, plus a literal word for wide immediates/addresses.
		extra := 0
		if i.Imm >= 1<<16 {
			extra += 4
		}
		if (i.Op == LD || i.Op == ST || i.Op == STR) && i.Addr >= 1<<16 {
			extra += 4
		}
		return 4 + extra
	}
	// CISC: opcode byte + register byte (when registers used) + operands.
	switch i.Op {
	case LD:
		return 1 + 1 + 4 // opcode, reg, abs32 address
	case ST:
		return 1 + 4 + immBytes(i.Imm)
	case STR:
		return 1 + 1 + 4
	case MOVI, ADDI, CMPI:
		return 1 + 1 + immBytes(i.Imm)
	case BEQ, BNE, B:
		return 1 + 4 // rel32
	case FENCE:
		return 3 // e.g. mfence
	case FAIL:
		return 2 // e.g. ud2
	case HALT:
		return 1
	default:
		return 1
	}
}

// Encode appends an encoded form of the instruction to b. The byte layout
// is deterministic and length-consistent with Size; it exists so code-size
// measurements operate on real byte streams.
func (e Encoding) Encode(b []byte, i Instr) []byte {
	n := e.Size(i)
	start := len(b)
	b = append(b, byte(i.Op), byte(i.Rd)<<4|byte(i.Rs))
	b = binary.LittleEndian.AppendUint32(b, uint32(i.Addr))
	b = binary.LittleEndian.AppendUint64(b, i.Imm)
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(i.Target)))
	// Truncate or pad to the modeled size.
	if len(b)-start > n {
		b = b[:start+n]
	}
	for len(b)-start < n {
		b = append(b, 0)
	}
	return b
}

// CodeSize returns the total encoded size in bytes of the code sequence.
func (e Encoding) CodeSize(code []Instr) int {
	n := 0
	for _, i := range code {
		n += e.Size(i)
	}
	return n
}
