package isa

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpcodeStrings(t *testing.T) {
	if LD.String() != "ld" || FENCE.String() != "fence" || HALT.String() != "halt" {
		t.Error("opcode mnemonics wrong")
	}
	if !strings.Contains(Opcode(200).String(), "200") {
		t.Error("unknown opcode String")
	}
}

func TestAsmResolvesForwardAndBackwardBranches(t *testing.T) {
	a := NewAsm()
	a.Label("top")
	a.MOVI(0, 1)
	a.CMPI(0, 1)
	a.BEQ("end") // forward
	a.B("top")   // backward
	a.Label("end")
	a.HALT()
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if code[2].Target != 4 {
		t.Errorf("forward target = %d, want 4", code[2].Target)
	}
	if code[3].Target != 0 {
		t.Errorf("backward target = %d, want 0", code[3].Target)
	}
}

func TestAsmUndefinedLabel(t *testing.T) {
	a := NewAsm()
	a.B("nowhere")
	if _, err := a.Assemble(); err == nil {
		t.Error("Assemble accepted undefined label")
	}
}

func TestAsmDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate label did not panic")
		}
	}()
	a := NewAsm()
	a.Label("x")
	a.Label("x")
}

func TestAsmTestOpAttribution(t *testing.T) {
	a := NewAsm()
	a.SetTestOp(7)
	a.LD(0, 0x100)
	a.SetTestOp(-1)
	a.CMPI(0, 0)
	code := a.MustAssemble()
	if code[0].TestOpID != 7 {
		t.Errorf("load TestOpID = %d, want 7", code[0].TestOpID)
	}
	if code[1].TestOpID != -1 {
		t.Errorf("cmpi TestOpID = %d, want -1", code[1].TestOpID)
	}
}

func TestRISCFixedWidth(t *testing.T) {
	small := []Instr{
		{Op: LD, Rd: 1, Addr: 0x100},
		{Op: MOVI, Rd: 2, Imm: 5},
		{Op: B, Target: 3},
		{Op: FENCE},
		{Op: HALT},
	}
	for _, i := range small {
		if got := EncodingRISC.Size(i); got != 4 {
			t.Errorf("RISC size of %v = %d, want 4", i, got)
		}
	}
}

func TestRISCWideOperandsTakeLiterals(t *testing.T) {
	if got := EncodingRISC.Size(Instr{Op: MOVI, Imm: 1 << 20}); got != 8 {
		t.Errorf("wide MOVI = %d, want 8", got)
	}
	if got := EncodingRISC.Size(Instr{Op: LD, Addr: 0x10000}); got != 8 {
		t.Errorf("wide LD = %d, want 8", got)
	}
	if got := EncodingRISC.Size(Instr{Op: ST, Addr: 0x10000, Imm: 1 << 20}); got != 12 {
		t.Errorf("wide ST = %d, want 12", got)
	}
}

func TestCISCVariableWidth(t *testing.T) {
	cases := []struct {
		i    Instr
		want int
	}{
		{Instr{Op: LD, Rd: 1, Addr: 0x100}, 6},
		{Instr{Op: ST, Addr: 0x100, Imm: 5}, 6},
		{Instr{Op: ST, Addr: 0x100, Imm: 300}, 7},
		{Instr{Op: MOVI, Rd: 1, Imm: 1}, 3},
		{Instr{Op: MOVI, Rd: 1, Imm: 1 << 40}, 10},
		{Instr{Op: ADDI, Rd: 1, Imm: 70000}, 6},
		{Instr{Op: BNE, Target: 9}, 5},
		{Instr{Op: FENCE}, 3},
		{Instr{Op: FAIL}, 2},
		{Instr{Op: HALT}, 1},
	}
	for _, c := range cases {
		if got := EncodingCISC.Size(c.i); got != c.want {
			t.Errorf("CISC size of %v = %d, want %d", c.i, got, c.want)
		}
	}
}

func TestEncodeLengthMatchesSize(t *testing.T) {
	f := func(opSel uint8, rd, rs uint8, imm uint64, addr uint32, enc bool) bool {
		ops := []Opcode{LD, ST, STR, MOVI, ADDI, CMPI, BEQ, BNE, B, FENCE, FAIL, HALT}
		i := Instr{
			Op:   ops[int(opSel)%len(ops)],
			Rd:   Reg(rd % NumRegs),
			Rs:   Reg(rs % NumRegs),
			Imm:  imm,
			Addr: uint64(addr),
		}
		e := EncodingRISC
		if enc {
			e = EncodingCISC
		}
		b := e.Encode(nil, i)
		return len(b) == e.Size(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodeSizeSums(t *testing.T) {
	code := []Instr{
		{Op: MOVI, Rd: 1, Imm: 1},
		{Op: HALT},
	}
	if got := EncodingCISC.CodeSize(code); got != 4 {
		t.Errorf("CodeSize = %d, want 4", got)
	}
	if got := EncodingRISC.CodeSize(code); got != 8 {
		t.Errorf("RISC CodeSize = %d, want 8", got)
	}
}

func TestDisassemble(t *testing.T) {
	a := NewAsm()
	a.LD(1, 0x100)
	a.CMPI(1, 0)
	a.BNE("out")
	a.Label("out")
	a.HALT()
	var text strings.Builder
	for _, i := range a.MustAssemble() {
		fmt.Fprintln(&text, i)
	}
	for _, want := range []string{"ld r1, [0x100]", "cmpi r1, #0", "bne @3", "halt"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("disassembly missing %q:\n%s", want, &text)
		}
	}
}

func TestInstrStringAll(t *testing.T) {
	// Every opcode renders something non-empty and panic-free.
	for op := LD; op <= HALT; op++ {
		s := Instr{Op: op, Rd: 1, Rs: 2, Imm: 3, Addr: 4, Target: 5}.String()
		if s == "" {
			t.Errorf("empty String for %v", op)
		}
	}
}
