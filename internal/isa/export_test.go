package isa

// MustAssemble is Assemble, panicking on error.
func (a *Asm) MustAssemble() []Instr {
	code, err := a.Assemble()
	if err != nil {
		panic(err)
	}
	return code
}
