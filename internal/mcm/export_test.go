package mcm

import "mtracecheck/internal/prog"

// FlipOrdered inverts one entry of m's preserved-program-order matrix, for
// the mutation test; the returned func restores it.
func FlipOrdered(m Model, first, second prog.OpKind) (restore func()) {
	flip := func() { ordered[m][first][second] = !ordered[m][first][second] }
	flip()
	return flip
}
