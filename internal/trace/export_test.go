package trace

// AddrOfOp returns the trace byte address accessed by a bound program
// operation ID (fences return 0).
func (b *Binding) AddrOfOp(id int) uint64 {
	return b.Trace.Ops[b.Source[id]].Addr
}
