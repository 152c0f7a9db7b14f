package prog

// LineOf returns the layout-line number containing the byte address. The
// simulator keys squashes on the platform's cache line instead, which a
// program's layout line need not equal.
func (l Layout) LineOf(addr uint64) uint64 { return addr / uint64(l.LineSize) }

// LineOfWord returns the layout-line number of a shared-word index.
func (l Layout) LineOfWord(word int) uint64 { return l.LineOf(l.AddrOf(word)) }
