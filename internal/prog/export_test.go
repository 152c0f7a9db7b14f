package prog

// LineOfWord returns the cache-line number of a shared-word index.
func (l Layout) LineOfWord(word int) uint64 { return l.LineOf(l.AddrOf(word)) }
