package mem

// Outstanding returns the number of incomplete Read/Write operations; a
// drained event queue with Outstanding > 0 indicates a protocol deadlock.
func (s *System) Outstanding() int { return s.outstanding }

// PeekWord returns the globally committed value of the word at addr,
// preferring a dirty cached copy over backing memory. For use at quiescent
// points (between iterations).
func (s *System) PeekWord(addr uint64) uint32 {
	base, idx := s.lineBase(addr), s.wordIndex(addr)
	for _, c := range s.caches {
		if ln := c.lookup(base); ln != nil && ln.state == stateM {
			return s.row(ln.row)[idx]
		}
	}
	return s.memLine(s.lineOf(base))[idx]
}
