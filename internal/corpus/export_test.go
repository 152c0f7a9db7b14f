package corpus

// Test-only views of a store's contents; the product reads a store through
// Contains, Len and Words alone.

// total returns the number of known-good signatures across all keys.
func (s *Store) total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sec := range s.sections {
		n += len(sec.entries)
	}
	return n
}

// keys returns the corpus keys in first-seen order.
func (s *Store) keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Key(nil), s.order...)
}

// entries returns k's known-good signatures in append order.
func (s *Store) entries(k Key) []entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sec := s.sections[k]; sec != nil {
		return append([]entry(nil), sec.entries...)
	}
	return nil
}
