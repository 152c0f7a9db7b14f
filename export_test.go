package mtracecheck

import "mtracecheck/internal/sig"

// Checkpoint and Restore hand the tests the merger's checkpoint without a
// file: checkpoint builds what Save writes, restore is the gate of what
// Resume reads.
func (m *ChunkMerger) Checkpoint() sig.Checkpoint { return m.checkpoint() }

func (m *ChunkMerger) Restore(ck sig.Checkpoint) error { return m.restore(ck) }
