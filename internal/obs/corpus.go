package obs

import "time"

// Signature-corpus events. The cross-campaign corpus (internal/corpus)
// turns repeated interleavings into cache hits that skip decode and
// checking; these events make the cache's effectiveness — hit rates,
// growth, per-program saturation — operationally visible. Like the dist
// events they extend the observer layer through an optional interface,
// so existing Observer implementations keep compiling.
//
// Corpus hits are a pure function of (unique set, corpus content), both
// determinism-fixed, so every corpus quantity belongs in the
// invariant series of a metrics snapshot: one CorpusLookup event
// fires per campaign at the sort barrier (never per worker or per
// chunk), and one CorpusFlush fires per persisted append batch.

// CorpusOp identifies a corpus interaction by a campaign.
type CorpusOp uint8

const (
	// CorpusLookup marks the campaign's merged unique set being partitioned
	// against the corpus at the sort barrier: Hits skip decode+check,
	// Misses proceed as a cold run would.
	CorpusLookup CorpusOp = iota
	// CorpusFlush marks newly proven-acyclic signatures being persisted
	// atomically (violating signatures are never appended).
	CorpusFlush
	// CorpusIgnored marks an attached corpus the campaign refused to use
	// (load failure, signature-width mismatch); the campaign ran cold.
	CorpusIgnored
)

func (op CorpusOp) String() string {
	switch op {
	case CorpusLookup:
		return "lookup"
	case CorpusFlush:
		return "flush"
	case CorpusIgnored:
		return "ignored"
	}
	return "corpus-op?"
}

// CorpusEvent fires on signature-corpus interactions.
type CorpusEvent struct {
	Op CorpusOp
	// Program, Platform, and MCM are the corpus key coordinates.
	Program  uint64
	Platform string
	MCM      string
	// Hits and Misses partition the campaign's unique set (CorpusLookup).
	Hits   int
	Misses int
	// Appended is the number of newly staged known-good signatures
	// persisted by a CorpusFlush.
	Appended int
	// Known is the corpus's known-good count for this key after the op —
	// the per-program saturation denominator.
	Known int
	// Bytes is the file size written by a CorpusFlush.
	Bytes int64
	// Err carries the degradation cause for CorpusIgnored.
	Err  error
	Time time.Time
}

// CorpusObserver is the optional extension an Observer may implement to
// receive signature-corpus events. Implementations must be safe for
// concurrent use and must not block.
type CorpusObserver interface {
	CorpusEvent(e CorpusEvent)
}

// EmitCorpus delivers a corpus event to o if it implements
// CorpusObserver; nil-safe, so emission sites stay a single call.
func EmitCorpus(o Observer, e CorpusEvent) {
	if c, ok := o.(CorpusObserver); ok {
		c.CorpusEvent(e)
	}
}

// CorpusEvent implements CorpusObserver, forwarding to members that do.
func (m multi) CorpusEvent(e CorpusEvent) {
	for _, o := range m {
		EmitCorpus(o, e)
	}
}
