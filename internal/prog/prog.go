// Package prog defines the intermediate representation of multi-threaded
// memory-ordering test programs: operations, threads, programs, and the
// shared-memory layout that maps abstract shared words onto byte addresses
// and cache lines (including false-sharing layouts).
//
// A test program in MTraceCheck is a set of per-thread straight-line
// sequences of load, store, and fence operations over a small pool of shared
// words. Every store writes a unique non-zero value (its "store ID") so that
// any load's observed value identifies exactly one writer, which is the
// property the signature instrumentation relies on.
package prog

import (
	"fmt"
	"strings"
)

// OpKind classifies an operation in a test program.
type OpKind uint8

const (
	// Load reads one shared word into a (virtual) register.
	Load OpKind = iota
	// Store writes the operation's unique value to one shared word.
	Store
	// Fence is a full memory barrier: it orders every earlier memory
	// operation of its thread before every later one.
	Fence
)

// String returns the conventional lowercase mnemonic for the kind.
func (k OpKind) String() string {
	switch k {
	case Load:
		return "ld"
	case Store:
		return "st"
	case Fence:
		return "fence"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// InitialValue is the value every shared word holds before a test iteration
// starts. Store IDs are allocated starting at 1 so that InitialValue never
// aliases a store.
const InitialValue uint32 = 0

// Op is a single operation of a test program.
//
// IDs are unique within a program and allocated thread-major: thread 0's
// operations come first in ID order, then thread 1's, and so on. A store's
// Value is its ID+1, guaranteeing uniqueness and non-zeroness.
type Op struct {
	ID     int    // unique within the program, thread-major
	Thread int    // owning thread index
	Index  int    // position within the owning thread, from 0
	Kind   OpKind // Load, Store, or Fence
	Word   int    // shared-word index; -1 for fences
	Value  uint32 // stores: unique value written (ID+1); otherwise 0
}

// IsMemory reports whether the operation accesses memory (load or store).
func (o Op) IsMemory() bool { return o.Kind == Load || o.Kind == Store }

// String renders the operation in the style of the paper's listings,
// e.g. "st 0x6" or "ld 0x2".
func (o Op) String() string {
	if o.Kind == Fence {
		return "fence"
	}
	return fmt.Sprintf("%s %#x", o.Kind, o.Word)
}

// Thread is one thread's straight-line operation sequence.
type Thread struct {
	Ops []Op
}

// Loads returns the thread's load operations in program order.
func (t Thread) Loads() []Op {
	var out []Op
	for _, op := range t.Ops {
		if op.Kind == Load {
			out = append(out, op)
		}
	}
	return out
}

// Stores returns the thread's store operations in program order.
func (t Thread) Stores() []Op {
	var out []Op
	for _, op := range t.Ops {
		if op.Kind == Store {
			out = append(out, op)
		}
	}
	return out
}

// Layout maps shared-word indices to byte addresses. WordsPerLine controls
// false sharing: with WordsPerLine == 1 every word occupies its own cache
// line; larger values pack several independent shared words into one line,
// creating line-level contention between threads that access different
// words (paper §6.1, "Impact of false sharing").
type Layout struct {
	Base         uint64 // byte address of shared word 0
	LineSize     int    // bytes between line starts (the platform's cache line may differ)
	WordSize     int    // shared word size in bytes
	WordsPerLine int    // shared words packed per cache line (1, 4, 16, ...)
}

// DefaultLayout matches the paper's setup: 64-byte lines, 4-byte words, no
// false sharing.
func DefaultLayout() Layout {
	return Layout{Base: 0x10000, LineSize: 64, WordSize: 4, WordsPerLine: 1}
}

// Validate checks the layout's internal consistency.
func (l Layout) Validate() error {
	switch {
	case l.LineSize <= 0:
		return fmt.Errorf("prog: layout line size %d must be positive", l.LineSize)
	case l.WordSize <= 0:
		return fmt.Errorf("prog: layout word size %d must be positive", l.WordSize)
	case l.WordsPerLine <= 0:
		return fmt.Errorf("prog: layout words-per-line %d must be positive", l.WordsPerLine)
	case l.WordsPerLine*l.WordSize > l.LineSize:
		return fmt.Errorf("prog: %d words of %d bytes exceed %d-byte line",
			l.WordsPerLine, l.WordSize, l.LineSize)
	case l.Base%uint64(l.LineSize) != 0:
		return fmt.Errorf("prog: base %#x not line-aligned", l.Base)
	}
	return nil
}

// AddrOf returns the byte address of the given shared-word index.
func (l Layout) AddrOf(word int) uint64 {
	line := word / l.WordsPerLine
	slot := word % l.WordsPerLine
	return l.Base + uint64(line)*uint64(l.LineSize) + uint64(slot)*uint64(l.WordSize)
}

// Program is a complete multi-threaded test program.
type Program struct {
	Name     string   // optional human-readable name (litmus tests)
	Threads  []Thread // per-thread operation sequences
	NumWords int      // number of distinct shared words used
	Layout   Layout   // shared-memory placement
}

// NumThreads returns the number of threads.
func (p *Program) NumThreads() int { return len(p.Threads) }

// NumOps returns the total operation count across all threads.
func (p *Program) NumOps() int {
	n := 0
	for _, t := range p.Threads {
		n += len(t.Ops)
	}
	return n
}

// Ops returns all operations flattened in ID (thread-major) order.
func (p *Program) Ops() []Op {
	out := make([]Op, 0, p.NumOps())
	for _, t := range p.Threads {
		out = append(out, t.Ops...)
	}
	return out
}

// OpByID returns the operation with the given ID.
// It panics if the ID is out of range or the program is inconsistently
// numbered; use Validate to check integrity first.
func (p *Program) OpByID(id int) Op {
	for _, t := range p.Threads {
		if len(t.Ops) == 0 {
			continue
		}
		first := t.Ops[0].ID
		if id >= first && id < first+len(t.Ops) {
			return t.Ops[id-first]
		}
	}
	panic(fmt.Sprintf("prog: no op with ID %d", id))
}

// StoresToWord returns, in thread-major program order, every store to the
// given shared word.
func (p *Program) StoresToWord(word int) []Op {
	var out []Op
	for _, t := range p.Threads {
		for _, op := range t.Ops {
			if op.Kind == Store && op.Word == word {
				out = append(out, op)
			}
		}
	}
	return out
}

// Validate checks structural integrity: thread-major contiguous IDs, store
// values equal to ID+1, word indices in range, and a consistent layout.
func (p *Program) Validate() error {
	if err := p.Layout.Validate(); err != nil {
		return err
	}
	nextID := 0
	for ti, t := range p.Threads {
		for oi, op := range t.Ops {
			if op.ID != nextID {
				return fmt.Errorf("prog: thread %d op %d: ID %d, want %d", ti, oi, op.ID, nextID)
			}
			nextID++
			if op.Thread != ti {
				return fmt.Errorf("prog: op %d: thread %d, want %d", op.ID, op.Thread, ti)
			}
			if op.Index != oi {
				return fmt.Errorf("prog: op %d: index %d, want %d", op.ID, op.Index, oi)
			}
			switch op.Kind {
			case Load, Store:
				if op.Word < 0 || op.Word >= p.NumWords {
					return fmt.Errorf("prog: op %d: word %d out of range [0,%d)", op.ID, op.Word, p.NumWords)
				}
			case Fence:
				if op.Word != -1 {
					return fmt.Errorf("prog: fence op %d: word %d, want -1", op.ID, op.Word)
				}
			default:
				return fmt.Errorf("prog: op %d: unknown kind %d", op.ID, op.Kind)
			}
			if op.Kind == Store {
				if op.Value != uint32(op.ID)+1 {
					return fmt.Errorf("prog: store op %d: value %d, want %d", op.ID, op.Value, op.ID+1)
				}
			} else if op.Value != 0 {
				return fmt.Errorf("prog: non-store op %d: value %d, want 0", op.ID, op.Value)
			}
		}
	}
	return nil
}

// String renders the program as per-thread columns of mnemonics.
func (p *Program) String() string {
	var b strings.Builder
	if p.Name != "" {
		fmt.Fprintf(&b, "%s ", p.Name)
	}
	fmt.Fprintf(&b, "(%d threads, %d words)\n", p.NumThreads(), p.NumWords)
	for ti, t := range p.Threads {
		fmt.Fprintf(&b, "thread %d:", ti)
		for _, op := range t.Ops {
			fmt.Fprintf(&b, " %s;", op)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Builder incrementally constructs a valid Program, assigning IDs, indices,
// and store values automatically.
type Builder struct {
	p       Program
	current int
}

// NewBuilder returns a Builder for a program over numWords shared words with
// the given layout.
func NewBuilder(name string, numWords int, layout Layout) *Builder {
	return &Builder{p: Program{Name: name, NumWords: numWords, Layout: layout}, current: -1}
}

// Thread starts a new thread; subsequent Op calls append to it.
// Threads must be built in order; IDs are thread-major.
func (b *Builder) Thread() *Builder {
	b.p.Threads = append(b.p.Threads, Thread{})
	b.current = len(b.p.Threads) - 1
	return b
}

func (b *Builder) add(kind OpKind, word int) *Builder {
	if b.current < 0 {
		panic("prog: Builder.Op before Thread")
	}
	t := &b.p.Threads[b.current]
	id := b.nextID()
	op := Op{ID: id, Thread: b.current, Index: len(t.Ops), Kind: kind, Word: word}
	if kind == Store {
		op.Value = uint32(id) + 1
	}
	if kind == Fence {
		op.Word = -1
	}
	t.Ops = append(t.Ops, op)
	return b
}

func (b *Builder) nextID() int {
	n := 0
	for _, t := range b.p.Threads {
		n += len(t.Ops)
	}
	return n
}

// Load appends a load of the given shared word to the current thread.
func (b *Builder) Load(word int) *Builder { return b.add(Load, word) }

// Store appends a store to the given shared word to the current thread.
func (b *Builder) Store(word int) *Builder { return b.add(Store, word) }

// Fence appends a full fence to the current thread.
func (b *Builder) Fence() *Builder { return b.add(Fence, -1) }

// Build finalizes and validates the program.
//
// Because the Builder assigns IDs eagerly in thread-major order, threads must
// be populated strictly in sequence; interleaving Thread and Op calls across
// threads would break ID contiguity and is reported here.
func (b *Builder) Build() (*Program, error) {
	p := b.p
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// MustBuild is Build, panicking on error. Intended for static test tables.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
