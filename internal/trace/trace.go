// Package trace is the neutral representation of externally observed
// executions: per-thread sequences of top-level memory requests and
// responses, in the style of the Axe consistency checker's trace files
// (CTSRD-CHERI/axe). A trace records what some memory subsystem — real
// silicon, an RTL simulation, another simulator — actually did: the stores
// each thread issued and the value each load response carried. Checking a
// trace against a memory consistency model needs nothing else, which is
// what makes the format the front door for executions this repository's own
// simulator never produced.
//
// A trace maps onto the existing checking machinery by Bind: the per-thread
// operation sequences become a prog.Program (with the framework's canonical
// unique store values), and each load's observed value resolves to the
// store that wrote it — the reads-from relation the constraint-graph
// builder consumes. The text grammar lives in Parse/Format; the golden
// files under testdata/ are the committed examples.
package trace

import (
	"fmt"
	"strconv"
	"sync"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/prog"
)

// Kind classifies one trace operation.
type Kind uint8

const (
	// Load is a read request whose response carried Value.
	Load Kind = iota
	// Store is a write request of Value.
	Store
	// Fence is a full memory barrier ("sync" in the text format).
	Fence
)

// String returns the text-format spelling of the kind's operator.
func (k Kind) String() string {
	switch k {
	case Load:
		return "=="
	case Store:
		return ":="
	case Fence:
		return "sync"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Op is one observed memory request/response, in 24 bytes: a trace is held
// as a slice of them, so the layout is what a parsed trace costs per op.
type Op struct {
	Addr   uint64 // byte address; 0 for fences
	Value  uint64 // store: value written; load: value the response carried
	Line   int32  // 1-based source line in the parsed file; 0 if constructed
	Thread uint16 // issuing thread ID (need not be dense)
	Kind   Kind   // Load, Store, or Fence
}

// String renders the op as one canonical trace line (without newline),
// re-parseable by Parse.
func (o Op) String() string {
	var b [maxFormatLine]byte
	return string(o.appendText(b[:0]))
}

// maxFormatLine is the longest line Format writes, newline included.
const maxFormatLine = len("65535: M[0xffffffffffffffff] := 18446744073709551615\n")

// appendText appends the op's canonical trace line, without newline, to b.
func (o Op) appendText(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(o.Thread), 10)
	if o.Kind == Fence {
		return append(b, ": sync"...)
	}
	b = append(b, ": M[0x"...)
	b = strconv.AppendUint(b, o.Addr, 16)
	b = append(b, "] "...)
	b = append(b, o.Kind.String()...)
	b = append(b, ' ')
	return strconv.AppendUint(b, o.Value, 10)
}

// Trace is one observed execution: operations in file order, which within
// each thread is that thread's program order. Order across threads carries
// no meaning — the trace records what happened, not when.
type Trace struct {
	Ops []Op
}

// InitialValue is the value every address holds before the execution
// starts, matching both Axe's convention and prog.InitialValue.
const InitialValue uint64 = 0

// Structural bounds. They exist so hostile or corrupt inputs fail fast with
// a clear error instead of exhausting memory: op IDs must fit the checker's
// int32 vertices, and thread IDs size per-thread bookkeeping.
const (
	// MaxOps bounds the operation count of one trace.
	MaxOps = 1 << 20
	// MaxThreadID bounds thread IDs (IDs need not be dense below it): it is
	// the range of Op.Thread, and Parse refuses a larger ID in text.
	MaxThreadID = 1 << 16
)

// NumThreads returns the number of distinct thread IDs observed.
func (t *Trace) NumThreads() int {
	seen := make(map[uint16]bool)
	for _, op := range t.Ops {
		seen[op.Thread] = true
	}
	return len(seen)
}

// Equal reports whether two traces record the same operations in the same
// order, ignoring source-line provenance.
func (t *Trace) Equal(u *Trace) bool {
	if len(t.Ops) != len(u.Ops) {
		return false
	}
	for i, a := range t.Ops {
		b := u.Ops[i]
		if a.Thread != b.Thread || a.Kind != b.Kind || a.Addr != b.Addr || a.Value != b.Value {
			return false
		}
	}
	return true
}

// position renders the source position of t.Ops[i] for error messages: the
// line it was parsed from, or its index when the trace was constructed.
func (t *Trace) position(i int) string {
	if line := t.Ops[i].Line; line > 0 {
		return fmt.Sprintf("line %d", line)
	}
	return fmt.Sprintf("op %d", i)
}

// write identifies a store by what a load response can observe of it.
type write struct {
	addr, val uint64
}

// Validate checks the structural rules that make a trace checkable:
//
//   - bounds: at most MaxOps operations;
//   - store distinguishability: for each address, every store value is
//     distinct and none equals InitialValue, so any load response
//     identifies exactly one writer (the property MTraceCheck's own test
//     generator guarantees by construction, here demanded of the input).
//
// Load responses carrying a value no store wrote are NOT structural errors:
// they are findings (an impossible observation under every model) and are
// surfaced by Bind as value faults, so a checker can report them instead of
// refusing the trace.
func (t *Trace) Validate() error {
	_, err := t.storeIndex()
	return err
}

// storeIndex validates the trace and returns what validation has to build
// anyway: each store's index in t.Ops under its (address, value). Bind
// resolves load responses through the same index.
func (t *Trace) storeIndex() (map[write]int32, error) {
	if len(t.Ops) > MaxOps {
		return nil, fmt.Errorf("trace: %d operations exceed the %d limit", len(t.Ops), MaxOps)
	}
	stores := 0
	for i := range t.Ops {
		if t.Ops[i].Kind == Store {
			stores++
		}
	}
	writers := make(map[write]int32, stores)
	for i := range t.Ops {
		op := &t.Ops[i]
		if op.Kind != Store {
			continue
		}
		if op.Value == InitialValue {
			return nil, fmt.Errorf("trace: %s: store of the initial value %d to %#x is indistinguishable from no store", t.position(i), InitialValue, op.Addr)
		}
		key := write{op.Addr, op.Value}
		if prev, dup := writers[key]; dup {
			return nil, fmt.Errorf("trace: %s: duplicate store of %d to %#x (first at %s): load responses would be ambiguous", t.position(i), op.Value, op.Addr, t.position(int(prev)))
		}
		writers[key] = int32(i)
	}
	return writers, nil
}

// ValueFault is one load response carrying a value no store to its address
// ever wrote — impossible under every memory consistency model, and
// therefore a finding in its own right (the trace-mode analogue of the
// instrumentation's inline assertion failures).
type ValueFault struct {
	Op   Op  // the offending load
	OpID int // the bound program operation ID

	pos string // the load's source position (Trace.position)
}

func (f *ValueFault) Error() string {
	return fmt.Sprintf("trace: %s: thread %d load of %#x observed %d, a value never written to that address", f.pos, f.Op.Thread, f.Op.Addr, f.Op.Value)
}

// Binding is a trace mapped onto the checking machinery's representation.
//
// Prog, Addrs, Threads and Source depend only on the trace's shape (see Bind)
// and are shared, read-only, with every other Binding of a trace of that
// shape; RF and ValueFaults are this Binding's own.
type Binding struct {
	// Trace is the source trace.
	Trace *Trace
	// Prog mirrors the trace's per-thread operation sequences as a test
	// program: threads in ascending trace-thread-ID order, each thread's
	// operations in trace order, addresses renumbered to dense shared-word
	// indices, and stores carrying the framework's canonical values
	// (ID+1) rather than the trace's observed ones.
	Prog *prog.Program
	// RF is the reads-from relation as the dense row the checkers take,
	// indexed by program operation ID: the program operation ID of the store
	// whose value a load's response carried, -1 for a read of the initial
	// value, and graph.NoObservation for a load with a value fault (it
	// constrains nothing) and for every operation that is not a load.
	RF []int32
	// Addrs maps shared-word indices back to the trace's byte addresses.
	Addrs []uint64
	// Threads maps program thread indices back to trace thread IDs.
	Threads []int
	// Source maps program operation IDs to indices into Trace.Ops.
	Source []int
	// ValueFaults lists loads whose response value no store wrote — each
	// one a finding (see ValueFault).
	ValueFaults []error
}

// Bind maps the trace onto the checking machinery: a prog.Program plus the
// reads-from relation resolved from observed values. It validates the trace as
// Validate does and returns the same errors.
//
// The construction is the inverse of what MTraceCheck's signature decoder
// produces for simulator runs: there the program is known and the rf
// relation is decoded from the signature; here both are reconstructed from
// the observed trace. Downstream — a graph.Builder over Prog, RF as the
// reads-from row, then any registered checking backend — the two front doors
// are indistinguishable.
//
// Binding has two halves. The trace's shape — everything but the values its
// load responses carried — decides the program, the address, thread and
// source tables and which store a given value names; only the reads-from
// relation depends on the load values. Executions of one test differ in
// nothing else, so the shape of the last trace bound is kept, and a trace of
// the same shape is resolved against it instead of being validated and bound
// again. Reuse is sound because
//
//   - resolve compares every operation with the shape's key as it resolves it,
//     exactly — not a hash — and the key is a private copy, not the caller's
//     Ops, which may change after Bind returns;
//   - every field validation and binding read, load values aside, is in the key,
//     so a matching trace is valid and binds to the same tables;
//   - a trace that fails validation never yields a shape.
func (t *Trace) Bind() (*Binding, error) {
	row := make([]int32, len(t.Ops)) // a pass resolve abandons leaves it to the next
	if s, _ := shapes.Get().(*shape); s != nil {
		if b := s.resolve(t, row); b != nil {
			shapes.Put(s)
			return b, nil
		}
	}
	s, err := buildShape(t) // the kept shape, if any, is dropped
	if err != nil {
		return nil, err
	}
	b := s.resolve(t, row)
	shapes.Put(s)
	return b, nil
}

// shape is what binding derives from (Thread, Kind, Addr) of every operation
// and Value of every store. Nothing in it is written after build returns.
type shape struct {
	key    []shapeOp       // the fields above, copied: what a trace must equal to have this shape
	stores map[write]int32 // the validated store index: (address, value) -> index in Trace.Ops
	idOf   []int32         // index in Trace.Ops -> program operation ID
	shared Binding         // Prog, Addrs, Threads and Source, as every Binding of this shape has them
}

// shapeOp is one operation's part of the key; value is kept for stores only.
type shapeOp struct {
	addr, value uint64
	thread      uint16
	kind        Kind
}

// shapes holds the shapes most recently bound — one, unless Bind runs
// concurrently — the way check's workspace pool holds workspaces: the
// collector may release them, so a trace of a million operations does not pin
// its hundred megabytes of tables, and concurrent callers take distinct
// shapes or none.
var shapes sync.Pool

// buildShape validates t and binds everything that does not depend on its
// load values.
func buildShape(t *Trace) (*shape, error) {
	stores, err := t.storeIndex()
	if err != nil {
		return nil, err
	}
	n := len(t.Ops)

	// Dense renumbering of threads, in ascending trace-ID order, by counting:
	// slots[tid] first counts the thread's operations in next, then holds
	// its program thread index, its first program operation ID and the next
	// one to hand out.
	type slot struct{ next, first, thread int32 }
	maxTID := -1
	for i := range t.Ops {
		maxTID = max(maxTID, int(t.Ops[i].Thread))
	}
	slots := make([]slot, maxTID+1)
	for i := range t.Ops {
		slots[t.Ops[i].Thread].next++
	}
	var threadIDs []int
	for tid := range slots {
		if slots[tid].next > 0 {
			threadIDs = append(threadIDs, tid)
		}
	}

	// The program is assembled directly (thread-major IDs, canonical store
	// values) rather than via prog.Builder, all threads in one slice.
	p := &prog.Program{
		Name:    "external-trace",
		Layout:  prog.DefaultLayout(),
		Threads: make([]prog.Thread, len(threadIDs)),
	}
	ops := make([]prog.Op, n)
	id := int32(0)
	for ti, tid := range threadIDs {
		count := slots[tid].next
		slots[tid] = slot{next: id, first: id, thread: int32(ti)}
		p.Threads[ti].Ops = ops[id : id+count : id+count]
		id += count
	}

	// One pass in trace order copies the key, hands out the IDs and renumbers
	// addresses to words in first-appearance order (which keeps word indices
	// stable under reordering of unrelated threads' lines). The address tables
	// are sized for one address per store: a written address has at least one,
	// and few addresses are only ever read.
	s := &shape{key: make([]shapeOp, n), stores: stores, idOf: make([]int32, n)}
	addrs := make([]uint64, 0, len(stores))
	wordOf := make(map[uint64]int32, len(stores))
	source := make([]int, n) // program op ID -> index into t.Ops
	for i := range t.Ops {
		top := &t.Ops[i]
		sl := &slots[top.Thread]
		id := sl.next
		sl.next++
		source[id], s.idOf[i] = i, id
		s.key[i] = shapeOp{addr: top.Addr, thread: top.Thread, kind: top.Kind}
		op := prog.Op{ID: int(id), Thread: int(sl.thread), Index: int(id - sl.first)}
		switch top.Kind {
		case Load, Store:
			word, ok := wordOf[top.Addr]
			if !ok {
				word = int32(len(addrs))
				wordOf[top.Addr] = word
				addrs = append(addrs, top.Addr)
			}
			op.Word = int(word)
			if top.Kind == Store {
				op.Kind, op.Value = prog.Store, uint32(id)+1
				s.key[i].value = top.Value
			} else {
				op.Kind = prog.Load
			}
		case Fence:
			op.Kind, op.Word = prog.Fence, -1
		default:
			return nil, fmt.Errorf("trace: %s: unknown op kind %d", t.position(i), top.Kind)
		}
		ops[id] = op
	}
	p.NumWords = len(addrs)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("trace: bound program invalid: %w", err)
	}
	s.shared = Binding{Prog: p, Addrs: addrs, Threads: threadIDs, Source: source}
	return s, nil
}

// resolve binds t if it has shape s, resolving its reads-from relation into
// row, one entry per operation: a load's observed value identifies its writer
// by the store-distinguishability rule validation enforced. It compares each
// operation with the key as it reaches it and returns nil at the first
// difference, leaving behind only the entries it wrote into row. Positions and
// the ops quoted in value faults are t's own, never the trace's the shape was
// built from.
func (s *shape) resolve(t *Trace, row []int32) *Binding {
	if len(t.Ops) != len(s.key) {
		return nil
	}
	var faults []error
	for opID, srcIdx := range s.shared.Source {
		row[opID] = graph.NoObservation
		top, k := &t.Ops[srcIdx], &s.key[srcIdx]
		if top.Addr != k.addr || top.Kind != k.kind || top.Thread != k.thread {
			return nil
		}
		switch {
		case top.Kind == Store && top.Value != k.value:
			return nil
		case top.Kind != Load:
			continue
		}
		src := int32(-1)
		if top.Value != InitialValue {
			st, written := s.stores[write{top.Addr, top.Value}]
			if !written {
				faults = append(faults, &ValueFault{Op: *top, OpID: opID, pos: t.position(srcIdx)})
				continue
			}
			src = s.idOf[st]
		}
		row[opID] = src
	}
	b := s.shared
	b.Trace, b.RF, b.ValueFaults = t, row, faults
	return &b
}
