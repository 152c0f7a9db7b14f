package trace

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"mtracecheck/internal/graph"
	"mtracecheck/internal/prog"
)

func parseString(t *testing.T, s string) *Trace {
	t.Helper()
	tr, err := Parse(strings.NewReader(s))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return tr
}

func TestParseBasic(t *testing.T) {
	tr := parseString(t, `
# comment line
0: M[0x10] := 1   # trailing comment
0: M[0x14] == 0
1: sync
3: M[0x20] == 0x5
`)
	want := []Op{
		{Thread: 0, Kind: Store, Addr: 0x10, Value: 1, Line: 3},
		{Thread: 0, Kind: Load, Addr: 0x14, Value: 0, Line: 4},
		{Thread: 1, Kind: Fence, Line: 5},
		{Thread: 3, Kind: Load, Addr: 0x20, Value: 5, Line: 6},
	}
	if len(tr.Ops) != len(want) {
		t.Fatalf("got %d ops, want %d", len(tr.Ops), len(want))
	}
	for i, op := range tr.Ops {
		if op != want[i] {
			t.Errorf("op %d: got %+v, want %+v", i, op, want[i])
		}
	}
	if got := tr.NumThreads(); got != 3 {
		t.Errorf("NumThreads = %d, want 3", got)
	}
}

func TestParseEmpty(t *testing.T) {
	tr := parseString(t, "\n# only comments\n\n")
	if tr.Ops != nil {
		t.Fatalf("got %d ops (%#v), want nil", len(tr.Ops), tr.Ops)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("empty trace should validate: %v", err)
	}
}

var parseErrorCases = []struct {
	name, in, wantSub string
}{
	// Without an explicit separator the ":" of ":=" is taken as the
	// thread delimiter, so the diagnosis lands on the thread ID.
	{"no colon", "0 M[1] := 2", "thread ID"},
	{"bad tid", "x: sync", "thread ID"},
	{"negative tid", "-1: sync", "thread ID"},
	{"huge tid", "99999999: sync", "out of range"},
	{"bad keyword", "0: load 5", `"sync"`},
	{"unterminated addr", "0: M[0x10 := 1", "unterminated"},
	{"bad addr", "0: M[zz] := 1", "bad address"},
	{"bad op", "0: M[1] <- 2", `":="`},
	{"bad value", "0: M[1] := ", "bad value"},
	{"octalish", "0: M[010] := 1", "leading zeros"},
	{"underscore", "0: M[1_0] := 1", "bad address"},
	{"signed value", "0: M[1] := +2", "bad value"},
	// Not in the grammar, and the diagnosis must say that rather than blame
	// leading zeros.
	{"binary", "0: M[0b1] := 1", "binary and octal prefixes not accepted"},
	{"octal", "0: M[1] := 0o7", "binary and octal prefixes not accepted"},
	{"hex prefix only", "0: M[0x] := 1", "malformed number"},
	{"decimal overflow", "0: M[1] := 18446744073709551616", "malformed number"},
	{"hex overflow", "0: M[0x10000000000000000] := 1", "malformed number"},
	{"line over the bound", "0: sync #" + strings.Repeat("x", maxLineBytes), "line longer than 1 MiB"},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("Parse(%q) error %q does not mention %q", tc.in, err, tc.wantSub)
			}
			var pe *ParseError
			if !asParseError(err, &pe) {
				t.Errorf("Parse(%q) error is %T, want *ParseError", tc.in, err)
			} else if pe.Line != 1 {
				t.Errorf("Parse(%q) error line = %d, want 1", tc.in, pe.Line)
			}
		})
	}
}

// TestParseLineTooLong: a line over the bound is a ParseError like any other —
// it names the line and quotes its beginning, not the reader's internals.
func TestParseLineTooLong(t *testing.T) {
	in := "0: sync\n# " + strings.Repeat("long comment ", 2*maxLineBytes/13) + "\n1: sync\n"
	_, err := Parse(strings.NewReader(in))
	var pe *ParseError
	if !asParseError(err, &pe) {
		t.Fatalf("error is %T (%v), want *ParseError", err, err)
	}
	if pe.Line != 2 || pe.Msg != "line longer than 1 MiB" || pe.Text != in[8:8+64] {
		t.Errorf("error = %+v, want line 2, the bound, and the line's first 64 bytes", pe)
	}
}

func asParseError(err error, out **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*out = pe
	}
	return ok
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"store of zero", "0: M[1] := 0", "initial value"},
		{"duplicate store value", "0: M[1] := 7\n1: M[1] := 7", "duplicate store"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := parseString(t, tc.in)
			err := tr.Validate()
			if err == nil {
				t.Fatalf("Validate succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("Validate error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	// Same value to different addresses is fine.
	tr := parseString(t, "0: M[1] := 7\n1: M[2] := 7")
	if err := tr.Validate(); err != nil {
		t.Errorf("distinct-address same-value stores should validate: %v", err)
	}
}

// TestConstructedTracePositions: ops of a trace built through the API carry
// no source line, so errors name them by their index in Trace.Ops (the thread
// IDs here are chosen to differ from every index).
func TestConstructedTracePositions(t *testing.T) {
	dup := &Trace{Ops: []Op{
		{Thread: 7, Kind: Store, Addr: 0x10, Value: 5},
		{Thread: 7, Kind: Load, Addr: 0x10, Value: 5},
		{Thread: 9, Kind: Store, Addr: 0x10, Value: 5},
	}}
	const want = "trace: op 2: duplicate store of 5 to 0x10 (first at op 0)"
	if err := dup.Validate(); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("Validate error = %v, want prefix %q", err, want)
	}
	if _, err := dup.Bind(); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("Bind error = %v, want prefix %q", err, want)
	}

	fault := &Trace{Ops: []Op{
		{Thread: 4, Kind: Store, Addr: 0x10, Value: 1},
		{Thread: 4, Kind: Fence},
		{Thread: 2, Kind: Load, Addr: 0x10, Value: 42},
	}}
	b, err := fault.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.ValueFaults) != 1 || !strings.HasPrefix(b.ValueFaults[0].Error(), "trace: op 2: thread 2 load") {
		t.Errorf("value faults = %v, want one at op 2", b.ValueFaults)
	}

	// A parsed trace keeps naming lines, the first writer's included.
	parsed := parseString(t, "\n0: M[1] := 7\n\n1: M[1] := 7\n")
	if err := parsed.Validate(); err == nil || !strings.Contains(err.Error(), "line 4: duplicate store of 7 to 0x1 (first at line 2)") {
		t.Errorf("Validate error on the parsed trace = %v", err)
	}
}

func TestRoundTripGoldenFiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.trace"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden traces found: %v", err)
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := Parse(strings.NewReader(string(data)))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if len(tr.Ops) == 0 {
				t.Fatal("golden trace has no operations")
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			again, err := Parse(strings.NewReader(tr.String()))
			if err != nil {
				t.Fatalf("re-Parse of canonical form: %v", err)
			}
			if !tr.Equal(again) {
				t.Errorf("round trip changed the trace:\noriginal: %+v\nreparsed: %+v", tr.Ops, again.Ops)
			}
			if _, err := tr.Bind(); err != nil {
				t.Errorf("Bind: %v", err)
			}
		})
	}
}

func TestBindSB(t *testing.T) {
	// Store buffering with sparse thread IDs and hex/decimal mixing: checks
	// thread compaction, address renumbering, and rf resolution.
	tr := parseString(t, `
5: M[0x10] := 3
5: M[0x14] == 0
2: M[0x14] := 9
2: M[16] == 3
`)
	b, err := tr.Bind()
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if got, want := b.Prog.NumThreads(), 2; got != want {
		t.Fatalf("threads = %d, want %d", got, want)
	}
	// Thread IDs compact ascending: trace thread 2 -> program thread 0.
	if b.Threads[0] != 2 || b.Threads[1] != 5 {
		t.Fatalf("thread map = %v, want [2 5]", b.Threads)
	}
	if err := b.Prog.Validate(); err != nil {
		t.Fatalf("bound program invalid: %v", err)
	}
	if b.Prog.NumWords != 2 {
		t.Fatalf("NumWords = %d, want 2", b.Prog.NumWords)
	}
	// Program thread 0 = trace thread 2 = ops {st 0x14:=9, ld 0x10==3}:
	// IDs 0,1. Program thread 1 = trace thread 5 = {st 0x10:=3,
	// ld 0x14==0}: IDs 2,3.
	if op := b.Prog.OpByID(0); op.Kind != prog.Store {
		t.Errorf("op 0 kind = %v, want store", op.Kind)
	}
	// Load 1 (M[16]==3, decimal 16 == 0x10) read thread 5's store (ID 2).
	if got, want := b.RF[1], int32(2); got != want {
		t.Errorf("RF[1] = %d, want %d", got, want)
	}
	// Load 3 (M[0x14]==0) read the initial value.
	if got, want := b.RF[3], int32(-1); got != want {
		t.Errorf("RF[3] = %d, want %d", got, want)
	}
	if len(b.ValueFaults) != 0 {
		t.Errorf("unexpected value faults: %v", b.ValueFaults)
	}
	// Addresses map back.
	if b.AddrOfOp(1) != 0x10 || b.AddrOfOp(0) != 0x14 {
		t.Errorf("AddrOfOp mapping wrong: op1=%#x op0=%#x", b.AddrOfOp(1), b.AddrOfOp(0))
	}
}

func TestBindValueFault(t *testing.T) {
	tr := parseString(t, `
0: M[0x10] := 1
1: M[0x10] == 42
`)
	b, err := tr.Bind()
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if len(b.ValueFaults) != 1 {
		t.Fatalf("got %d value faults, want 1: %v", len(b.ValueFaults), b.ValueFaults)
	}
	if !strings.Contains(b.ValueFaults[0].Error(), "never written") {
		t.Errorf("fault message %q lacks explanation", b.ValueFaults[0])
	}
	// The faulted load must not constrain the graph.
	if b.RF[1] != graph.NoObservation {
		t.Errorf("faulted load has source %d", b.RF[1])
	}
}

func TestBindFence(t *testing.T) {
	tr := parseString(t, `
0: M[0x10] := 1
0: sync
0: M[0x14] == 0
`)
	b, err := tr.Bind()
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if op := b.Prog.OpByID(1); op.Kind != prog.Fence || op.Word != -1 {
		t.Errorf("op 1 = %+v, want fence with word -1", op)
	}
}

func TestBindTooManyOps(t *testing.T) {
	tr := &Trace{Ops: make([]Op, MaxOps+1)}
	for i := range tr.Ops {
		tr.Ops[i] = Op{Thread: 0, Kind: Load, Addr: 0x10}
	}
	if _, err := tr.Bind(); err == nil {
		t.Fatal("Bind accepted an oversized trace")
	}
}

// benchTrace is the benchmarks' 200-op trace in Format's spelling: four
// threads of fifty loads and stores over 64 words.
func benchTrace() *Trace {
	tr := &Trace{}
	for i := 0; i < 200; i++ {
		op := Op{Thread: uint16(i / 50), Kind: Kind(i % 2), Addr: 0x1000 + 4*uint64(i*7%64), Value: uint64(i + 1)}
		tr.Ops = append(tr.Ops, op)
	}
	return tr
}

func BenchmarkParse(b *testing.B) {
	tr := benchTrace()
	text := tr.String()
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := Parse(strings.NewReader(text))
		if err != nil || len(got.Ops) != len(tr.Ops) {
			b.Fatalf("%d ops, %v", len(got.Ops), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Ops)), "ns/traceop")
}

func BenchmarkFormat(b *testing.B) {
	tr := benchTrace()
	b.ReportAllocs()
	b.SetBytes(int64(len(tr.String())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Format(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOpSize pins Op's layout: a parsed trace costs 24 bytes an op.
func TestOpSize(t *testing.T) {
	if size := unsafe.Sizeof(Op{}); size != 24 {
		t.Errorf("Op is %d bytes, want 24", size)
	}
}

// TestOpLineBound: Line holds an int32, so an op further down is refused with
// a ParseError naming its line — the bound Parse meets only past 2 GiB of
// input, exercised on the helper both of its paths call.
func TestOpLineBound(t *testing.T) {
	if line, err := opLine(math.MaxInt32, []byte("0: sync")); line != math.MaxInt32 || err != nil {
		t.Errorf("opLine at the bound = %d, %v; want %d, nil", line, err, math.MaxInt32)
	}
	if math.MaxInt == math.MaxInt32 {
		return // a line number cannot pass the bound
	}
	var past int64 = math.MaxInt32
	past++
	_, err := opLine(int(past), []byte("  3: M[0x10] := 1  # c"))
	want := &ParseError{Line: int(past), Text: "3: M[0x10] := 1", Msg: "operation past line 2147483647"}
	if !reflect.DeepEqual(err, want) {
		t.Errorf("opLine past the bound: %#v, want %#v", err, want)
	}
}

// pooledBuffer returns the first byte of the read buffer the next Parse
// borrows, leaving it where it was.
func pooledBuffer() *byte {
	kept, _ := readBufs.Get().(*[]byte)
	if kept == nil {
		return nil
	}
	defer readBufs.Put(kept)
	return unsafe.SliceData(*kept)
}

// TestParseKeepsNoBuffer: Parse lends its read buffer to the next call, so
// neither a returned Trace nor a ParseError's Text may refer to it: both stay
// as they were when later calls overwrite the buffer with other text.
func TestParseKeepsNoBuffer(t *testing.T) {
	reused := pinShapes(t) // what pins the shape pool pins readBufs too
	tr := parseString(t, "0: M[0x10] := 1\n1: M[0x10] == 1\n0: sync\n2:M[16]==0\n")
	want := clone(tr)
	_, err := Parse(strings.NewReader("0: M[0x10] := 1\n  7: M[0x20] =! 3  # typo\n"))
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error %v, want a *ParseError", err)
	}
	wantText := strings.Clone(pe.Text)
	buf := pooledBuffer()
	for i := range 3 {
		other := strings.Repeat(fmt.Sprintf("%d: M[0x%x] == %d\n", i+3, 0xabc0+i, 99999-i), 4+i)
		if _, err := Parse(strings.NewReader(other)); err != nil {
			t.Fatal(err)
		}
	}
	if reused && pooledBuffer() != buf {
		t.Error("Parse did not reuse the pooled read buffer")
	}
	if !reflect.DeepEqual(tr, want) {
		t.Errorf("a returned trace changed under later Parse calls:\n%+v\nwant %+v", tr.Ops, want.Ops)
	}
	if pe.Text != wantText {
		t.Errorf("a ParseError's Text changed under later Parse calls: %q, want %q", pe.Text, wantText)
	}
}

// TestParseConcurrent: concurrent Parse calls of texts of differing lengths,
// malformed ones included, take distinct buffers (run it under -race).
func TestParseConcurrent(t *testing.T) {
	var texts []string
	for i := range 6 {
		text := strings.Repeat(fmt.Sprintf("%d: M[0x%x] := %d\n%d: M[16] == 0\n", i, 16*(i+1), i+1, i+1), 1+30*i)
		if i%3 == 2 {
			text += "bogus\n"
		}
		texts = append(texts, text)
	}
	type result struct {
		tr  *Trace
		err error
	}
	want := make([]result, len(texts))
	for i, text := range texts {
		want[i].tr, want[i].err = Parse(strings.NewReader(text))
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 60 {
				k := (g + i) % len(texts)
				tr, err := Parse(strings.NewReader(texts[k]))
				if !reflect.DeepEqual(result{tr, err}, want[k]) {
					t.Errorf("goroutine %d: text %d parsed to %v, %v; serially %v, %v", g, k, tr, err, want[k].tr, want[k].err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
