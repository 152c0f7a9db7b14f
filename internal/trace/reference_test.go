package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// The reference parser: the grammar written with bufio.Scanner, the strings
// package and strconv, one string per line. Parse splits lines itself and reads
// each with a cursor and its own number reader instead; the two must accept and
// reject the same inputs and agree on every Op and on a rejection's line, text
// and message. (Only the wording of one number error differs: the reference
// calls any other byte after a leading 0 "leading zeros".)

func refParse(in string) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(strings.NewReader(in))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		op, err := refParseLine(line)
		if err != nil {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: err.Error()}
		}
		op.Line = int32(lineNo)
		t.Ops = append(t.Ops, op)
		if len(t.Ops) > MaxOps {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: fmt.Sprintf("more than %d operations", MaxOps)}
		}
	}
	if err := sc.Err(); err == bufio.ErrTooLong {
		// The line after the last one scanned is the one that did not fit.
		long := strings.SplitN(in, "\n", lineNo+2)[lineNo]
		return nil, &ParseError{Line: lineNo + 1, Text: long[:64], Msg: "line longer than 1 MiB"}
	} else if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return t, nil
}

func refParseLine(line string) (Op, error) {
	head, rest, ok := strings.Cut(line, ":")
	if !ok {
		return Op{}, fmt.Errorf("missing thread prefix %q", "<tid>:")
	}
	tid, err := refParseNum(strings.TrimSpace(head))
	if err != nil {
		return Op{}, fmt.Errorf("bad thread ID: %v", err)
	}
	if tid >= MaxThreadID {
		return Op{}, fmt.Errorf("thread ID %d out of range [0, %d)", tid, MaxThreadID)
	}
	op := Op{Thread: uint16(tid)}
	rest = strings.TrimSpace(rest)

	if rest == "sync" {
		op.Kind = Fence
		return op, nil
	}
	if !strings.HasPrefix(rest, "M[") {
		return Op{}, fmt.Errorf("expected %q, %q, or %q after thread ID", "M[<addr>] := <val>", "M[<addr>] == <val>", "sync")
	}
	addrTxt, rest, ok := strings.Cut(rest[len("M["):], "]")
	if !ok {
		return Op{}, fmt.Errorf("unterminated address: missing %q", "]")
	}
	if op.Addr, err = refParseNum(strings.TrimSpace(addrTxt)); err != nil {
		return Op{}, fmt.Errorf("bad address: %v", err)
	}
	rest = strings.TrimSpace(rest)
	var valTxt string
	switch {
	case strings.HasPrefix(rest, ":="):
		op.Kind, valTxt = Store, rest[len(":="):]
	case strings.HasPrefix(rest, "=="):
		op.Kind, valTxt = Load, rest[len("=="):]
	default:
		return Op{}, fmt.Errorf("expected %q (store) or %q (load response) after address", ":=", "==")
	}
	if op.Value, err = refParseNum(strings.TrimSpace(valTxt)); err != nil {
		return Op{}, fmt.Errorf("bad value: %v", err)
	}
	return op, nil
}

func refParseNum(s string) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty number")
	}
	if strings.ContainsAny(s, "_+- ") {
		return 0, fmt.Errorf("malformed number %q", s)
	}
	if len(s) > 1 && s[0] == '0' && s[1] != 'x' && s[1] != 'X' {
		return 0, fmt.Errorf("leading zeros not allowed in %q", s)
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed number %q", s)
	}
	return v, nil
}

// chunkReader reads at most n bytes at a time.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

// checkAgainstReference runs both parsers on in and fails on any difference
// in the verdict, the Ops (source lines included) or a rejection's position.
func checkAgainstReference(t *testing.T, in string) {
	t.Helper()
	got, gotErr := Parse(strings.NewReader(in))
	want, wantErr := refParse(in)
	// However the bytes arrive — all at once with their length known, one at a
	// time, 29 at a time so that lines arrive cut at varying places, the last
	// ones together with io.EOF — the result is the same.
	for name, r := range map[string]io.Reader{
		"no Len":        struct{ io.Reader }{strings.NewReader(in)},
		"OneByteReader": iotest.OneByteReader(strings.NewReader(in)),
		"29-byte reads": chunkReader{strings.NewReader(in), 29},
		"DataErrReader": iotest.DataErrReader(bytes.NewReader([]byte(in))),
	} {
		if len(in) > 4096 && (name == "OneByteReader" || name == "29-byte reads") {
			continue
		}
		again, againErr := Parse(r)
		if !reflect.DeepEqual(again, got) || !reflect.DeepEqual(againErr, gotErr) {
			t.Fatalf("Parse(%q) through %s: %+v, %v; from a strings.Reader %+v, %v", in, name, again, againErr, got, gotErr)
		}
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Parse(%q): error %v, reference error %v", in, gotErr, wantErr)
	}
	if gotErr != nil {
		gotPE, gotIs := gotErr.(*ParseError)
		wantPE, wantIs := wantErr.(*ParseError)
		if gotIs != wantIs {
			t.Fatalf("Parse(%q): error %v, reference error %v", in, gotErr, wantErr)
		}
		if gotIs && (gotPE.Line != wantPE.Line || gotPE.Text != wantPE.Text) {
			t.Fatalf("Parse(%q): rejected line %d %q, reference line %d %q", in, gotPE.Line, gotPE.Text, wantPE.Line, wantPE.Text)
		}
		if gotIs && gotPE.Msg != wantPE.Msg && !strings.Contains(wantPE.Msg, "leading zeros") {
			t.Fatalf("Parse(%q): rejected with %q, reference %q", in, gotPE.Msg, wantPE.Msg)
		}
		return
	}
	if len(got.Ops) != len(want.Ops) || (got.Ops == nil) != (want.Ops == nil) {
		t.Fatalf("Parse(%q): %d ops (nil %t), reference %d (nil %t)", in, len(got.Ops), got.Ops == nil, len(want.Ops), want.Ops == nil)
	}
	for i := range got.Ops {
		if got.Ops[i] != want.Ops[i] {
			t.Fatalf("Parse(%q): op %d = %+v, reference %+v", in, i, got.Ops[i], want.Ops[i])
		}
	}
}

// refFormat is Format as fmt spells it: each op's String and a newline.
func refFormat(t *Trace) string {
	var b strings.Builder
	for _, op := range t.Ops {
		if op.Kind == Fence {
			fmt.Fprintf(&b, "%d: sync\n", op.Thread)
		} else {
			fmt.Fprintf(&b, "%d: M[%#x] %s %d\n", op.Thread, op.Addr, op.Kind, op.Value)
		}
	}
	return b.String()
}

// checkFormat fails t unless Format writes exactly refFormat's bytes.
func checkFormat(t *testing.T, tr *Trace) {
	t.Helper()
	if got, want := tr.String(), refFormat(tr); got != want {
		t.Fatalf("Format wrote\n%s\nreference\n%s", got, want)
	}
}

// TestFormatMatchesReference: the appending Format writes fmt's bytes, on the
// golden traces, on ops at every field's extremes and on a trace long enough
// to fill the writer's buffer many times over.
func TestFormatMatchesReference(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.trace"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden traces found: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Parse(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		checkFormat(t, tr)
	}
	edges := &Trace{}
	for _, thread := range []uint16{0, 9, 10, 65535} {
		for _, v := range []uint64{0, 1, 9, 10, 0xf, 0x10, math.MaxUint32, math.MaxUint64} {
			edges.Ops = append(edges.Ops,
				Op{Thread: thread, Kind: Store, Addr: v, Value: v},
				Op{Thread: thread, Kind: Load, Addr: math.MaxUint64 - v, Value: v, Line: 3},
				Op{Thread: thread, Kind: Fence, Addr: v, Value: v})
		}
	}
	checkFormat(t, edges)
	long := &Trace{}
	for range 50 {
		long.Ops = append(long.Ops, edges.Ops...)
	}
	checkFormat(t, long)
	if err := Format(io.Discard, &Trace{Ops: []Op{{Kind: Kind(7)}}}); err == nil {
		t.Error("Format wrote an op of an unknown kind")
	}
}

// numberSpellings are number tokens at and around every rule of the grammar;
// the differential test puts each in all three number positions.
var numberSpellings = []string{
	"0", "7", "10", "007", "010", "00", "0x0", "0x", "0X", "0x1F", "0XaB", "0xg", "0x_1", "1_0",
	"0b1", "0B1", "0o7", "0O7", "0z", "+1", "-1", "1 0", "1\t0", "١", "",
	"18446744073709551615", "18446744073709551616", "99999999999999999999",
	"0xffffffffffffffff", "0x10000000000000000", "0x00000000000000001", "65535", "65536",
}

func TestParseMatchesReference(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.trace"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden traces found: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, string(data))
		// The same file cut short mid-line, and with Windows line ends.
		checkAgainstReference(t, string(data[:len(data)*2/3]))
		checkAgainstReference(t, strings.ReplaceAll(string(data), "\n", "\r\n"))
	}
	for _, in := range fuzzSeeds {
		checkAgainstReference(t, in)
	}
	for _, tc := range parseErrorCases {
		checkAgainstReference(t, tc.in)
	}
	for _, num := range numberSpellings {
		checkAgainstReference(t, num+": sync")
		checkAgainstReference(t, "0: M["+num+"] := 1")
		checkAgainstReference(t, "0: M[ "+num+" ] == "+num+"  # c")
		checkAgainstReference(t, "1: M[8] := "+num+" ")
	}
	for _, in := range []string{
		"0: sync\n\n# c\n1: M[1] := 2\nbogus\n2: sync\n", // the rejection is on line 5
		"0:sync", "0 : sync", "0: sync extra", "0: syn", "0: M", "0: M[", "0: M[1]", "0: M[1] :", "0: M[1]:=2",
		"0: M[1] ==2", "0: M[1]] := 2", "0: M[1] := 2 3", "0: M[1] =: 2", ":", ": sync", "0:: sync",
		" 0: sync ", "0: M[1] := 2 # c # d", "#", "   ", "0: M[1] := 2\r", "\r\n",
		"0: M[1] := 2\n" + strings.Repeat("x", 70000) + "\n",
	} {
		checkAgainstReference(t, in)
	}
	// Around the line bound: a line and its newline must fit 1 MiB, whether the
	// line is an operation, a comment or the unterminated last one.
	for _, n := range []int{maxLineBytes - 1, maxLineBytes, 2 * maxLineBytes} {
		for _, end := range []string{"", "\n", "\r\n", "\n0: sync\n"} {
			checkAgainstReference(t, "0: sync\n\n#"+strings.Repeat("x", n-1)+end)
			checkAgainstReference(t, "1: M[8] == 2"+strings.Repeat(" ", n-12)+end)
		}
	}
}

// TestParseReadError: a reader's error is reported as such, after the lines
// read before it were parsed.
func TestParseReadError(t *testing.T) {
	broken := errors.New("broken pipe")
	_, err := Parse(io.MultiReader(strings.NewReader("0: sync\n1: sy"), iotest.ErrReader(broken)))
	if pe, ok := err.(*ParseError); !ok || pe.Line != 2 || pe.Text != "1: sy" {
		t.Errorf("error = %v, want the ParseError of the line the read error cut short", err)
	}
	_, err = Parse(io.MultiReader(strings.NewReader("0: sync\n1: sync"), iotest.ErrReader(broken)))
	if !errors.Is(err, broken) || !strings.HasPrefix(err.Error(), "trace: read: ") {
		t.Errorf("error = %v, want the read error wrapped", err)
	}
}

// TestParseMaxOps: the operation bound holds where it did — MaxOps operations
// parse, and the line of one more is the error.
func TestParseMaxOps(t *testing.T) {
	if testing.Short() {
		t.Skip("parses 7 MiB twice and 17 MiB once")
	}
	in := strings.Repeat("0:sync\n", MaxOps+1)
	_, err := Parse(strings.NewReader(in))
	_, wantErr := refParse(in)
	if !reflect.DeepEqual(err, wantErr) || err == nil || err.(*ParseError).Line != MaxOps+1 {
		t.Errorf("one operation too many: %v, reference %v", err, wantErr)
	}
	if tr, err := Parse(strings.NewReader(in[len("0:sync\n"):])); err != nil || len(tr.Ops) != MaxOps {
		t.Errorf("MaxOps operations: %v", err)
	}
	// Read without its length, the input outgrows the first read, and Ops
	// grows by appending past MaxOps: the straight scan of Format's spelling
	// stops at the bound too. A 17-byte line keeps the one past the bound from
	// starting a 4 KiB read, where the line parser would take it.
	in = strings.Repeat("0: M[0x10] == 12\n", MaxOps+1)
	_, err = Parse(struct{ io.Reader }{strings.NewReader(in)})
	if pe, ok := err.(*ParseError); !ok || pe.Line != MaxOps+1 || !strings.Contains(pe.Msg, "more than") {
		t.Errorf("one canonical operation too many, read without its length: %v", err)
	}
}
