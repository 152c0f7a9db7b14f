package trace

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The reference parser: the grammar written with the strings package and
// strconv, one string per line. Parse reads the scanner's bytes with its own
// number reader instead; the two must accept and reject the same inputs and
// agree on every Op and on the line a rejection names. (Only the wording of
// number errors differs: the reference calls a 0b/0o prefix "leading zeros".)

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
		op.Line = lineNo
		t.Ops = append(t.Ops, op)
		if len(t.Ops) > MaxOps {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: fmt.Sprintf("more than %d operations", MaxOps)}
		}
	}
	if err := sc.Err(); err != nil {
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
	op := Op{Thread: int(tid)}
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

// checkAgainstReference runs both parsers on in and fails on any difference
// in the verdict, the Ops (source lines included) or a rejection's position.
func checkAgainstReference(t *testing.T, in string) {
	t.Helper()
	got, gotErr := Parse(strings.NewReader(in))
	want, wantErr := refParse(in)
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
		return
	}
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("Parse(%q): %d ops, reference %d", in, len(got.Ops), len(want.Ops))
	}
	for i := range got.Ops {
		if got.Ops[i] != want.Ops[i] {
			t.Fatalf("Parse(%q): op %d = %+v, reference %+v", in, i, got.Ops[i], want.Ops[i])
		}
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
}
