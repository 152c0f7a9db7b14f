package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
)

// The text format, one operation per line, in the style of Axe traces:
//
//	<tid>: M[<addr>] := <val>     store request
//	<tid>: M[<addr>] == <val>     load response
//	<tid>: sync                   full memory barrier
//
// `#` starts a comment running to end of line; blank lines are ignored.
// Numbers are unsigned decimal or 0x-prefixed hexadecimal (no octal or binary
// prefix, no leading zeros, no sign, no digit separators). File order is
// per-thread program order; interleaving across threads carries no meaning.

// ParseError reports a malformed trace line with its position.
type ParseError struct {
	Line int    // 1-based line number
	Text string // the offending line, comment stripped and trimmed
	Msg  string // what was wrong
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("trace: line %d: %s: %q", e.Line, e.Msg, e.Text)
}

// Parse reads a trace in the text format. It stops at the first malformed
// line, returning a *ParseError. A trace with no operations is valid (and
// trivially consistent).
//
// Lines are parsed as the scanner's bytes; only a malformed line is ever
// turned into a string, for its ParseError.
func Parse(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		op, err := parseLine(line)
		if err != nil {
			return nil, &ParseError{Line: lineNo, Text: string(line), Msg: err.Error()}
		}
		op.Line = lineNo
		t.Ops = append(t.Ops, op)
		if len(t.Ops) > MaxOps {
			return nil, &ParseError{Line: lineNo, Text: string(line), Msg: fmt.Sprintf("more than %d operations", MaxOps)}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return t, nil
}

// maxLineBytes bounds one line of a trace file.
const maxLineBytes = 1024 * 1024

// parseLine parses one non-empty, comment-stripped, trimmed line.
func parseLine(line []byte) (Op, error) {
	colon := bytes.IndexByte(line, ':')
	if colon < 0 {
		return Op{}, fmt.Errorf("missing thread prefix %q", "<tid>:")
	}
	tid, err := parseNum(bytes.TrimSpace(line[:colon]))
	if err != nil {
		return Op{}, fmt.Errorf("bad thread ID: %v", err)
	}
	if tid >= MaxThreadID {
		return Op{}, fmt.Errorf("thread ID %d out of range [0, %d)", tid, MaxThreadID)
	}
	op := Op{Thread: int(tid)}
	rest := bytes.TrimSpace(line[colon+1:])

	if string(rest) == "sync" {
		op.Kind = Fence
		return op, nil
	}
	if !bytes.HasPrefix(rest, []byte("M[")) {
		return Op{}, fmt.Errorf("expected %q, %q, or %q after thread ID", "M[<addr>] := <val>", "M[<addr>] == <val>", "sync")
	}
	rest = rest[2:]
	closing := bytes.IndexByte(rest, ']')
	if closing < 0 {
		return Op{}, fmt.Errorf("unterminated address: missing %q", "]")
	}
	if op.Addr, err = parseNum(bytes.TrimSpace(rest[:closing])); err != nil {
		return Op{}, fmt.Errorf("bad address: %v", err)
	}
	rest = bytes.TrimSpace(rest[closing+1:])
	switch {
	case bytes.HasPrefix(rest, []byte(":=")):
		op.Kind = Store
	case bytes.HasPrefix(rest, []byte("==")):
		op.Kind = Load
	default:
		return Op{}, fmt.Errorf("expected %q (store) or %q (load response) after address", ":=", "==")
	}
	if op.Value, err = parseNum(bytes.TrimSpace(rest[2:])); err != nil {
		return Op{}, fmt.Errorf("bad value: %v", err)
	}
	return op, nil
}

// parseNum reads an unsigned decimal or 0x-prefixed hexadecimal number that
// fits 64 bits. Nothing else is a number: no sign, no digit separator, no
// other base prefix and no leading zeros, which keeps the accepted grammar
// exactly what Format emits plus plain decimal.
func parseNum(s []byte) (uint64, error) {
	if len(s) >= 2 && s[0] == '0' {
		if s[1] != 'x' && s[1] != 'X' || len(s) == 2 {
			return 0, numError(s)
		}
		var v uint64
		for _, c := range s[2:] {
			var d byte
			switch {
			case '0' <= c && c <= '9':
				d = c - '0'
			case 'a' <= c && c <= 'f':
				d = c - 'a' + 10
			case 'A' <= c && c <= 'F':
				d = c - 'A' + 10
			default:
				return 0, numError(s)
			}
			if v>>60 != 0 {
				return 0, numError(s)
			}
			v = v<<4 | uint64(d)
		}
		return v, nil
	}
	if len(s) == 0 {
		return 0, numError(s)
	}
	var v uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, numError(s)
		}
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, numError(s)
		}
		v = v*10 + d
	}
	return v, nil
}

// numError says why parseNum refused s.
func numError(s []byte) error {
	switch {
	case len(s) == 0:
		return fmt.Errorf("empty number")
	case bytes.ContainsAny(s, "_+- "):
		return fmt.Errorf("malformed number %q", s)
	case len(s) > 1 && s[0] == '0' && '0' <= s[1] && s[1] <= '9':
		return fmt.Errorf("leading zeros not allowed in %q", s)
	case len(s) > 1 && s[0] == '0' && strings.IndexByte("bBoO", s[1]) >= 0:
		return fmt.Errorf("binary and octal prefixes not accepted in %q: numbers are decimal or 0x hexadecimal", s)
	}
	return fmt.Errorf("malformed number %q", s)
}

// Format writes the trace in canonical text form: one op per line,
// addresses hexadecimal, values decimal. Parse(Format(t)) yields a trace
// Equal to t.
func Format(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for _, op := range t.Ops {
		if op.Kind != Store && op.Kind != Load && op.Kind != Fence {
			return fmt.Errorf("trace: cannot format op of kind %d", op.Kind)
		}
		if _, err := fmt.Fprintln(bw, op); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// String renders the trace in canonical text form.
func (t *Trace) String() string {
	var b strings.Builder
	_ = Format(&b, t)
	return b.String()
}
