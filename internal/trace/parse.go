package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
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
	Text string // the offending line, comment stripped and trimmed; of a line over the length bound, its first 64 bytes
	Msg  string // what was wrong
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("trace: line %d: %s: %q", e.Line, e.Msg, e.Text)
}

// maxLineBytes bounds one line of a trace file: a line's bytes and its
// newline have to fit a buffer of this size.
const maxLineBytes = 1024 * 1024

// minOpBytes is the shortest line that holds an operation ("0:sync" and its
// newline).
const minOpBytes = 7

// Parse reads a trace in the text format. It stops at the first malformed
// line, returning a *ParseError. A trace with no operations is valid (and
// trivially consistent).
//
// Each line is read once, left to right, where the line reader buffered it: a
// line spelled as Format writes it is scanned straight into the next slot of
// Ops, and every other line is split off and parsed on its own. Only a
// malformed line is ever sliced again or turned into a string, for its
// ParseError. Ops is sized from what the first read buffered — for a reader
// that reports its length (bytes.Reader, strings.Reader, bytes.Buffer) that is
// the whole input — and grows by appending past that. The read buffer is
// borrowed from the last Parse to return, and nothing Parse returns refers to
// it.
func Parse(r io.Reader) (*Trace, error) {
	lr := newLineReader(r)
	defer lr.release()
	lr.fill()
	ops := make([]Op, 0, lr.opsBuffered())
	for lineNo := 1; ; lineNo++ {
		if n := len(ops); n < cap(ops) && n < MaxOps {
			if size := scanOp(lr.buf[lr.start:lr.end], &ops[:n+1][n]); size > 0 {
				ops = ops[:n+1]
				var err error
				if ops[n].Line, err = opLine(lineNo, lr.buf[lr.start:lr.start+size-1]); err != nil {
					return nil, err
				}
				lr.start += size
				continue
			}
		}
		line, err := lr.next()
		switch {
		case err == errLineTooLong:
			return nil, &ParseError{Line: lineNo, Text: string(line), Msg: "line longer than 1 MiB"}
		case err == io.EOF:
			if len(ops) == 0 {
				ops = nil
			}
			return &Trace{Ops: ops}, nil
		case err != nil:
			return nil, fmt.Errorf("trace: read: %w", err)
		}
		op, blank, err := parseLine(line)
		switch {
		case err != nil:
			return nil, &ParseError{Line: lineNo, Text: string(lineText(line)), Msg: err.Error()}
		case blank:
			continue
		case len(ops) == MaxOps:
			return nil, &ParseError{Line: lineNo, Text: string(lineText(line)), Msg: fmt.Sprintf("more than %d operations", MaxOps)}
		}
		if op.Line, err = opLine(lineNo, line); err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
}

// opLine returns lineNo as the Line of the op read from line, or the
// ParseError refusing an op further down than Line counts.
func opLine(lineNo int, line []byte) (int32, error) {
	if lineNo <= math.MaxInt32 {
		return int32(lineNo), nil
	}
	return 0, &ParseError{Line: lineNo, Text: string(lineText(line)), Msg: msgPastLine}
}

var msgPastLine = fmt.Sprintf("operation past line %d", math.MaxInt32)

// lineReader splits its input at newlines in a buffer that holds a whole line:
// at least the input's length when the reader reports one (4 KiB otherwise),
// doubled, up to maxLineBytes, only when a line fills it.
type lineReader struct {
	r          io.Reader
	kept       *[]byte // what release returns to readBufs: buf, at its full length
	buf        []byte
	start, end int   // buf[start:end] is read and not yet handed out
	err        error // what ended the input: io.EOF or a read error
}

var errLineTooLong = errors.New("line too long")

// readBufs holds the read buffers of returned Parse calls — one, unless Parse
// runs concurrently — where the collector can release them, as shapes holds
// shapes. A buffer is kept behind the *[]byte it came in, so putting it back
// allocates nothing.
var readBufs sync.Pool

func newLineReader(r io.Reader) lineReader {
	size := 4096
	if sized, ok := r.(interface{ Len() int }); ok {
		// One byte more than the input, so that the read that reports its end
		// has somewhere to go.
		size = min(max(sized.Len(), 0)+1, maxLineBytes)
	}
	kept, _ := readBufs.Get().(*[]byte)
	if kept == nil {
		kept = new([]byte)
	}
	if len(*kept) < size {
		*kept = make([]byte, size)
	}
	return lineReader{r: r, kept: kept, buf: *kept}
}

// release hands the buffer back for the next Parse; the reader is done.
func (l *lineReader) release() {
	*l.kept = l.buf
	readBufs.Put(l.kept)
}

// next returns the following line without its newline, valid until the next
// call. After the last line it returns the error that ended the input (a line
// cut short by a read error is still handed out first). A line that fills
// maxLineBytes without a newline yields its first 64 bytes and errLineTooLong.
func (l *lineReader) next() ([]byte, error) {
	searched := 0 // bytes from start known to hold no newline
	for {
		if i := bytes.IndexByte(l.buf[l.start+searched:l.end], '\n'); i >= 0 {
			line := l.buf[l.start : l.start+searched+i]
			l.start += searched + i + 1
			return line, nil
		}
		searched = l.end - l.start
		if searched >= maxLineBytes {
			return l.buf[l.start : l.start+64], errLineTooLong
		}
		if l.err != nil {
			line := l.buf[l.start:l.end]
			l.start = l.end
			if len(line) == 0 {
				return nil, l.err
			}
			return line, nil
		}
		l.fill()
	}
}

// fill makes room — moving the unread bytes to the front and, when they fill
// the buffer, doubling it — and reads once more.
func (l *lineReader) fill() {
	if l.start > 0 {
		l.end = copy(l.buf, l.buf[l.start:l.end])
		l.start = 0
	}
	if l.end == len(l.buf) {
		grown := make([]byte, min(2*len(l.buf), maxLineBytes))
		copy(grown, l.buf)
		l.buf = grown
	}
	for empty := 0; ; empty++ {
		n, err := l.r.Read(l.buf[l.end:])
		l.end += n
		if err != nil {
			l.err = err
			return
		}
		if n > 0 {
			return
		}
		if empty == 100 {
			l.err = io.ErrNoProgress
			return
		}
	}
}

// opsBuffered bounds the operations in what is buffered: one per line, and no
// more than minOpBytes allow.
func (l *lineReader) opsBuffered() int {
	rest := l.buf[l.start:l.end]
	lines := 1 + bytes.Count(rest, []byte{'\n'}) // and an unterminated last one
	return min(lines, len(rest)/minOpBytes+1, MaxOps)
}

// scanOp reads a load or store spelled exactly as Format writes it —
// "<tid>: M[0x<hex>] := <dec>" or "... == <dec>", single spaces, nothing
// before or after — and its newline from the start of s into op, in one pass
// with no white-space or comment handling. It returns the bytes it read, or 0
// for anything else — a line of another spelling, or one not buffered up to
// its newline — which the line reader and parseLine then take. It accepts only
// what parseLine accepts, as the same Op: numbers follow the same rules (no
// leading zeros, thread IDs below MaxThreadID), and a number that could
// overflow 64 bits — past 16 hexadecimal or 19 decimal digits — is left to
// parseLine too.
func scanOp(s []byte, op *Op) int {
	tid, i := scanDec(s, 0, 5)
	if i < 0 || tid >= MaxThreadID || len(s) < i+6 || string(s[i:i+6]) != ": M[0x" {
		return 0
	}
	i += 6
	first := i
	var addr uint64
	for ; i < len(s); i++ {
		d := hexValue[s[i]]
		if d == 0 {
			break
		}
		addr = addr<<4 | uint64(d-1)
	}
	if i == first || i > first+16 || len(s) < i+5 || s[i] != ']' || s[i+1] != ' ' || s[i+4] != ' ' {
		return 0
	}
	var kind Kind
	switch string(s[i+2 : i+4]) {
	case ":=":
		kind = Store
	case "==":
		kind = Load
	default:
		return 0
	}
	value, i := scanDec(s, i+5, 19)
	if i < 0 || i == len(s) || s[i] != '\n' {
		return 0
	}
	*op = Op{Thread: uint16(tid), Kind: kind, Addr: addr, Value: value}
	return i + 1
}

// scanDec reads a decimal number of at most maxDigits digits at i, without
// leading zeros, and returns the index after it, or -1 when there is none.
func scanDec(s []byte, i, maxDigits int) (v uint64, next int) {
	first := i
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		v = v*10 + uint64(s[i]-'0')
	}
	if i == first || i > first+maxDigits || s[first] == '0' && i > first+1 {
		return 0, -1
	}
	return v, i
}

// The line parser is a cursor: an index into the line that only moves right.

// skipSpace moves i past white space as bytes.TrimSpace defines it — Unicode's,
// so U+0085 and U+00A0 count. It is the inlined test for the usual case, a
// token starting at i; skipAnySpace does the skipping.
func skipSpace(s []byte, i int) int {
	if i < len(s) && s[i]-'!' >= utf8.RuneSelf-'!' { // blank, control or non-ASCII
		return skipAnySpace(s, i)
	}
	return i
}

func skipAnySpace(s []byte, i int) int {
	for i < len(s) {
		switch b := s[i]; {
		case b == ' ' || '\t' <= b && b <= '\r':
			i++
		case b < utf8.RuneSelf:
			return i
		default:
			r, width := utf8.DecodeRune(s[i:])
			if !unicode.IsSpace(r) {
				return i
			}
			i += width
		}
	}
	return i
}

// atEnd reports whether nothing but a comment is left at i.
func atEnd(s []byte, i int) bool { return i == len(s) || s[i] == '#' }

// has2 reports whether the two bytes at i are a and b.
func has2(s []byte, i int, a, b byte) bool { return i+1 < len(s) && s[i] == a && s[i+1] == b }

// readNum reads the digits of one number at i — decimal without leading zeros,
// or 0x and hexadecimal digits, up to 64 bits — and returns the index after
// them. What follows there decides whether the token ended; the callers check.
func readNum(s []byte, i int) (v uint64, next int, ok bool) {
	first := i
	if i+1 < len(s) && s[i] == '0' && s[i+1]|0x20 == 'x' {
		for i += 2; i < len(s); i++ {
			d := hexValue[s[i]]
			if d == 0 {
				break
			}
			if v>>60 != 0 {
				return 0, i, false
			}
			v = v<<4 | uint64(d-1)
		}
		return v, i, i > first+2
	}
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		d := uint64(s[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, i, false
		}
		v = v*10 + d
	}
	return v, i, i > first && (s[first] != '0' || i == first+1) // no leading zeros
}

// hexValue maps a hexadecimal digit to its value plus one and anything else to 0.
var hexValue = func() (tab [256]byte) {
	for i, c := range []byte("0123456789abcdef") {
		tab[c] = byte(i) + 1
	}
	for i, c := range []byte("ABCDEF") {
		tab[c] = byte(i) + 11
	}
	return tab
}()

var (
	errAfterThread = fmt.Errorf("expected %q, %q, or %q after thread ID", "M[<addr>] := <val>", "M[<addr>] == <val>", "sync")
	errAfterAddr   = fmt.Errorf("expected %q (store) or %q (load response) after address", ":=", "==")
)

// lineText is what a ParseError quotes of a line: comment stripped, trimmed.
func lineText(line []byte) []byte {
	if i := bytes.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return bytes.TrimSpace(line)
}

// parseLine parses one line, comment and surrounding space included; blank
// reports a line holding neither an operation nor an error. The grammar's
// delimiters are the first ':' of the line, then "M[", the first ']' after it,
// and the operator; a field is what lies between two of them, trimmed. The
// cursor accepts exactly the lines whose fields are well formed, and looks a
// delimiter up only to say which field of a rejected line was not.
func parseLine(s []byte) (op Op, blank bool, err error) {
	i := skipSpace(s, 0)
	if atEnd(s, i) {
		return Op{}, true, nil
	}

	tid, i, ok := readNum(s, i)
	if i = skipSpace(s, i); !ok || i == len(s) || s[i] != ':' {
		text := lineText(s)
		colon := bytes.IndexByte(text, ':')
		if colon < 0 {
			return Op{}, false, fmt.Errorf("missing thread prefix %q", "<tid>:")
		}
		return Op{}, false, fmt.Errorf("bad thread ID: %v", numError(bytes.TrimSpace(text[:colon])))
	}
	if tid >= MaxThreadID {
		return Op{}, false, fmt.Errorf("thread ID %d out of range [0, %d)", tid, MaxThreadID)
	}
	op.Thread = uint16(tid)
	i = skipSpace(s, i+1)

	if i+4 <= len(s) && string(s[i:i+4]) == "sync" {
		if !atEnd(s, skipSpace(s, i+4)) {
			return Op{}, false, errAfterThread
		}
		op.Kind = Fence
		return op, false, nil
	}
	if !has2(s, i, 'M', '[') {
		return Op{}, false, errAfterThread
	}
	field := i + 2
	op.Addr, i, ok = readNum(s, skipSpace(s, field))
	if i = skipSpace(s, i); !ok || i == len(s) || s[i] != ']' {
		rest := lineText(s[field:])
		closing := bytes.IndexByte(rest, ']')
		if closing < 0 {
			return Op{}, false, fmt.Errorf("unterminated address: missing %q", "]")
		}
		return Op{}, false, fmt.Errorf("bad address: %v", numError(bytes.TrimSpace(rest[:closing])))
	}
	i = skipSpace(s, i+1)

	switch {
	case has2(s, i, ':', '='):
		op.Kind = Store
	case has2(s, i, '=', '='):
		op.Kind = Load
	default:
		return Op{}, false, errAfterAddr
	}
	field = i + 2
	op.Value, i, ok = readNum(s, skipSpace(s, field))
	if !ok || !atEnd(s, skipSpace(s, i)) {
		return Op{}, false, fmt.Errorf("bad value: %v", numError(lineText(s[field:])))
	}
	return op, false, nil
}

// numError says why s, a trimmed field, is not a number: an unsigned decimal
// or 0x-prefixed hexadecimal that fits 64 bits. Nothing else is one — no sign,
// no digit separator, no other base prefix and no leading zeros — which keeps
// the accepted grammar exactly what Format emits plus plain decimal.
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
// Equal to t. Each line is appended straight into the writer's buffer.
func Format(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for _, op := range t.Ops {
		if op.Kind != Store && op.Kind != Load && op.Kind != Fence {
			return fmt.Errorf("trace: cannot format op of kind %d", op.Kind)
		}
		if bw.Available() < maxFormatLine {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		if _, err := bw.Write(append(op.appendText(bw.AvailableBuffer()), '\n')); err != nil {
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
