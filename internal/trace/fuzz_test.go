package trace

import (
	"reflect"
	"strings"
	"testing"
)

// fuzzSeeds is FuzzTraceParse's seed corpus, which TestParseMatchesReference
// also replays.
var fuzzSeeds = []string{
	"0: M[0x10] := 1\n0: M[0x14] == 0\n1: M[0x14] := 2\n1: M[0x10] == 0\n",
	"0: sync\n",
	"# comment\n\n3: M[20] == 0x5\n",
	"0: M[0] := 0\n",
	"65535: M[0xffffffffffffffff] == 18446744073709551615\n",
	"0: M[1] := 7\n1: M[1] := 7\n",
	"0: M[0x10] == 42\n",
	"0: M[0b1] := 1\n",
	"0: M[1] == 0o7\n",
	// The edges of Parse's straight scan of Format's spelling.
	"0: M[0xffffffffffffffff] := 1\n0: M[0x0ffffffffffffffff] == 1\n",
	"0: M[0x1ffffffffffffffff] := 1\n",
	"0: M[0x10] := 18446744073709551615\n",
	"0: M[0x10] == 18446744073709551616\n",
	"0: M[0x10] := 00\n",
	"0: M[0x] := 1\n",
	"0: M[0X10] := 1\n0: M[ 0x10 ] == 1\n",
	"0: M[0x10]\t:= 1\n1: M[0x10] == 1\r\n",
	"65536: M[0x10] := 1\n",
	"0: M[0x10] := 1 # c\n",
	"0: M[0x10]]:= 1\n",
	"0: M[0x10) := 1\n",
	"0: M[0x10] :=12\n",
	// The edges of the buffer scan: what it must leave to the line parser.
	"0: M[0x10] := 1\n1: M[0x10] == 1",
	"0: M[0x10] := 1\r\n1: M[0x10] == 1\r\n",
	"0: M[16] := 1\n1: M[0x10] == 1\n0: M[0x14] == 0\n",
	"0: M[0x10] := 1 # c\n1: M[0x10] == 1\n",
	"0: M[0x10] :=\n",
	"",
	"# a\n\n# b\n",
}

// FuzzTraceParse checks four properties on arbitrary input:
//
//  1. Parse never panics and either errors or returns a trace;
//  2. it agrees with the reference parser: same verdict, same Ops and source
//     lines, same rejected line;
//  3. canonical round trip: Format(Parse(x)) writes fmt's spelling of each
//     op and re-parses to an Equal trace;
//  4. Validate and Bind never panic on whatever parses, and Bind returns the
//     same binding whatever shape it kept from the call before: its own (bound
//     twice in a row) or another trace's (bound again after a seed trace).
func FuzzTraceParse(f *testing.F) {
	for _, in := range fuzzSeeds {
		f.Add(in)
	}
	other, err := Parse(strings.NewReader(fuzzSeeds[0]))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkAgainstReference(t, in)
		tr, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		checkFormat(t, tr)
		again, err := Parse(strings.NewReader(tr.String()))
		if err != nil {
			t.Fatalf("canonical form failed to re-parse: %v\ncanonical:\n%s", err, tr.String())
		}
		if !tr.Equal(again) {
			t.Fatalf("round trip changed the trace\nin: %q\nfirst:  %+v\nsecond: %+v", in, tr.Ops, again.Ops)
		}
		if err := tr.Validate(); err != nil {
			return
		}
		dropShapes() // so that what an input covers does not depend on the input before it
		b, err := tr.Bind()
		if err != nil {
			t.Fatalf("validated trace failed to bind: %v", err)
		}
		second := bind(tr)
		if _, err := other.Bind(); err != nil {
			t.Fatal(err)
		}
		if third := bind(tr); !reflect.DeepEqual(second, bound{b: b}) || !reflect.DeepEqual(third, second) {
			t.Fatalf("three bindings of %q differ:\n%+v\n%+v\n%+v", in, b, second.b, third.b)
		}
		if err := b.Prog.Validate(); err != nil {
			t.Fatalf("bound program invalid: %v", err)
		}
		if len(b.Source) != len(tr.Ops) {
			t.Fatalf("source map has %d entries, want %d", len(b.Source), len(tr.Ops))
		}
	})
}
