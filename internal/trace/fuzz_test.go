package trace

import (
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
}

// FuzzTraceParse checks four properties on arbitrary input:
//
//  1. Parse never panics and either errors or returns a trace;
//  2. it agrees with the reference parser: same verdict, same Ops and source
//     lines, same rejected line;
//  3. canonical round trip: Format(Parse(x)) re-parses to an Equal trace;
//  4. Validate and Bind never panic on whatever parses.
func FuzzTraceParse(f *testing.F) {
	for _, in := range fuzzSeeds {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkAgainstReference(t, in)
		tr, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
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
		b, err := tr.Bind()
		if err != nil {
			t.Fatalf("validated trace failed to bind: %v", err)
		}
		if err := b.Prog.Validate(); err != nil {
			t.Fatalf("bound program invalid: %v", err)
		}
		if len(b.Source) != len(tr.Ops) {
			t.Fatalf("source map has %d entries, want %d", len(b.Source), len(tr.Ops))
		}
	})
}
