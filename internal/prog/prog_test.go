package prog

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpKindString(t *testing.T) {
	cases := []struct {
		k    OpKind
		want string
	}{
		{Load, "ld"},
		{Store, "st"},
		{Fence, "fence"},
		{OpKind(9), "OpKind(9)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("OpKind(%d).String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestBuilderAssignsIDsThreadMajor(t *testing.T) {
	p := NewBuilder("t", 4, DefaultLayout()).
		Thread().Store(0).Load(1).
		Thread().Load(0).Store(1).Fence().Load(2).
		MustBuild()

	if got := p.NumOps(); got != 6 {
		t.Fatalf("NumOps = %d, want 6", got)
	}
	wantIDs := []int{0, 1, 2, 3, 4, 5}
	for i, op := range p.Ops() {
		if op.ID != wantIDs[i] {
			t.Errorf("op %d: ID = %d, want %d", i, op.ID, wantIDs[i])
		}
	}
	if p.Threads[1].Ops[1].Value != 4 {
		t.Errorf("store value = %d, want ID+1 = 4", p.Threads[1].Ops[1].Value)
	}
	if p.Threads[1].Ops[2].Word != -1 {
		t.Errorf("fence word = %d, want -1", p.Threads[1].Ops[2].Word)
	}
}

func TestBuilderBuildRejectsBadWord(t *testing.T) {
	_, err := NewBuilder("t", 1, DefaultLayout()).Thread().Load(5).Build()
	if err == nil {
		t.Fatal("Build accepted out-of-range word index")
	}
}

func TestOpByID(t *testing.T) {
	p := NewBuilder("t", 2, DefaultLayout()).
		Thread().Store(0).Load(0).
		Thread().Store(1).
		MustBuild()

	for _, op := range p.Ops() {
		if got := p.OpByID(op.ID); got != op {
			t.Errorf("OpByID(%d) = %+v, want %+v", op.ID, got, op)
		}
	}
}

func TestStoresToWord(t *testing.T) {
	p := NewBuilder("t", 2, DefaultLayout()).
		Thread().Store(0).Store(1).Store(0).
		Thread().Store(0).
		MustBuild()
	got := p.StoresToWord(0)
	if len(got) != 3 {
		t.Fatalf("StoresToWord(0): %d stores, want 3", len(got))
	}
	wantIDs := []int{0, 2, 3}
	for i, op := range got {
		if op.ID != wantIDs[i] {
			t.Errorf("StoresToWord(0)[%d].ID = %d, want %d", i, op.ID, wantIDs[i])
		}
	}
}

func TestLayoutAddrOfNoFalseSharing(t *testing.T) {
	l := DefaultLayout() // 1 word per 64-byte line
	if a := l.AddrOf(0); a != l.Base {
		t.Errorf("AddrOf(0) = %#x, want base %#x", a, l.Base)
	}
	if a, b := l.AddrOf(1), l.Base+64; a != b {
		t.Errorf("AddrOf(1) = %#x, want %#x", a, b)
	}
	if l.LineOfWord(0) == l.LineOfWord(1) {
		t.Error("distinct words share a line despite WordsPerLine=1")
	}
}

func TestLayoutFalseSharing(t *testing.T) {
	l := Layout{Base: 0, LineSize: 64, WordSize: 4, WordsPerLine: 4}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Words 0..3 share line 0; word 4 starts line 1.
	for w := 0; w < 4; w++ {
		if got := l.LineOfWord(w); got != 0 {
			t.Errorf("LineOfWord(%d) = %d, want 0", w, got)
		}
	}
	if got := l.LineOfWord(4); got != 1 {
		t.Errorf("LineOfWord(4) = %d, want 1", got)
	}
	if a := l.AddrOf(1); a != 4 {
		t.Errorf("AddrOf(1) = %d, want 4", a)
	}
	if a := l.AddrOf(5); a != 68 {
		t.Errorf("AddrOf(5) = %d, want 68", a)
	}
}

func TestLayoutValidateErrors(t *testing.T) {
	bad := []Layout{
		{Base: 0, LineSize: 0, WordSize: 4, WordsPerLine: 1},
		{Base: 0, LineSize: 64, WordSize: 0, WordsPerLine: 1},
		{Base: 0, LineSize: 64, WordSize: 4, WordsPerLine: 0},
		{Base: 0, LineSize: 64, WordSize: 4, WordsPerLine: 17},
		{Base: 3, LineSize: 64, WordSize: 4, WordsPerLine: 1},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid layout %+v", i, l)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() *Program {
		return NewBuilder("t", 2, DefaultLayout()).
			Thread().Store(0).Load(1).
			Thread().Load(0).
			MustBuild()
	}

	corruptions := []struct {
		name string
		mut  func(*Program)
	}{
		{"bad ID", func(p *Program) { p.Threads[0].Ops[1].ID = 7 }},
		{"bad thread", func(p *Program) { p.Threads[1].Ops[0].Thread = 0 }},
		{"bad index", func(p *Program) { p.Threads[0].Ops[1].Index = 0 }},
		{"bad store value", func(p *Program) { p.Threads[0].Ops[0].Value = 9 }},
		{"load with value", func(p *Program) { p.Threads[0].Ops[1].Value = 9 }},
		{"word out of range", func(p *Program) { p.Threads[0].Ops[0].Word = 2 }},
		{"fence with word", func(p *Program) {
			p.Threads[0].Ops[1] = Op{ID: 1, Thread: 0, Index: 1, Kind: Fence, Word: 3}
		}},
	}
	for _, c := range corruptions {
		p := mk()
		c.mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted program", c.name)
		}
	}
}

func TestStringRendering(t *testing.T) {
	p := NewBuilder("demo", 2, DefaultLayout()).
		Thread().Store(0).Load(1).
		MustBuild()
	s := p.String()
	for _, want := range []string{"demo", "thread 0:", "st 0x0", "ld 0x1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestThreadLoadsStores(t *testing.T) {
	p := NewBuilder("t", 2, DefaultLayout()).
		Thread().Store(0).Load(1).Fence().Load(0).
		MustBuild()
	th := p.Threads[0]
	if got := len(th.Loads()); got != 2 {
		t.Errorf("Loads() len = %d, want 2", got)
	}
	if got := len(th.Stores()); got != 1 {
		t.Errorf("Stores() len = %d, want 1", got)
	}
}

// Property: AddrOf is injective over word indices and words never straddle
// line boundaries, for any sane layout.
func TestLayoutAddrOfProperties(t *testing.T) {
	f := func(wplSel, wordRaw uint8) bool {
		wpls := []int{1, 2, 4, 8, 16}
		l := Layout{Base: 0x40000, LineSize: 64, WordSize: 4,
			WordsPerLine: wpls[int(wplSel)%len(wpls)]}
		w1 := int(wordRaw) % 128
		w2 := (int(wordRaw) + 1) % 128
		a1, a2 := l.AddrOf(w1), l.AddrOf(w2)
		if w1 != w2 && a1 == a2 {
			return false
		}
		// Word must fit entirely within its line.
		return l.LineOf(a1) == l.LineOf(a1+uint64(l.WordSize)-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProgramOpsOrder(t *testing.T) {
	p := NewBuilder("t", 3, DefaultLayout()).
		Thread().Store(0).
		Thread().Store(1).Load(0).
		Thread().Load(2).
		MustBuild()
	ops := p.Ops()
	for i, op := range ops {
		if op.ID != i {
			t.Fatalf("Ops()[%d].ID = %d, want %d", i, op.ID, i)
		}
	}
}
