package fault

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
)

func uniques(words ...uint64) []sig.Unique {
	out := make([]sig.Unique, len(words))
	for i, w := range words {
		out[i] = sig.Unique{Sig: sig.New([]uint64{w, w ^ 0xff}), Count: i + 1}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},
		{Rate: Rates{KindBitFlip: 1, KindTruncate: 0.5, KindDuplicate: 0.1, KindOutOfRange: 0.01}},
		{Rate: Rates{KindStall: 1, KindPanic: 1}, Hold: time.Second},
	}
	for _, c := range good {
		if err := c.Validate(anyFamily); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
	bad := []Config{
		{Rate: Rates{KindBitFlip: -0.1}},
		{Rate: Rates{KindTruncate: 1.5}},
		{Rate: Rates{KindDuplicate: 2}},
		{Rate: Rates{KindOutOfRange: -1}},
		{Rate: Rates{KindStall: 1.01}},
		{Rate: Rates{KindPanic: -0.5}},
		{Hold: -time.Second},
	}
	for _, c := range bad {
		if err := c.Validate(anyFamily); err == nil {
			t.Errorf("Validate(%+v): no error", c)
		}
		if _, err := NewInjector(c, anyFamily); err == nil {
			t.Errorf("NewInjector(%+v): no error", c)
		}
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	for _, c := range []Config{
		{Rate: Rates{KindBitFlip: 0.1}}, {Rate: Rates{KindTruncate: 0.1}}, {Rate: Rates{KindDuplicate: 0.1}},
		{Rate: Rates{KindOutOfRange: 0.1}}, {Rate: Rates{KindStall: 0.1}}, {Rate: Rates{KindPanic: 0.1}},
	} {
		if !c.Enabled() {
			t.Errorf("%+v reports disabled", c)
		}
	}
	// Seed or Hold alone inject nothing.
	if (Config{Seed: 42, Hold: time.Second}).Enabled() {
		t.Error("rate-free config reports enabled")
	}
}

// TestCorruptDeterministic: corruption must be a pure function of
// (Seed, signature set) — independent of how the set was collected.
func TestCorruptDeterministic(t *testing.T) {
	in, err := NewInjector(Config{Seed: 3, Rate: Rates{KindBitFlip: 0.3, KindTruncate: 0.2, KindDuplicate: 0.2, KindOutOfRange: 0.1}}, anyFamily)
	if err != nil {
		t.Fatal(err)
	}
	us := uniques(1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
	first, firstCounts := in.Corrupt(us)
	for trial := 0; trial < 3; trial++ {
		got, counts := in.Corrupt(uniques(1, 2, 3, 5, 8, 13, 21, 34, 55, 89))
		if len(got) != len(first) {
			t.Fatalf("trial %d: %d entries, first run %d", trial, len(got), len(first))
		}
		for i := range got {
			if !got[i].Sig.Equal(first[i].Sig) || got[i].Count != first[i].Count {
				t.Fatalf("trial %d entry %d: %v/%d, first run %v/%d", trial, i,
					got[i].Sig, got[i].Count, first[i].Sig, first[i].Count)
			}
		}
		for k, n := range firstCounts {
			if counts[k] != n {
				t.Fatalf("trial %d: %v count %d, first run %d", trial, k, counts[k], n)
			}
		}
	}
}

// TestCorruptZeroRatesIsIdentity: a corruption-free injector must hand the
// set back untouched (the zero-fault run is bit-identical to no injector).
func TestCorruptZeroRatesIsIdentity(t *testing.T) {
	in, err := NewInjector(Config{Seed: 9, Rate: Rates{KindPanic: 1}}, anyFamily)
	if err != nil {
		t.Fatal(err)
	}
	us := uniques(7, 11, 13)
	got, counts := in.Corrupt(us)
	if counts != nil {
		t.Errorf("injected counts %v, want nil", counts)
	}
	if len(got) != len(us) {
		t.Fatalf("%d entries, want %d", len(got), len(us))
	}
	for i := range got {
		if !got[i].Sig.Equal(us[i].Sig) || got[i].Count != us[i].Count {
			t.Errorf("entry %d changed: %v/%d", i, got[i].Sig, got[i].Count)
		}
	}
}

func TestCorruptTruncateAll(t *testing.T) {
	in, err := NewInjector(Config{Seed: 1, Rate: Rates{KindTruncate: 1}}, anyFamily)
	if err != nil {
		t.Fatal(err)
	}
	got, counts := in.Corrupt(uniques(1, 2, 3))
	if len(got) != 0 {
		t.Errorf("%d entries survived Truncate=1", len(got))
	}
	if counts[KindTruncate] != 3 {
		t.Errorf("truncate count %d, want 3", counts[KindTruncate])
	}
}

func TestCorruptDuplicateMergesBack(t *testing.T) {
	// A duplicated entry that survives unmodified must merge back during
	// host-side dedup with a doubled count.
	in, err := NewInjector(Config{Seed: 1, Rate: Rates{KindDuplicate: 1}}, anyFamily)
	if err != nil {
		t.Fatal(err)
	}
	us := uniques(4, 6)
	got, counts := in.Corrupt(us)
	if counts[KindDuplicate] != 2 {
		t.Errorf("duplicate count %d, want 2", counts[KindDuplicate])
	}
	if len(got) != 2 {
		t.Fatalf("%d entries after dedup, want 2", len(got))
	}
	for i := range got {
		if got[i].Count != 2*us[i].Count {
			t.Errorf("entry %d count %d, want %d", i, got[i].Count, 2*us[i].Count)
		}
	}
}

func TestCorruptOutOfRangeWritesAllOnes(t *testing.T) {
	in, err := NewInjector(Config{Seed: 1, Rate: Rates{KindOutOfRange: 1}}, anyFamily)
	if err != nil {
		t.Fatal(err)
	}
	got, counts := in.Corrupt(uniques(5))
	if counts[KindOutOfRange] != 1 {
		t.Fatalf("out-of-range count %d, want 1", counts[KindOutOfRange])
	}
	found := false
	for _, u := range got {
		for i := 0; i < u.Sig.Len(); i++ {
			if u.Sig.Word(i) == ^uint64(0) {
				found = true
			}
		}
	}
	if !found {
		t.Error("no all-ones word in corrupted set")
	}
}

func TestCorruptBitFlipChangesOneBit(t *testing.T) {
	in, err := NewInjector(Config{Seed: 2, Rate: Rates{KindBitFlip: 1}}, anyFamily)
	if err != nil {
		t.Fatal(err)
	}
	us := uniques(0x1234)
	got, counts := in.Corrupt(us)
	if counts[KindBitFlip] != 1 {
		t.Fatalf("bit-flip count %d, want 1", counts[KindBitFlip])
	}
	if len(got) != 1 {
		t.Fatalf("%d entries, want 1", len(got))
	}
	diff := 0
	for i := 0; i < got[0].Sig.Len(); i++ {
		x := got[0].Sig.Word(i) ^ us[0].Sig.Word(i)
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("%d bits differ, want exactly 1", diff)
	}
}

// TestShardPlanTransient: execution faults must hit only attempt 0, and the
// plan must be deterministic per (seed, block).
func TestShardPlanTransient(t *testing.T) {
	in, err := NewInjector(Config{Seed: 5, Rate: Rates{KindPanic: 1}}, anyFamily)
	if err != nil {
		t.Fatal(err)
	}
	f0 := in.shardPlan(128, 64, 0)
	if f0.Kind != KindPanic {
		t.Fatalf("attempt 0 kind %v, want panic", f0.Kind)
	}
	if f0.Iteration < 0 || f0.Iteration >= 64 {
		t.Fatalf("fault iteration %d outside block", f0.Iteration)
	}
	if again := in.shardPlan(128, 64, 0); again != f0 {
		t.Errorf("plan not deterministic: %+v vs %+v", again, f0)
	}
	for attempt := 1; attempt <= 3; attempt++ {
		if f := in.shardPlan(128, 64, attempt); f.Kind != KindNone {
			t.Errorf("attempt %d faulted: %+v", attempt, f)
		}
	}
	if f := in.shardPlan(128, 0, 0); f.Kind != KindNone {
		t.Errorf("empty block faulted: %+v", f)
	}
}

// stubSource counts RunSeeded calls without needing a simulator.
type stubSource struct{ calls int }

func (s *stubSource) RunSeeded(int64) (*sim.Execution, error) {
	s.calls++
	return &sim.Execution{}, nil
}

func TestWrapShardPassThrough(t *testing.T) {
	in, err := NewInjector(Config{Seed: 1, Rate: Rates{KindBitFlip: 1}}, anyFamily) // corruption only
	if err != nil {
		t.Fatal(err)
	}
	inner := &stubSource{}
	if src := in.WrapShard(context.Background(), inner, 0, 8, 0); src != sim.Source(inner) {
		t.Error("corruption-only injector wrapped the source")
	}
}

func TestRunnerInjectedPanic(t *testing.T) {
	in, err := NewInjector(Config{Seed: 5, Rate: Rates{KindPanic: 1}}, anyFamily)
	if err != nil {
		t.Fatal(err)
	}
	f := in.shardPlan(0, 4, 0)
	inner := &stubSource{}
	src := in.WrapShard(context.Background(), inner, 0, 4, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "injected shard panic") {
			t.Fatalf("panic value %v", r)
		}
		if inner.calls != f.Iteration {
			t.Errorf("inner ran %d iterations before the panic, want %d", inner.calls, f.Iteration)
		}
	}()
	for i := 0; i <= f.Iteration; i++ {
		if _, err := src.RunSeeded(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunnerStallHonorsContext(t *testing.T) {
	in, err := NewInjector(Config{Seed: 6, Rate: Rates{KindStall: 1}, Hold: time.Hour}, anyFamily)
	if err != nil {
		t.Fatal(err)
	}
	f := in.shardPlan(0, 4, 0)
	if f.Kind != KindStall {
		t.Fatalf("planned %v, want stall", f.Kind)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	src := in.WrapShard(ctx, &stubSource{}, 0, 4, 0)
	start := time.Now()
	var runErr error
	for i := 0; i <= f.Iteration; i++ {
		if _, runErr = src.RunSeeded(int64(i)); runErr != nil {
			break
		}
	}
	if !errors.Is(runErr, context.DeadlineExceeded) {
		t.Fatalf("stalled run error %v, want deadline exceeded", runErr)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("stall ignored the context (took %v)", el)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNone: "none", KindBitFlip: "bit-flip", KindTruncate: "truncate",
		KindDuplicate: "duplicate", KindOutOfRange: "out-of-range",
		KindStall: "stall", KindPanic: "panic", KindWireCorrupt: "wire-corrupt",
		KindWireDrop: "wire-drop", KindWireDelay: "wire-delay",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestDecisionStreamsPinned: the three planners share one keyed-stream
// helper and each keeps the key bytes and the draw order it had when it
// carried its own copy — these decisions were recorded from those copies.
func TestDecisionStreamsPinned(t *testing.T) {
	in, err := NewInjector(Config{Seed: 3, Rate: Rates{KindBitFlip: 0.3, KindTruncate: 0.2, KindDuplicate: 0.2, KindOutOfRange: 0.1}}, anyFamily)
	if err != nil {
		t.Fatal(err)
	}
	got, counts := in.Corrupt(uniques(1, 2, 3, 5, 8, 13, 21, 34, 55, 89))
	want := []struct {
		w0, w1 uint64
		count  int
	}{{0x3, 0xfc, 3}, {0x8, 0xff, 5}, {0xd, 0xf2, 6}, {0x15, 0xea, 7}, {0x22, 0xdd, 8},
		{0x8000000000000003, 0xfc, 3}, {0xffffffffffffffff, 0xfa, 4}}
	if len(got) != len(want) {
		t.Fatalf("corrupted set has %d entries, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Sig.Word(0) != w.w0 || got[i].Sig.Word(1) != w.w1 || got[i].Count != w.count {
			t.Errorf("entry %d: %v/%d, want [%#x %#x]/%d", i, got[i].Sig, got[i].Count, w.w0, w.w1, w.count)
		}
	}
	if fmt.Sprint(counts) != "map[bit-flip:2 truncate:4 duplicate:1 out-of-range:1]" {
		t.Errorf("injected %v", counts)
	}

	in, err = NewInjector(Config{Seed: 5, Rate: Rates{KindPanic: 0.3, KindStall: 0.3}}, anyFamily)
	if err != nil {
		t.Fatal(err)
	}
	shards := []Decision{{}, {Kind: KindPanic, Iteration: 28}, {}, {},
		{Kind: KindStall, Iteration: 11, Hold: defaultHold}, {}, {Kind: KindStall, Iteration: 23, Hold: defaultHold}, {}}
	for b, want := range shards {
		if got := in.shardPlan(b*64, 64, 0); got != want {
			t.Errorf("block %d: %+v, want %+v", b, got, want)
		}
	}

	in, err = NewInjector(Config{Seed: 5, Rate: Rates{KindWireDrop: 0.2, KindWireCorrupt: 0.3, KindWireDelay: 0.3}}, anyFamily)
	if err != nil {
		t.Fatal(err)
	}
	uploads := []Decision{{}, {Kind: KindWireDrop}, {Kind: KindWireDrop}, {}, {}, {},
		{Kind: KindWireCorrupt, Bit: 9504310191901066434}, {Kind: KindWireCorrupt, Bit: 419381607327785085}}
	for c, want := range uploads {
		if got := in.planUpload("job-1", c, c%3); got != want {
			t.Errorf("chunk %d send %d: %+v, want %+v", c, c%3, got, want)
		}
	}
}

// TestTextForm: the text form round-trips, is written in one canonical order,
// overlays what it names onto the receiver, and refuses — naming the
// offending text, leaving the receiver unchanged — what Validate refuses, an
// unknown or repeated key and an item that is not key=value.
func TestTextForm(t *testing.T) {
	for spec, canonical := range map[string]string{
		"":              "",
		"bit-flip=0.01": "bit-flip=0.01",
		"hold=300ms,seed=3,panic=0.5,bit-flip=0.01": "bit-flip=0.01,panic=0.5,seed=3,hold=300ms",
		"wire-delay=1,wire-drop=0.25,seed=-7":       "wire-drop=0.25,wire-delay=1,seed=-7",
		"truncate=1e-3,hold=1h":                     "truncate=0.001,hold=1h0m0s",
	} {
		var c Config
		if err := c.UnmarshalText([]byte(spec)); err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		text, err := c.MarshalText()
		if err != nil || string(text) != canonical {
			t.Errorf("%q is written %q (%v), want %q", spec, text, err, canonical)
		}
		var back Config
		if err := back.UnmarshalText(text); err != nil || back != c {
			t.Errorf("%q does not round-trip: %+v (%v), want %+v", spec, back, err, c)
		}
	}

	c := Config{Seed: 1, Rate: Rates{KindBitFlip: 0.5}}
	if err := c.UnmarshalText([]byte("panic=1")); err != nil {
		t.Fatal(err)
	}
	if want := (Config{Seed: 1, Rate: Rates{KindBitFlip: 0.5, KindPanic: 1}}); c != want {
		t.Errorf("overlay gave %+v, want %+v", c, want)
	}

	for spec, want := range map[string]string{
		"bit-flip=NaN":   "bit-flip rate NaN outside [0, 1]",
		"panic=1.5":      "panic rate 1.5 outside [0, 1]",
		"stall=-0.1":     "stall rate -0.1 outside [0, 1]",
		"wire-drop=+Inf": "wire-drop rate +Inf outside [0, 1]",
		"hold=-1s":       "negative hold -1s",
		"flip=0.1":       `unknown key "flip"`,
		"none=0.1":       `unknown key "none"`,
		"seed=1,seed=2":  "seed given twice",
		"bit-flip":       `"bit-flip" is not key=value`,
		"panic=1,":       `"" is not key=value`,
		"seed=x":         "seed: ",
	} {
		before := c
		err := c.UnmarshalText([]byte(spec))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: %v, want an error containing %q", spec, err, want)
		}
		if c != before {
			t.Errorf("%q changed the config to %+v", spec, c)
		}
	}
}

// TestValidateDoor: each door takes its own families and refuses the others'
// kinds by name.
func TestValidateDoor(t *testing.T) {
	c := Config{Rate: Rates{KindBitFlip: 0.1, KindWireDrop: 0.5}}
	if err := c.Validate(Corruption | Execution); err == nil || !strings.Contains(err.Error(), "wire-drop is not injected here") {
		t.Errorf("campaign door: %v, want wire-drop refused", err)
	}
	if err := c.Validate(Wire); err == nil || !strings.Contains(err.Error(), "bit-flip is not injected here") {
		t.Errorf("worker door: %v, want bit-flip refused", err)
	}
	if err := c.Validate(Corruption | Wire); err != nil {
		t.Errorf("a door taking both families: %v", err)
	}
	if got := (Execution | Wire).String(); got != "stall, panic, wire-corrupt, wire-drop, wire-delay" {
		t.Errorf("family names %q", got)
	}
}
