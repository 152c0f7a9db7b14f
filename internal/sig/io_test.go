package sig

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestWriteReadSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	set := NewSet()
	for i := 0; i < 400; i++ {
		set.Add(New([]uint64{uint64(rng.Intn(40)), uint64(rng.Intn(5)), rng.Uint64()}))
	}
	uniques := set.Sorted()

	var buf bytes.Buffer
	if err := WriteSet(&buf, uniques); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(uniques) {
		t.Fatalf("read %d signatures, wrote %d", len(back), len(uniques))
	}
	for i := range back {
		if !back[i].Sig.Equal(uniques[i].Sig) || back[i].Count != uniques[i].Count {
			t.Fatalf("entry %d mismatch: %v x%d vs %v x%d", i,
				back[i].Sig, back[i].Count, uniques[i].Sig, uniques[i].Count)
		}
	}
}

func TestWriteReadEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSet(&buf, nil); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSet(&buf)
	if err != nil || len(back) != 0 {
		t.Fatalf("empty round trip: %v, %d entries", err, len(back))
	}
}

func TestReadSetRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC younger bytes follow..."),
		append([]byte("MTCSIG01"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF), // absurd header
	}
	for i, b := range cases {
		if _, err := ReadSet(bytes.NewReader(b)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestWriteSetRejectsMixedWidths(t *testing.T) {
	uniques := []Unique{
		{Sig: New([]uint64{1}), Count: 1},
		{Sig: New([]uint64{1, 2}), Count: 1},
	}
	var buf bytes.Buffer
	if err := WriteSet(&buf, uniques); err == nil {
		t.Error("mixed widths accepted")
	}
}

func TestReadSetTruncated(t *testing.T) {
	set := NewSet()
	set.Add(New([]uint64{7, 8}))
	var buf bytes.Buffer
	if err := WriteSet(&buf, set.Sorted()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut += 5 {
		if _, err := ReadSet(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestWriteReadSetMetaRoundTrip(t *testing.T) {
	set := NewSet()
	set.Add(New([]uint64{3, 1}))
	set.Add(New([]uint64{9, 4}))
	uniques := set.Sorted()
	meta := FileMeta{ProgHash: 0xdeadbeefcafe, Seed: -42, Platform: "sim-x86/TSO"}

	var buf bytes.Buffer
	if err := WriteSetMeta(&buf, meta, uniques); err != nil {
		t.Fatal(err)
	}
	back, got, err := ReadSetMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || *got != meta {
		t.Fatalf("meta round trip: got %+v, want %+v", got, meta)
	}
	if len(back) != len(uniques) {
		t.Fatalf("read %d signatures, wrote %d", len(back), len(uniques))
	}
	for i := range back {
		if !back[i].Sig.Equal(uniques[i].Sig) || back[i].Count != uniques[i].Count {
			t.Fatalf("entry %d mismatch", i)
		}
	}

	// ReadSet is the body codec only: a file's header is not a body.
	if _, err := ReadSet(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("ReadSet accepted a signature file as a bare set body")
	}
}

func TestReadSetMetaHeaderlessFile(t *testing.T) {
	set := NewSet()
	set.Add(New([]uint64{5}))
	var buf bytes.Buffer
	if err := WriteSet(&buf, set.Sorted()); err != nil {
		t.Fatal(err)
	}
	// A bare body at the file door has no provenance to validate: checked
	// against the wrong program or seed it would be believed, so it is refused
	// by name rather than loaded with a nil meta.
	back, meta, err := ReadSetMeta(&buf)
	if err == nil || !strings.Contains(err.Error(), "without a provenance header") {
		t.Fatalf("headerless file: err %v, want a refusal naming the missing provenance header", err)
	}
	if back != nil || meta != nil {
		t.Fatalf("refused file still produced %d entries, meta %+v", len(back), meta)
	}
}

func TestReadSetMetaTruncatedHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSetMeta(&buf, FileMeta{ProgHash: 1, Seed: 2, Platform: "p"}, nil); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut += 3 {
		if _, _, err := ReadSetMeta(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}
