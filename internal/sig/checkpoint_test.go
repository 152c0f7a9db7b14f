package sig

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func ckUniques(words ...uint64) []Unique {
	out := make([]Unique, len(words))
	for i, w := range words {
		out[i] = Unique{Sig: New([]uint64{w}), Count: int(w)}
	}
	return out
}

// withSum appends the checksum a checkpoint body must end in, so that a test
// can hand the parser behind the checksum a damaged body.
func withSum(body []byte) []byte {
	sum := fnv.New64a()
	sum.Write(body)
	return binary.LittleEndian.AppendUint64(body[:len(body):len(body)], sum.Sum64())
}

func encodeCheckpoint(t testing.TB, ck Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := Checkpoint{
		Seed:      -42,
		ProgHash:  0xdeadbeefcafe,
		ChunkSize: 64,
		Chunks:    []CkptChunk{{Status: ChunkDone, ChunkStats: ChunkStats{Iterations: 64, Cycles: 12345}}, {Status: ChunkDone, ChunkStats: ChunkStats{Iterations: 19}}},
		Uniques:   ckUniques(3, 7, 9),
	}
	got, err := ReadCheckpoint(bytes.NewReader(encodeCheckpoint(t, ck)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != ck.Seed || got.ProgHash != ck.ProgHash || got.Completed() != 83 {
		t.Fatalf("header %+v, want %+v", got, ck)
	}
	if len(got.Uniques) != len(ck.Uniques) {
		t.Fatalf("%d uniques, want %d", len(got.Uniques), len(ck.Uniques))
	}
	for i := range got.Uniques {
		if !got.Uniques[i].Sig.Equal(ck.Uniques[i].Sig) || got.Uniques[i].Count != ck.Uniques[i].Count {
			t.Errorf("unique %d: %v/%d", i, got.Uniques[i].Sig, got.Uniques[i].Count)
		}
	}
}

func TestCheckpointEmptySet(t *testing.T) {
	got, err := ReadCheckpoint(bytes.NewReader(encodeCheckpoint(t, Checkpoint{Seed: 1, ChunkSize: 64})))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Uniques) != 0 || len(got.Chunks) != 0 || got.Completed() != 0 {
		t.Errorf("%d uniques, %d chunks from an empty checkpoint", len(got.Uniques), len(got.Chunks))
	}
}

func TestCheckpointRejectsBadInput(t *testing.T) {
	if _, err := ReadCheckpoint(strings.NewReader("BOGUSMAG rest of the file")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadCheckpoint(strings.NewReader("MTC")); err == nil {
		t.Error("truncated magic accepted")
	}
	// Header cut off after the magic.
	if _, err := ReadCheckpoint(strings.NewReader("MTCCKPT2")); err == nil {
		t.Error("truncated header accepted")
	}
	data := encodeCheckpoint(t, Checkpoint{ChunkSize: 64, Uniques: ckUniques(1, 2)})
	// Truncated: the last eight bytes left are not the checksum of the rest.
	if _, err := ReadCheckpoint(bytes.NewReader(data[:len(data)-5])); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("truncated payload: %v, want a checksum error", err)
	}
	// The same cut with a matching checksum reaches the payload parser.
	if _, err := ReadCheckpoint(bytes.NewReader(withSum(data[:len(data)-8-5]))); err == nil || !strings.Contains(err.Error(), "payload") {
		t.Errorf("truncated payload behind a good checksum: %v, want a payload error", err)
	}
	// So do bytes between the payload and the checksum (here: the old checksum).
	if _, err := ReadCheckpoint(bytes.NewReader(withSum(data))); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("padded checkpoint: %v, want a trailing-bytes error", err)
	}
}

// TestCheckpointOldLayoutRefused: the layouts nobody writes any more — an
// MTCCKPT1 prefix checkpoint, with or without an MTCDIST1 section, neither
// checksummed — are refused by name, and differently from a damaged file.
func TestCheckpointOldLayoutRefused(t *testing.T) {
	old := []byte("MTCCKPT1")
	old = binary.LittleEndian.AppendUint64(old, 7)      // seed
	old = binary.LittleEndian.AppendUint64(old, 0xabcd) // program hash
	old = binary.LittleEndian.AppendUint32(old, 60)     // completed
	var set bytes.Buffer
	if err := WriteSet(&set, ckUniques(4, 8)); err != nil {
		t.Fatal(err)
	}
	old = append(old, set.Bytes()...)
	for name, data := range map[string][]byte{
		"prefix only":       old,
		"with dist section": append(append([]byte(nil), old...), "MTCDIST1\x40\x00\x00\x00\x00\x00\x00\x00"...),
		"magic alone":       []byte("MTCCKPT1"),
	} {
		_, err := ReadCheckpoint(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "old MTCCKPT1 layout") {
			t.Errorf("%s: %v, want the old-layout refusal", name, err)
		}
	}
	data := encodeCheckpoint(t, Checkpoint{ChunkSize: 64, Uniques: ckUniques(1, 2)})
	data[len(data)-12] ^= 0x10
	if _, err := ReadCheckpoint(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("damaged checkpoint: %v, want a checksum mismatch", err)
	}
}

func TestCheckpointDistRoundTrip(t *testing.T) {
	ck := Checkpoint{
		Seed:      99,
		ProgHash:  0xabcd,
		Uniques:   ckUniques(4, 8),
		ChunkSize: 64,
		Chunks: []CkptChunk{
			{Status: ChunkDone, Attempt: 1, ChunkStats: ChunkStats{Iterations: 64, Cycles: 9999, Squashes: 2,
				Asserts: []string{"t1 assert failed", "t2 assert failed"}}},
			{Status: ChunkLeased, Attempt: 3, Worker: "worker-b"},
			{Status: ChunkPending, Attempt: 2},
			{Status: ChunkDone, ChunkStats: ChunkStats{Iterations: 40, Cycles: 5}},
		},
	}
	got, err := ReadCheckpoint(bytes.NewReader(encodeCheckpoint(t, ck)))
	if err != nil {
		t.Fatal(err)
	}
	if got.ChunkSize != 64 {
		t.Errorf("chunk size %d", got.ChunkSize)
	}
	if got.Completed() != 104 {
		t.Errorf("%d completed iterations, want 104", got.Completed())
	}
	if len(got.Chunks) != len(ck.Chunks) {
		t.Fatalf("%d chunks, want %d", len(got.Chunks), len(ck.Chunks))
	}
	for i, want := range ck.Chunks {
		g := got.Chunks[i]
		if g.Status != want.Status || g.Attempt != want.Attempt || g.Worker != want.Worker {
			t.Errorf("chunk %d lease state %+v, want %+v", i, g, want)
		}
		if want.Status != ChunkDone {
			continue
		}
		if g.Iterations != want.Iterations || g.Cycles != want.Cycles || g.Squashes != want.Squashes {
			t.Errorf("chunk %d counters %+v, want %+v", i, g, want)
		}
		if len(g.Asserts) != len(want.Asserts) {
			t.Fatalf("chunk %d: %d asserts, want %d", i, len(g.Asserts), len(want.Asserts))
		}
		for a := range g.Asserts {
			if g.Asserts[a] != want.Asserts[a] {
				t.Errorf("chunk %d assert %d: %q", i, a, g.Asserts[a])
			}
		}
	}
}

func TestCheckpointDistRejectsBadInput(t *testing.T) {
	if err := WriteCheckpoint(&bytes.Buffer{}, Checkpoint{
		Seed: 1, ChunkSize: 0, Chunks: []CkptChunk{{}},
	}); err == nil {
		t.Error("zero chunk size accepted on write")
	}
	if err := WriteCheckpoint(&bytes.Buffer{}, Checkpoint{
		Seed: 1, ChunkSize: 64, Chunks: []CkptChunk{{Status: 7}},
	}); err == nil {
		t.Error("invalid chunk status accepted on write")
	}
	if err := WriteCheckpoint(&bytes.Buffer{}, Checkpoint{
		Seed: 1, ChunkSize: 64, Chunks: []CkptChunk{{Status: ChunkDone, ChunkStats: ChunkStats{Iterations: -1}}},
	}); err == nil {
		t.Error("negative iteration count accepted on write")
	}
	// Grid cut short behind a matching checksum: the first chunk's counters
	// end mid-field.
	data := encodeCheckpoint(t, Checkpoint{Seed: 1, ChunkSize: 64, Chunks: []CkptChunk{
		{Status: ChunkDone, ChunkStats: ChunkStats{Iterations: 64}}, {Status: ChunkPending},
	}})
	const gridStart = 8 + 16 + 8 // magic, identity, grid header
	if _, err := ReadCheckpoint(bytes.NewReader(withSum(data[:gridStart+5+10]))); err == nil || !strings.Contains(err.Error(), "grid") {
		t.Errorf("truncated grid: %v, want a grid error", err)
	}
	// A done chunk larger than the grid's chunk size.
	big := encodeCheckpoint(t, Checkpoint{Seed: 1, ChunkSize: 64, Chunks: []CkptChunk{{Status: ChunkDone, ChunkStats: ChunkStats{Iterations: 65}}}})
	if _, err := ReadCheckpoint(bytes.NewReader(big)); err == nil {
		t.Error("a 65-iteration chunk in a 64-iteration grid accepted")
	}
}

func TestMergeUniques(t *testing.T) {
	a := ckUniques(1, 3, 5)
	b := ckUniques(2, 3, 6)
	c := ckUniques(3)
	got := mergeUniques(a, nil, b, c, []Unique{})
	wantWords := []uint64{1, 2, 3, 5, 6}
	wantCounts := []int{1, 2, 9, 5, 6} // 3 appears in all three lists: 3+3+3
	if len(got) != len(wantWords) {
		t.Fatalf("%d merged entries, want %d", len(got), len(wantWords))
	}
	for i := range got {
		if got[i].Sig.Word(0) != wantWords[i] || got[i].Count != wantCounts[i] {
			t.Errorf("entry %d: word %#x count %d, want %#x/%d",
				i, got[i].Sig.Word(0), got[i].Count, wantWords[i], wantCounts[i])
		}
	}
	if mergeUniques() != nil {
		t.Error("empty merge yields non-nil")
	}
	single := mergeUniques(nil, a, nil)
	if len(single) != len(a) {
		t.Fatalf("single-list merge length %d", len(single))
	}
	for i := range single {
		if !single[i].Sig.Equal(a[i].Sig) {
			t.Errorf("single-list merge changed entry %d", i)
		}
	}
}

// TestWriteFileAtomicFailureKeepsPrevious: a write that fails part-way — the
// case both callers, checkpoints and the corpus, rely on — leaves the previous
// file byte for byte and no temporary behind; a write that succeeds replaces
// it and reports its size.
func TestWriteFileAtomicFailureKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	if n, err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "first")
		return err
	}); err != nil || n != 5 {
		t.Fatalf("first write: %d bytes, %v", n, err)
	}
	boom := errors.New("disk full")
	if _, err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half of the sec")
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed write reported %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "first" {
		t.Errorf("after a failed write the file holds %q (%v), want the previous contents", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temporary file left behind by a failed write")
	}
}
