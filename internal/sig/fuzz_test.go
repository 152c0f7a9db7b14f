package sig

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// allocatedBy returns the bytes the process allocated while f ran. The
// readers' headers are unauthenticated, so what they allocate must be bounded
// by what they were given to read, not by what a header claims.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is the readers' allocation budget for an input of n bytes: a
// constant factor over the input (the decoded form of the smallest entry, a
// zero-word signature or a pending chunk, is that much larger than its
// encoding, and lists grow by doubling) plus the fixed first buffers.
func allocBound(n int) uint64 { return 64*uint64(n) + 1<<20 }

// forgedSetHeader is a 16-byte signature set whose header claims 2^26
// one-word signatures and delivers none.
func forgedSetHeader() []byte {
	data := append([]byte(nil), magic[:]...)
	data = binary.LittleEndian.AppendUint32(data, 1)
	return binary.LittleEndian.AppendUint32(data, 1<<26)
}

// TestReadSetForgedCount: a header is not a reason to allocate. The forged
// 16-byte set used to cost 2 GiB and 9 s before the reader noticed the
// missing first entry.
func TestReadSetForgedCount(t *testing.T) {
	data := forgedSetHeader()
	var err error
	got := allocatedBy(func() { _, err = ReadSet(bytes.NewReader(data)) })
	if err == nil {
		t.Fatal("a set with no entries behind a count of 2^26 was accepted")
	}
	if got >= 1<<20 {
		t.Errorf("ReadSet allocated %d bytes on a %d-byte input, want < 1 MiB", got, len(data))
	}
}

// TestReadCheckpointForgedChunkCount is the same for the dist section's chunk
// count (up to 2^24 chunks of 80 bytes each).
func TestReadCheckpointForgedChunkCount(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, Checkpoint{Seed: 1, Uniques: ckUniques(1, 2)}); err != nil {
		t.Fatal(err)
	}
	data := append(buf.Bytes(), distMagic[:]...)
	data = binary.LittleEndian.AppendUint32(data, 64)
	data = binary.LittleEndian.AppendUint32(data, 1<<24)
	var err error
	got := allocatedBy(func() { _, err = ReadCheckpoint(bytes.NewReader(data)) })
	if err == nil {
		t.Fatal("a dist section with no chunks behind a count of 2^24 was accepted")
	}
	if got >= 1<<20 {
		t.Errorf("ReadCheckpoint allocated %d bytes on a %d-byte input, want < 1 MiB", got, len(data))
	}
}

// FuzzReadSet throws arbitrary bytes at the persistence parser: it must
// never panic, it may allocate only in proportion to its input, and anything
// it accepts must re-serialize to a set that reads back the same.
func FuzzReadSet(f *testing.F) {
	var good bytes.Buffer
	set := NewSet()
	set.Add(New([]uint64{1, 2}))
	set.Add(New([]uint64{3, 4}))
	if err := WriteSet(&good, set.Sorted()); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte("MTCSIG01"))
	f.Add([]byte{})
	f.Add(forgedSetHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		var uniques []Unique
		var err error
		if got := allocatedBy(func() { uniques, err = ReadSet(bytes.NewReader(data)) }); got > allocBound(len(data)) {
			t.Fatalf("ReadSet allocated %d bytes on a %d-byte input", got, len(data))
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteSet(&out, uniques); err != nil {
			t.Fatalf("accepted set failed to re-serialize: %v", err)
		}
		back, err := ReadSet(&out)
		if err != nil {
			t.Fatalf("re-serialized set rejected: %v", err)
		}
		if len(back) != len(uniques) {
			t.Fatalf("round trip changed cardinality: %d -> %d", len(uniques), len(back))
		}
	})
}

// FuzzReadCheckpoint is FuzzReadSet for the checkpoint reader, dist section
// included: no panic, allocation in proportion to the input, and an accepted
// checkpoint survives a round trip unchanged.
func FuzzReadCheckpoint(f *testing.F) {
	plain := Checkpoint{Seed: -42, ProgHash: 0xdeadbeefcafe, Completed: 12345, Uniques: ckUniques(3, 7, 9)}
	dist := Checkpoint{
		Seed: 99, ProgHash: 0xabcd, Completed: 104, Uniques: ckUniques(4, 8),
		Dist: &DistState{ChunkSize: 64, Chunks: []CkptChunk{
			{Status: ChunkDone, Attempt: 1, Iterations: 64, Cycles: 9999, Squashes: 2, Asserts: []string{"t1 assert failed"}},
			{Status: ChunkLeased, Attempt: 3, Worker: "worker-b"},
			{Status: ChunkPending, Attempt: 2},
			{Status: ChunkDone, Iterations: 40, Cycles: 5},
		}},
	}
	for _, ck := range []Checkpoint{plain, dist} {
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, ck); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-3])
	}
	f.Add([]byte("MTCCKPT1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ck Checkpoint
		var err error
		if got := allocatedBy(func() { ck, err = ReadCheckpoint(bytes.NewReader(data)) }); got > allocBound(len(data)) {
			t.Fatalf("ReadCheckpoint allocated %d bytes on a %d-byte input", got, len(data))
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteCheckpoint(&out, ck); err != nil {
			t.Fatalf("accepted checkpoint failed to re-serialize: %v", err)
		}
		back, err := ReadCheckpoint(&out)
		if err != nil {
			t.Fatalf("re-serialized checkpoint rejected: %v", err)
		}
		if !reflect.DeepEqual(back, ck) {
			t.Fatalf("round trip changed the checkpoint:\n%+v\n%+v", ck, back)
		}
	})
}
