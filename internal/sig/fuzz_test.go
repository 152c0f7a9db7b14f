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

// TestReadCheckpointForgedChunkCount is the same for the checkpoint grid's
// chunk count (up to 2^24 chunks of 80 bytes each), behind a checksum that
// matches: the checksum authenticates the bytes, not their author.
func TestReadCheckpointForgedChunkCount(t *testing.T) {
	data := append([]byte(nil), ckptMagic[:]...)
	data = binary.LittleEndian.AppendUint64(data, 1) // seed
	data = binary.LittleEndian.AppendUint64(data, 2) // program hash
	data = binary.LittleEndian.AppendUint32(data, 64)
	data = binary.LittleEndian.AppendUint32(data, 1<<24)
	data = withSum(data)
	var err error
	got := allocatedBy(func() { _, err = ReadCheckpoint(bytes.NewReader(data)) })
	if err == nil {
		t.Fatal("a grid with no chunks behind a count of 2^24 was accepted")
	}
	if got >= 1<<20 {
		t.Errorf("ReadCheckpoint allocated %d bytes on a %d-byte input, want < 1 MiB", got, len(data))
	}
}

// FuzzReadSet throws arbitrary bytes at the persistence parsers — the set
// body's and the signature file's: neither may panic or allocate out of
// proportion to its input, a body ReadSet accepts must re-serialize to a set
// that reads back the same, and the file door must refuse that same bare body
// (the headerless seed) and never return a nil meta.
func FuzzReadSet(f *testing.F) {
	var good bytes.Buffer
	set := NewSet()
	set.Add(New([]uint64{1, 2}))
	set.Add(New([]uint64{3, 4}))
	if err := WriteSet(&good, set.Sorted()); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	var file bytes.Buffer
	if err := WriteSetMeta(&file, FileMeta{ProgHash: 7, Seed: 3, Platform: "p"}, set.Sorted()); err != nil {
		f.Fatal(err)
	}
	f.Add(file.Bytes())
	f.Add([]byte("MTCSIG01"))
	f.Add([]byte{})
	f.Add(forgedSetHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		var uniques []Unique
		var err error
		if got := allocatedBy(func() { uniques, err = ReadSet(bytes.NewReader(data)) }); got > allocBound(len(data)) {
			t.Fatalf("ReadSet allocated %d bytes on a %d-byte input", got, len(data))
		}
		var meta *FileMeta
		var fileErr error
		if got := allocatedBy(func() { _, meta, fileErr = ReadSetMeta(bytes.NewReader(data)) }); got > allocBound(len(data)) {
			t.Fatalf("ReadSetMeta allocated %d bytes on a %d-byte input", got, len(data))
		}
		if (fileErr == nil) != (meta != nil) {
			t.Fatalf("ReadSetMeta returned meta %v with error %v", meta, fileErr)
		}
		if err != nil {
			return
		}
		if fileErr == nil {
			t.Fatal("the file door accepted a bare set body")
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

// FuzzSetDedup runs a sequence of AddWords and AddUnique calls over signatures
// of a small word alphabet, so most of them repeat, and compares Len, Total,
// the new/seen answers, Entries order and counts with a reference keyed by the
// signature's binary encoding. The same sequence also runs with every
// signature filed under one of two forced hash values, so the collision chain
// carries most lookups. The first input byte picks the width (0–2 words);
// each later byte is one call: bit 0 picks the method, bits 1–2 the AddUnique
// count less one and bits 3–6 the words; the forced hash is the first word's
// low bit.
func FuzzSetDedup(f *testing.F) {
	f.Add([]byte{1, 0, 4, 0, 9, 16, 17, 4})
	f.Add([]byte{2, 255, 254, 253, 252, 251, 250, 255, 0, 128})
	f.Add([]byte{0, 1, 3, 5, 7, 1, 3, 5, 7})
	alphabet := [4]uint64{0, 1, 1 << 63, ^uint64(0)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		width := int(data[0] % 3)
		index, want, total := map[string]int{}, []Unique(nil), 0 // the reference
		sets := [2]*Set{NewSet(), NewSet()}
		for step, b := range data[1:] {
			words := make([]uint64, width)
			for i := range words {
				words[i] = alphabet[b>>(3+2*i)&3]
			}
			s, count, forced := Signature{words: words}, 1, uint64(0)
			if width > 0 {
				forced = words[0] & 1
			}
			if b&1 != 0 {
				count += int(b>>1) & 3
			}
			key := string(s.AppendBinary(nil))
			i, seen := index[key]
			if !seen {
				index[key] = len(want)
				want = append(want, Unique{Sig: New(words), Count: count})
			} else {
				want[i].Count += count
			}
			total += count
			var isNew [2]bool
			if b&1 == 0 {
				isNew[0] = sets[0].AddWords(words)
				isNew[1] = sets[1].add(forced, Unique{Sig: s, Count: 1}, true)
			} else {
				isNew[0] = sets[0].AddUnique(Unique{Sig: New(words), Count: count})
				isNew[1] = sets[1].add(forced, Unique{Sig: New(words), Count: count}, false)
			}
			for n := range sets {
				if isNew[n] == seen {
					t.Fatalf("set %d step %d: %v reported new = %v, reference seen = %v", n, step, s, isNew[n], seen)
				}
			}
		}
		for n, set := range sets {
			if set.Len() != len(want) || set.Total() != total {
				t.Fatalf("set %d: Len %d Total %d, reference %d and %d", n, set.Len(), set.Total(), len(want), total)
			}
			for i, u := range set.Entries() {
				if !u.Sig.Equal(want[i].Sig) || u.Count != want[i].Count {
					t.Fatalf("set %d entry %d = %v ×%d, reference %v ×%d", n, i, u.Sig, u.Count, want[i].Sig, want[i].Count)
				}
			}
		}
	})
}

// FuzzReadCheckpoint is FuzzReadSet for the checkpoint reader: no panic,
// allocation in proportion to the input, and an accepted checkpoint holds no
// counters ChunkStats.Validate refuses and survives a round trip unchanged. The fuzzer cannot find a 64-bit checksum, so the
// harness overwrites the input's last eight bytes with the one that matches
// and parses that too — the grid and payload parsers stay in reach.
func FuzzReadCheckpoint(f *testing.F) {
	plain := Checkpoint{Seed: -42, ProgHash: 0xdeadbeefcafe, ChunkSize: 64, Uniques: ckUniques(3, 7, 9),
		Chunks: []CkptChunk{{Status: ChunkDone, ChunkStats: ChunkStats{Iterations: 19, Cycles: 12345}}}}
	leases := Checkpoint{
		Seed: 99, ProgHash: 0xabcd, ChunkSize: 64, Uniques: ckUniques(4, 8),
		Chunks: []CkptChunk{
			{Status: ChunkDone, Attempt: 1, ChunkStats: ChunkStats{Iterations: 64, Cycles: 9999, Squashes: 2, Asserts: []string{"t1 assert failed"}}},
			{Status: ChunkLeased, Attempt: 3, Worker: "worker-b"},
			{Status: ChunkPending, Attempt: 2},
			{Status: ChunkDone, ChunkStats: ChunkStats{Iterations: 40, Cycles: 5}},
		},
	}
	for _, ck := range []Checkpoint{plain, leases} {
		data := encodeCheckpoint(f, ck)
		f.Add(data)
		f.Add(data[:len(data)-3]) // the fix-up then parses a truncated payload
		wrong := append([]byte(nil), data...)
		wrong[len(wrong)-1] ^= 0xff // refused as it is, whole behind the fix-up
		f.Add(wrong)
	}
	// A cycle count of 2^63 behind a matching checksum: it used to be restored
	// as a negative total.
	forged := encodeCheckpoint(f, plain)
	const cyclesEnd = 8 + 16 + 8 + (1 + 2 + 2) + 4 + 8 // magic, identity, grid header, lease state, iterations, cycles
	forged[cyclesEnd-1] |= 0x80
	f.Add(withSum(forged[:len(forged)-8]))
	f.Add([]byte("MTCCKPT1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= len(ckptMagic)+8 {
			inputs = append(inputs, withSum(data[:len(data)-8]))
		}
		for _, data := range inputs {
			var ck Checkpoint
			var err error
			if got := allocatedBy(func() { ck, err = ReadCheckpoint(bytes.NewReader(data)) }); got > allocBound(len(data)) {
				t.Fatalf("ReadCheckpoint allocated %d bytes on a %d-byte input", got, len(data))
			}
			if err != nil {
				continue
			}
			for i := range ck.Chunks {
				if err := ck.Chunks[i].Validate(ck.ChunkSize); err != nil {
					t.Fatalf("accepted checkpoint's chunk %d: %v", i, err)
				}
			}
			back, err := ReadCheckpoint(bytes.NewReader(encodeCheckpoint(t, ck)))
			if err != nil {
				t.Fatalf("re-serialized checkpoint rejected: %v", err)
			}
			if !reflect.DeepEqual(back, ck) {
				t.Fatalf("round trip changed the checkpoint:\n%+v\n%+v", ck, back)
			}
		}
	})
}
