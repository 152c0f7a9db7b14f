package dist

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"mtracecheck"
	"mtracecheck/internal/sig"
)

// FuzzChunkUpload hammers the upload decoder — the one parser on the
// untrusted wire path — with arbitrary bytes. It must never panic, and
// whenever it does accept a payload, its counters must be ones
// ChunkStats.Validate accepts and re-encoding the result must round-trip (the
// decoder may not invent state the encoder cannot represent).
func FuzzChunkUpload(f *testing.F) {
	seed, err := EncodeChunkUpload(&ChunkUpload{Job: "job-1", Worker: "w0", ChunkResult: mtracecheck.ChunkResult{
		Chunk: 1, Start: 64, Count: 64,
		Stats: mtracecheck.ChunkStats{
			Iterations: 64, Cycles: 12345, Squashes: 2,
			Asserts: []string{"thread 1: bad flush"},
		},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// The same upload claiming 2^63 cycles, its checksum made to match: it used
	// to decode into a negative count the merger then added to the report.
	forged := append([]byte(nil), seed[:len(seed)-8]...)
	const cyclesEnd = 8 + (2 + 5) + (2 + 2) + 12 + 1 + 2 + 4 + 8 // magic, job, worker, grid fields, kind, err, iterations, cycles
	forged[cyclesEnd-1] |= 0x80
	sum := fnv.New64a()
	sum.Write(forged)
	f.Add(binary.LittleEndian.AppendUint64(forged, sum.Sum64()))
	// A chunk whose observation counts do not add up to its iterations: the
	// decoder carries it faithfully, ChunkMerger.Absorb is what rejects it.
	padded, err := EncodeChunkUpload(&ChunkUpload{Job: "job-1", Worker: "w0", ChunkResult: mtracecheck.ChunkResult{
		Chunk: 0, Start: 0, Count: 64,
		Stats: mtracecheck.ChunkStats{Iterations: 64, Cycles: 999},
		Uniques: []mtracecheck.Unique{
			{Sig: sig.New([]uint64{1, 2}), Count: 64},
			{Sig: sig.New([]uint64{1, 3}), Count: 7},
		},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(padded)
	f.Add([]byte("MTCCHNK1")) // the layout before this one: a bad magic like any other
	f.Add([]byte("MTCCHNK2"))
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := DecodeChunkUpload(data)
		if err != nil {
			return
		}
		if err := u.Stats.Validate(u.Count); err != nil {
			t.Fatalf("accepted upload: %v", err)
		}
		enc, err := EncodeChunkUpload(u)
		if err != nil {
			t.Fatalf("accepted upload does not re-encode: %v", err)
		}
		u2, err := DecodeChunkUpload(enc)
		if err != nil {
			t.Fatalf("re-encoded upload does not decode: %v", err)
		}
		if u2.Job != u.Job || u2.Chunk != u.Chunk || u2.Stats.Iterations != u.Stats.Iterations ||
			len(u2.Uniques) != len(u.Uniques) {
			t.Fatalf("round trip drifted: %+v vs %+v", u, u2)
		}
	})
}
