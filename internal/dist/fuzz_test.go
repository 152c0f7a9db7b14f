package dist

import (
	"bytes"
	"testing"

	"mtracecheck"
	"mtracecheck/internal/sig"
)

// FuzzChunkUpload hammers the upload decoder — the one parser on the
// untrusted wire path — with arbitrary bytes. It must never panic, and
// whenever it does accept a payload, re-encoding the result must round-trip
// (the decoder may not invent state the encoder cannot represent).
func FuzzChunkUpload(f *testing.F) {
	seed, err := EncodeChunkUpload(&ChunkUpload{
		Job: "job-1", Worker: "w0", Chunk: 1, Start: 64, Count: 64,
		Stats: mtracecheck.ChunkStats{
			Iterations: 64, Cycles: 12345, Squashes: 2,
			Asserts: []string{"thread 1: bad flush"},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// A chunk whose observation counts do not add up to its iterations: the
	// decoder carries it faithfully, ChunkMerger.Absorb is what rejects it.
	padded, err := EncodeChunkUpload(&ChunkUpload{
		Job: "job-1", Worker: "w0", Chunk: 0, Start: 0, Count: 64,
		Stats: mtracecheck.ChunkStats{Iterations: 64, Cycles: 999},
		Uniques: []mtracecheck.Unique{
			{Sig: sig.New([]uint64{1, 2}), Count: 64},
			{Sig: sig.New([]uint64{1, 3}), Count: 7},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(padded)
	f.Add([]byte("MTCCHNK1"))
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := DecodeChunkUpload(data)
		if err != nil {
			return
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
