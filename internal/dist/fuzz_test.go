package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"runtime"
	"testing"

	"mtracecheck"
	"mtracecheck/internal/fault"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
)

// FuzzBuild hammers the front door of every binary — JobSpec JSON, as a flag
// set binds it or a client posts it, through Build and NewCampaign — with
// arbitrary descriptions. Whatever the bytes say, the pair must return a
// campaign or an error without panicking and without allocating more than a
// campaign of the described size needs: a description of a hundred bytes
// used to be able to ask for a terabyte. Descriptions of programs that are
// legitimately large (beyond fuzzOps operations or words, within testgen's
// bound) are skipped: generating and analyzing them is slow, not wrong.
func FuzzBuild(f *testing.F) {
	const (
		fuzzOps    = 2048
		allocLimit = 256 << 20
	)
	add := func(spec JobSpec) {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The specs the across-doors tests run, ...
	for _, n := range []int{-5, 0, 1, mtracecheck.ChunkSize, mtracecheck.ChunkSize + 1} {
		spec := testSpec()
		spec.Iterations = n
		add(spec)
	}
	resumed := testSpec()
	resumed.CheckpointPath, resumed.CheckpointEvery, resumed.Resume = "run.ckpt", 100, true
	add(resumed)
	// ... the same program as text, ...
	p, _, err := Build(testSpec())
	if err != nil {
		f.Fatal(err)
	}
	add(JobSpec{Program: prog.Format(p), ISA: "ARM", OS: true, Checker: "vectorclock", Iterations: 64})
	// ... and descriptions that must be refused: the 2^40-iteration campaign
	// whose grid was 1.37 TB, a program of 2^40 operations, names nobody has.
	f.Add([]byte(`{"test":{"Threads":2,"OpsPerThread":20,"Words":8},"iterations":1099511627776}`))
	f.Add([]byte(`{"test":{"Threads":1048576,"OpsPerThread":1048576,"Words":1099511627776}}`))
	f.Add([]byte(`{"test":{"Threads":2,"OpsPerThread":20,"Words":8},"checker":"pk","bug":"none","isa":"mips"}`))
	f.Add([]byte(`{"program":"not a program"}`))
	// Fault plans in the text form, one valid and one of each refusal: NaN, a
	// rate above 1, an unknown kind, a wire kind (a worker's, not a job's), a
	// repeated key, a negative hold, the struct form the text replaced — and a
	// negative quarantine threshold, which used to mean "no limit".
	test := `"test":{"Threads":2,"OpsPerThread":20,"Words":8},"iterations":64`
	for _, plan := range []string{
		`"bit-flip=0.01,panic=0.5,seed=3,hold=300ms"`, `"bit-flip=NaN"`, `"panic=1.5"`, `"flip=0.1"`,
		`"wire-drop=0.5"`, `"seed=1,seed=2"`, `"stall=1,hold=-1s"`, `{"BitFlip":0.1}`,
	} {
		f.Add([]byte(`{` + test + `,"fault":` + plan + `}`))
	}
	f.Add([]byte(`{` + test + `,"quarantine_threshold":-0.5}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		if c := spec.Test; c != nil && spec.Program == "" && c.Validate() == nil &&
			(c.Threads*c.OpsPerThread > fuzzOps || c.Words > fuzzOps) {
			t.Skip("a legitimately large program")
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, opts, err := Build(spec)
		if err == nil {
			// The fault plan's JSON is its text form, which writes back what
			// it read.
			var back JobSpec
			if text, err := json.Marshal(spec); err != nil || json.Unmarshal(text, &back) != nil || back.Fault != spec.Fault {
				t.Errorf("fault plan %+v does not round-trip through JSON (%v): %+v", spec.Fault, err, back.Fault)
			}
			_, err = mtracecheck.NewCampaign(p, opts)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > allocLimit {
			t.Errorf("resolving a %d-byte description allocated %d MiB (err: %v)", len(data), grew>>20, err)
		}
		if err != nil {
			return
		}
		if spec.Iterations < 0 || spec.Iterations > mtracecheck.ChunkSize<<24 {
			t.Errorf("a campaign of %d iterations was accepted", spec.Iterations)
		}
		if q := spec.QuarantineThreshold; !(q >= 0 && q <= 1) {
			t.Errorf("a quarantine threshold of %v was accepted", q)
		}
		if err := spec.Fault.Validate(fault.Corruption | fault.Execution); err != nil {
			t.Errorf("a campaign was accepted with %v", err)
		}
	})
}

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
