// Package dist is the distributed campaign service: a long-running server
// fans a campaign's worker-invariant chunk grid out to remote worker
// processes over HTTP and merges their uploads into a report bit-identical
// to a single-process run. The robustness semantics are the point, not the
// transport — the paper's deployment model has unreliable devices feeding a
// trusted host, so the server assumes workers crash, hang, partition, and
// lie:
//
//   - Chunks are handed out under leases with deadlines. A missed lease
//     (crash, hang, partition) returns the chunk to the queue with capped
//     exponential backoff and it is re-dispatched to another worker.
//   - Chunk results are a pure function of (program, options, chunk index),
//     so duplicate completions — stragglers, redispatch races, retried
//     sends — are deduplicated by chunk ID with no effect on the report.
//   - Every upload is validated (checksum, grid bounds, signature width,
//     iteration accounting) before it is trusted; a worker whose uploads
//     repeatedly fail validation is quarantined: its leases are revoked and
//     it is refused new ones.
//   - The job checkpoint (the campaign's own, with the lease table filled in)
//     is written atomically, so a restarted server — or an in-process run —
//     resumes mid-campaign without re-running completed chunks.
//
// All of it is observable through internal/obs (worker/lease events,
// Prometheus series) rather than silently absorbed.
package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"

	"mtracecheck"
	"mtracecheck/internal/fault"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
	"mtracecheck/internal/testgen"
)

// JobSpec is the one serializable description of a campaign: mtracecheck binds
// its flags onto these fields, a client submits them as JSON, and the
// submitter, the server and every worker all call Build on them and get the
// identical (program, options) pair, which is what makes any worker's chunk
// results interchangeable and an in-process run equal to a distributed one.
type JobSpec struct {
	// Name labels the job in logs and events; optional, and the one field
	// Build does not read.
	Name string `json:"name,omitempty"`
	// Program is the test program in the text format; empty generates one
	// from Test.
	Program string `json:"program,omitempty"`
	// Test parameterizes generation when Program is empty.
	Test *testgen.Config `json:"test,omitempty"`
	// ISA selects the platform flavor ("x86" or "ARM"); ignored when Bug is
	// set (bug injection uses the gem5-like preset). Empty means x86.
	ISA string `json:"isa,omitempty"`
	// OS enables simulated OS scheduling.
	OS bool `json:"os,omitempty"`
	// Bug injects one of the paper's §7 defects: sm-inv, lsq-skip, wb-race.
	Bug string `json:"bug,omitempty"`

	// Iterations is the campaign length; 0 selects the library default and a
	// negative count is refused (mtracecheck.Options.Iterations).
	Iterations int   `json:"iterations"`
	Seed       int64 `json:"seed"`
	// Checker names the checking backend; empty means the default row.
	Checker string `json:"checker,omitempty"`
	// Workers sizes the in-process pipeline, or the server-side check stage
	// of a distributed job — not the worker fleet, which sizes itself by
	// joining.
	Workers             int     `json:"workers,omitempty"`
	Strict              bool    `json:"strict,omitempty"`
	QuarantineThreshold float64 `json:"quarantine_threshold,omitempty"`
	ShardRetries        int     `json:"shard_retries,omitempty"`
	// Fault is the campaign's fault plan; its JSON is the text form the -fault
	// flags take ("bit-flip=0.01,panic=0.5,seed=3"). Execution faults apply
	// wherever a chunk executes (keyed by chunk bounds, so they are
	// worker-invariant) and signature corruption applies once to the merged
	// set; wire kinds are a worker's own (Worker.Fault) and NewCampaign
	// refuses them here.
	Fault fault.Config `json:"fault,omitempty"`

	// CheckpointPath, CheckpointEvery (iterations, rounded up to whole chunks;
	// 0 = a tenth of the campaign) and Resume are the Options fields of the
	// same names: whoever merges the chunks — the in-process campaign or the
	// server — reads and writes the file through the one merger
	// (ChunkMerger.Resume and Save), at the same frontiers, so either resumes
	// the other's file. The doors differ only in policy: a checkpoint that
	// does not exist yet is an error in-process and a fresh start on the
	// server, and a failed write fails the in-process campaign and is logged
	// by the server.
	CheckpointPath  string `json:"checkpoint_path,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	Resume          bool   `json:"resume,omitempty"`
}

// Build resolves a spec into the (program, options) pair every party derives
// identically. What a description can get wrong beyond the names Build itself
// resolves (ISA, bug, program text) — an unknown checker, a negative or
// unrepresentable count, Resume without a path — is NewCampaign's to refuse,
// once for every door.
func Build(spec JobSpec) (*mtracecheck.Program, mtracecheck.Options, error) {
	isa := spec.ISA
	if isa == "" {
		isa = "x86"
	}
	plat, err := sim.PlatformFor(isa, spec.Bug, spec.OS)
	if err != nil {
		return nil, mtracecheck.Options{}, err
	}
	opts := mtracecheck.Options{
		Platform:            plat,
		Iterations:          spec.Iterations,
		Seed:                spec.Seed,
		Checker:             spec.Checker,
		Workers:             spec.Workers,
		Strict:              spec.Strict,
		QuarantineThreshold: spec.QuarantineThreshold,
		ShardRetries:        spec.ShardRetries,
		Fault:               spec.Fault,
		CheckpointPath:      spec.CheckpointPath,
		CheckpointEvery:     spec.CheckpointEvery,
		Resume:              spec.Resume,
	}
	if opts.Iterations == 0 {
		// Resolved here, so that a front end prints the count that runs.
		opts.Iterations = mtracecheck.DefaultIterations
	}
	var p *mtracecheck.Program
	if spec.Program != "" {
		if p, err = prog.Parse(strings.NewReader(spec.Program)); err != nil {
			return nil, mtracecheck.Options{}, fmt.Errorf("dist: job program: %w", err)
		}
	} else {
		if spec.Test == nil {
			return nil, mtracecheck.Options{}, errors.New("dist: job needs a program or a test config")
		}
		if p, err = testgen.Generate(*spec.Test); err != nil {
			return nil, mtracecheck.Options{}, err
		}
	}
	return p, opts, nil
}

// Upload error kinds: a worker reports how its chunk execution ended so the
// server can classify without parsing error strings.
const (
	// UploadOK marks a fully executed chunk.
	UploadOK uint8 = iota
	// UploadCrash marks a platform crash — a finding (paper bug class 3)
	// that fails the whole job, not the worker.
	UploadCrash
	// UploadShardFailed marks an infra failure that survived the worker's
	// retries; the server lands the upload's partial result as a lost chunk
	// (ChunkMerger.AbsorbLost), or re-dispatches the chunk of a Strict job.
	UploadShardFailed
	// UploadOther marks any other execution error.
	UploadOther
)

// ChunkUpload is one worker's completed (or failed) chunk crossing the wire:
// the chunk result as ChunkRunner.Run returned it, in an envelope naming the
// job, the worker and how the execution ended. The binary encoding ends in a
// whole-payload checksum so any bit flip in transit is detected server-side
// and strikes the sender instead of corrupting the campaign.
type ChunkUpload struct {
	Job     string
	Worker  string
	ErrKind uint8
	Err     string
	mtracecheck.ChunkResult
}

// chunkMagic heads the binary chunk-upload envelope. The layout is ephemeral —
// a worker runs the server's build to produce interchangeable chunks at all —
// so an older one (MTCCHNK1) is a bad magic like any other.
var chunkMagic = [8]byte{'M', 'T', 'C', 'C', 'H', 'N', 'K', '2'}

// EncodeChunkUpload serializes an upload (little-endian; strings and the
// stats block are internal/sig's, the block a checkpoint keeps per done chunk):
//
//	magic    [8]byte "MTCCHNK2"
//	job      string
//	worker   string
//	chunk, start, count  uint32
//	errKind  uint8
//	err      string
//	stats    stats block (sig.ChunkStats)
//	sigs     WriteSet encoding of the unique set
//	checksum uint64 FNV-64a of all preceding bytes
func EncodeChunkUpload(u *ChunkUpload) ([]byte, error) {
	for _, v := range []int{u.Chunk, u.Start, u.Count} {
		if v < 0 || int64(v) > math.MaxUint32 {
			return nil, fmt.Errorf("dist: upload field %d does not fit the envelope", v)
		}
	}
	b, err := sig.AppendString(chunkMagic[:], u.Job)
	if err == nil {
		b, err = sig.AppendString(b, u.Worker)
	}
	if err == nil {
		b = binary.LittleEndian.AppendUint32(b, uint32(u.Chunk))
		b = binary.LittleEndian.AppendUint32(b, uint32(u.Start))
		b = binary.LittleEndian.AppendUint32(b, uint32(u.Count))
		b, err = sig.AppendString(append(b, u.ErrKind), u.Err)
	}
	if err == nil {
		b, err = u.Stats.AppendBinary(b)
	}
	if err != nil {
		return nil, fmt.Errorf("dist: upload: %w", err)
	}
	buf := bytes.NewBuffer(b)
	if err := sig.WriteSet(buf, u.Uniques); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return binary.LittleEndian.AppendUint64(buf.Bytes(), h.Sum64()), nil
}

// DecodeChunkUpload parses and verifies an upload envelope. Any truncation,
// trailing garbage, checksum mismatch or stats block sig.ChunkStats.Validate
// refuses is an error — the transport is untrusted by design.
func DecodeChunkUpload(data []byte) (*ChunkUpload, error) {
	if len(data) < len(chunkMagic)+8 {
		return nil, errors.New("dist: upload too short")
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return nil, errors.New("dist: upload checksum mismatch")
	}
	if [8]byte(body[:8]) != chunkMagic {
		return nil, fmt.Errorf("dist: bad upload magic %q", body[:8])
	}
	r := bytes.NewReader(body[8:])
	u := &ChunkUpload{}
	var err error
	if u.Job, err = sig.ReadString(r); err != nil {
		return nil, fmt.Errorf("dist: upload job: %w", err)
	}
	if u.Worker, err = sig.ReadString(r); err != nil {
		return nil, fmt.Errorf("dist: upload worker: %w", err)
	}
	var hdr [13]byte // chunk, start, count, errKind
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("dist: upload header: %w", err)
	}
	chunk, start, count := binary.LittleEndian.Uint32(hdr[0:]), binary.LittleEndian.Uint32(hdr[4:]), binary.LittleEndian.Uint32(hdr[8:])
	if chunk > 1<<24 || start > 1<<30 || count > 1<<20 {
		return nil, errors.New("dist: implausible upload header")
	}
	u.Chunk, u.Start, u.Count = int(chunk), int(start), int(count)
	if u.ErrKind = hdr[12]; u.ErrKind > UploadOther {
		return nil, fmt.Errorf("dist: invalid upload error kind %d", u.ErrKind)
	}
	if u.Err, err = sig.ReadString(r); err != nil {
		return nil, fmt.Errorf("dist: upload error: %w", err)
	}
	if u.Stats, err = sig.ReadChunkStats(r, u.Count); err != nil {
		return nil, fmt.Errorf("dist: upload stats: %w", err)
	}
	if u.Uniques, err = sig.ReadSet(r); err != nil {
		return nil, fmt.Errorf("dist: upload signatures: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("dist: %d trailing bytes after upload", r.Len())
	}
	return u, nil
}
