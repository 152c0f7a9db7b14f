package sig

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Campaign checkpoints: the merged unique signature set collected so far,
// plus enough identity to refuse resuming the wrong campaign. A checkpoint
// written after iteration N and a fresh runner skipped past N reproduce the
// uninterrupted campaign exactly (the runner draws one master value per
// iteration, so skip-ahead is bit-faithful), which is why the payload needs
// nothing beyond the signature set.
//
// Layout (all little-endian):
//
//	magic     [8]byte  "MTCCKPT1"
//	seed      uint64   campaign seed (two's complement of the int64)
//	progHash  uint64   FNV-64a of the program's text format
//	completed uint32   iterations covered by the set
//	payload            WriteSet encoding of the unique set
//
// A distributed campaign's checkpoint appends the optional dist section:
// chunks complete out of order under lease-based dispatch, so coverage is a
// per-chunk bitmap plus lease state rather than a contiguous prefix, and the
// per-chunk execution counters let a restarted server rebuild a report
// bit-identical to an uninterrupted run. Readers of the base format that
// predate the section stop at the payload; ReadCheckpoint detects it by its
// magic and otherwise returns Dist == nil:
//
//	distMagic [8]byte  "MTCDIST1"
//	chunkSize uint32   iterations per grid chunk
//	nChunks   uint32   chunks in the campaign grid
//	per chunk (ascending index):
//	  status    uint8   0 pending, 1 leased, 2 done
//	  attempt   uint16  dispatch count so far
//	  worker    uint16 length + bytes (leased chunks: the lease holder)
//	  done chunks additionally carry:
//	    iterations uint32, cycles uint64, squashes uint32,
//	    asserts    uint16 count, each uint16 length + bytes
var ckptMagic = [8]byte{'M', 'T', 'C', 'C', 'K', 'P', 'T', '1'}

var distMagic = [8]byte{'M', 'T', 'C', 'D', 'I', 'S', 'T', '1'}

// Chunk lease states recorded in the dist checkpoint section.
const (
	// ChunkPending marks a chunk awaiting dispatch.
	ChunkPending uint8 = iota
	// ChunkLeased marks a chunk leased to a worker at save time; a restart
	// treats it as pending (the lease died with the server) but keeps its
	// attempt count so redispatch backoff survives.
	ChunkLeased
	// ChunkDone marks a completed, validated chunk.
	ChunkDone
)

// CkptChunk is one grid chunk's state in a distributed checkpoint. The
// execution counters are meaningful only for ChunkDone chunks; Worker only
// for ChunkLeased ones (the outstanding lease holder at save time).
type CkptChunk struct {
	Status  uint8
	Attempt int
	Worker  string

	Iterations int
	Cycles     int64
	Squashes   int
	Asserts    []string
}

// DistState is the distributed extension of a checkpoint: the chunk grid
// with per-chunk completion, outstanding leases, and execution counters.
// The checkpoint's Uniques hold the merged set of the done chunks.
type DistState struct {
	ChunkSize int
	Chunks    []CkptChunk
}

// DoneChunks counts completed chunks.
func (d *DistState) DoneChunks() int {
	n := 0
	for i := range d.Chunks {
		if d.Chunks[i].Status == ChunkDone {
			n++
		}
	}
	return n
}

// Checkpoint is a campaign's resumable progress.
type Checkpoint struct {
	Seed      int64
	ProgHash  uint64
	Completed int
	Uniques   []Unique
	// Dist, when non-nil, marks a distributed campaign's checkpoint:
	// Completed sums the done chunks' iterations (not a contiguous prefix),
	// so the in-process prefix-resume path must reject it.
	Dist *DistState
}

// WriteCheckpoint serializes a checkpoint.
func WriteCheckpoint(w io.Writer, ck Checkpoint) error {
	if ck.Completed < 0 {
		return fmt.Errorf("sig: negative checkpoint iteration count %d", ck.Completed)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(ckptMagic[:]); err != nil {
		return err
	}
	for _, v := range []uint64{uint64(ck.Seed), ck.ProgHash} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(ck.Completed)); err != nil {
		return err
	}
	if err := WriteSet(bw, ck.Uniques); err != nil {
		return err
	}
	if ck.Dist != nil {
		if err := writeDistState(bw, ck.Dist); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeDistState(bw *bufio.Writer, d *DistState) error {
	if d.ChunkSize <= 0 {
		return fmt.Errorf("sig: non-positive checkpoint chunk size %d", d.ChunkSize)
	}
	if _, err := bw.Write(distMagic[:]); err != nil {
		return err
	}
	for _, v := range []uint32{uint32(d.ChunkSize), uint32(len(d.Chunks))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	writeString := func(s string) error {
		if len(s) > 0xffff {
			return fmt.Errorf("sig: checkpoint string too long (%d bytes)", len(s))
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	for i := range d.Chunks {
		c := &d.Chunks[i]
		if c.Status > ChunkDone {
			return fmt.Errorf("sig: chunk %d has invalid status %d", i, c.Status)
		}
		if err := bw.WriteByte(c.Status); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(c.Attempt)); err != nil {
			return err
		}
		if err := writeString(c.Worker); err != nil {
			return err
		}
		if c.Status != ChunkDone {
			continue
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(c.Iterations)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(c.Cycles)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(c.Squashes)); err != nil {
			return err
		}
		if len(c.Asserts) > 0xffff {
			return fmt.Errorf("sig: chunk %d has implausibly many asserts (%d)", i, len(c.Asserts))
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(c.Asserts))); err != nil {
			return err
		}
		for _, a := range c.Asserts {
			if err := writeString(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadCheckpoint deserializes a checkpoint written by WriteCheckpoint.
func ReadCheckpoint(r io.Reader) (Checkpoint, error) {
	br := bufio.NewReader(r)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return Checkpoint{}, fmt.Errorf("sig: reading checkpoint magic: %w", err)
	}
	if got != ckptMagic {
		return Checkpoint{}, fmt.Errorf("sig: bad checkpoint magic %q", got[:])
	}
	var seed, progHash uint64
	var completed uint32
	if err := binary.Read(br, binary.LittleEndian, &seed); err != nil {
		return Checkpoint{}, err
	}
	if err := binary.Read(br, binary.LittleEndian, &progHash); err != nil {
		return Checkpoint{}, err
	}
	if err := binary.Read(br, binary.LittleEndian, &completed); err != nil {
		return Checkpoint{}, err
	}
	if completed > 1<<30 {
		return Checkpoint{}, fmt.Errorf("sig: implausible checkpoint iteration count %d", completed)
	}
	uniques, err := ReadSet(br)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("sig: checkpoint payload: %w", err)
	}
	ck := Checkpoint{
		Seed:      int64(seed),
		ProgHash:  progHash,
		Completed: int(completed),
		Uniques:   uniques,
	}
	// The dist section is optional and trailing: plain checkpoints (and any
	// written before the section existed) end at the payload.
	peek, err := br.Peek(len(distMagic))
	if err == io.EOF || (err == nil && len(peek) < len(distMagic)) {
		return ck, nil
	}
	if err != nil {
		return Checkpoint{}, fmt.Errorf("sig: checkpoint trailer: %w", err)
	}
	if [8]byte(peek) != distMagic {
		return Checkpoint{}, fmt.Errorf("sig: bad checkpoint trailer magic %q", peek)
	}
	br.Discard(len(distMagic))
	d, err := readDistState(br)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("sig: checkpoint dist section: %w", err)
	}
	ck.Dist = d
	return ck, nil
}

func readDistState(br *bufio.Reader) (*DistState, error) {
	var chunkSize, nChunks uint32
	if err := binary.Read(br, binary.LittleEndian, &chunkSize); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &nChunks); err != nil {
		return nil, err
	}
	if chunkSize == 0 || chunkSize > 1<<20 || nChunks > 1<<24 {
		return nil, fmt.Errorf("sig: implausible dist header (%d-iteration chunks, %d chunks)", chunkSize, nChunks)
	}
	readString := func() (string, error) {
		var n uint16
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return "", err
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	// nChunks is as unauthenticated as a signature set's count: the list grows
	// as chunks are read.
	d := &DistState{ChunkSize: int(chunkSize), Chunks: make([]CkptChunk, 0, min(nChunks, 1024))}
	for i := 0; i < int(nChunks); i++ {
		d.Chunks = append(d.Chunks, CkptChunk{})
		c := &d.Chunks[i]
		status, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		if status > ChunkDone {
			return nil, fmt.Errorf("chunk %d: invalid status %d", i, status)
		}
		c.Status = status
		var attempt uint16
		if err := binary.Read(br, binary.LittleEndian, &attempt); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		c.Attempt = int(attempt)
		if c.Worker, err = readString(); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		if c.Status != ChunkDone {
			continue
		}
		var iters, squashes uint32
		var cycles uint64
		if err := binary.Read(br, binary.LittleEndian, &iters); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &cycles); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &squashes); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		if iters > chunkSize {
			return nil, fmt.Errorf("chunk %d: %d iterations exceed the %d-iteration chunk size", i, iters, chunkSize)
		}
		c.Iterations, c.Cycles, c.Squashes = int(iters), int64(cycles), int(squashes)
		var nAsserts uint16
		if err := binary.Read(br, binary.LittleEndian, &nAsserts); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		for a := 0; a < int(nAsserts); a++ {
			s, err := readString()
			if err != nil {
				return nil, fmt.Errorf("chunk %d assert %d: %w", i, a, err)
			}
			c.Asserts = append(c.Asserts, s)
		}
	}
	return d, nil
}
