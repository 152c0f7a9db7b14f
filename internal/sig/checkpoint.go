package sig

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
)

// Campaign checkpoints: the merged unique signature set collected so far,
// the chunk grid saying which iterations that set covers, and enough identity
// to refuse resuming the wrong campaign. A chunk's signatures and counters are
// a pure function of (program, options, chunk index), so a campaign that
// re-executes exactly the chunks a checkpoint does not mark done reproduces
// the uninterrupted campaign bit for bit — whichever process, in-process
// scheduler or dist server, wrote the file or reads it.
//
// Layout (all little-endian), the only one written or read:
//
//	magic     [8]byte  "MTCCKPT2"
//	seed      uint64   campaign seed (two's complement of the int64)
//	progHash  uint64   FNV-64a of the program's text format
//	chunkSize uint32   iterations per grid chunk
//	nChunks   uint32   chunks in the campaign grid
//	per chunk (ascending index):
//	  status    uint8   0 pending, 1 leased, 2 done
//	  attempt   uint16  dispatch count so far
//	  worker    string  leased chunks: the lease holder
//	  stats             done chunks only: the chunk's stats block (ChunkStats)
//	payload            WriteSet encoding of the done chunks' merged set
//	checksum  uint64   FNV-64a of every byte before it
//
// The stats block lets a resumed campaign report the cycles, squashes and
// assertion failures of the uninterrupted run; it is the block a chunk upload
// carries. Status leased, attempt and worker are the dist server's lease table
// and stay zero in-process.
var ckptMagic = [8]byte{'M', 'T', 'C', 'C', 'K', 'P', 'T', '2'}

// oldCkptMagic headed the layouts nobody writes any more: a contiguous prefix
// without a grid, optionally followed by an MTCDIST1 section, neither
// checksummed. They are refused by name, not parsed.
var oldCkptMagic = [8]byte{'M', 'T', 'C', 'C', 'K', 'P', 'T', '1'}

// Chunk states recorded in a checkpoint's grid.
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

// ChunkStats is one executed chunk's accounting: what crosses the device/host
// boundary beside the chunk's signatures, in an upload, and what a checkpoint
// keeps of a done chunk. Asserts carries assertion-failure messages (paper bug
// class 2), one per iteration that failed its inline check. One type, one
// validator (Validate) and one binary form (AppendBinary, ReadChunkStats) serve
// every door a chunk comes through.
type ChunkStats struct {
	Iterations int
	Cycles     int64
	Squashes   int
	Asserts    []string
}

// Validate refuses counters no execution of a count-iteration chunk produces:
// more iterations than the chunk has, a negative cycle or squash count (what a
// forged count of 2^63 or more reads as), more assertion failures than
// iterations.
func (s *ChunkStats) Validate(count int) error {
	switch {
	case s.Iterations < 0 || s.Iterations > count:
		return fmt.Errorf("chunk stats claim %d iterations of a %d-iteration chunk", s.Iterations, count)
	case s.Cycles < 0 || s.Squashes < 0:
		return fmt.Errorf("chunk stats claim %d cycles and %d squashes", s.Cycles, s.Squashes)
	case len(s.Asserts) > s.Iterations:
		return fmt.Errorf("chunk stats claim %d assertion failures over %d iterations", len(s.Asserts), s.Iterations)
	}
	return nil
}

// AppendBinary appends the stats block (little-endian):
//
//	iterations uint32
//	cycles     uint64
//	squashes   uint32
//	asserts    uint16 count, each a string (AppendString)
func (s *ChunkStats) AppendBinary(dst []byte) ([]byte, error) {
	if err := s.Validate(math.MaxInt32); err != nil {
		return dst, err
	}
	if s.Squashes > math.MaxInt32 || len(s.Asserts) > 0xffff {
		return dst, fmt.Errorf("chunk stats do not fit their fields (%d squashes, %d assertion failures)", s.Squashes, len(s.Asserts))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Iterations))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Cycles))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Squashes))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s.Asserts)))
	for _, a := range s.Asserts {
		var err error
		if dst, err = AppendString(dst, a); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// ReadChunkStats reads a stats block written by AppendBinary and validates it
// as a count-iteration chunk's, so no decoder hands on counters Validate
// refuses.
func ReadChunkStats(r io.Reader, count int) (ChunkStats, error) {
	var fixed [18]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return ChunkStats{}, err
	}
	s := ChunkStats{
		Iterations: int(binary.LittleEndian.Uint32(fixed[0:])),
		Cycles:     int64(binary.LittleEndian.Uint64(fixed[4:])),
		Squashes:   int(int32(binary.LittleEndian.Uint32(fixed[12:]))),
	}
	for a, n := 0, int(binary.LittleEndian.Uint16(fixed[16:])); a < n; a++ {
		msg, err := ReadString(r)
		if err != nil {
			return ChunkStats{}, fmt.Errorf("assert %d: %w", a, err)
		}
		s.Asserts = append(s.Asserts, msg)
	}
	if err := s.Validate(count); err != nil {
		return ChunkStats{}, err
	}
	return s, nil
}

// CkptChunk is one grid chunk's state, in a checkpoint and in the merger whose
// grid a checkpoint copies. The stats are meaningful only for ChunkDone chunks;
// Worker only for ChunkLeased ones (the outstanding lease holder at save time).
type CkptChunk struct {
	Status  uint8
	Attempt int
	Worker  string
	ChunkStats
}

// Checkpoint is a campaign's resumable progress: Uniques holds the merged set
// of the chunks Chunks marks done.
type Checkpoint struct {
	Seed      int64
	ProgHash  uint64
	ChunkSize int
	Chunks    []CkptChunk
	Uniques   []Unique
}

// Completed sums the done chunks' iterations.
func (ck *Checkpoint) Completed() int {
	n := 0
	for i := range ck.Chunks {
		if ck.Chunks[i].Status == ChunkDone {
			n += ck.Chunks[i].Iterations
		}
	}
	return n
}

// WriteCheckpoint serializes a checkpoint.
func WriteCheckpoint(w io.Writer, ck Checkpoint) error {
	if ck.ChunkSize <= 0 {
		return fmt.Errorf("sig: non-positive checkpoint chunk size %d", ck.ChunkSize)
	}
	grid := binary.LittleEndian.AppendUint64(ckptMagic[:], uint64(ck.Seed))
	grid = binary.LittleEndian.AppendUint64(grid, ck.ProgHash)
	grid = binary.LittleEndian.AppendUint32(grid, uint32(ck.ChunkSize))
	grid = binary.LittleEndian.AppendUint32(grid, uint32(len(ck.Chunks)))
	for i := range ck.Chunks {
		c := &ck.Chunks[i]
		if c.Status > ChunkDone {
			return fmt.Errorf("sig: chunk %d has invalid status %d", i, c.Status)
		}
		grid = append(grid, c.Status)
		grid = binary.LittleEndian.AppendUint16(grid, uint16(c.Attempt))
		var err error
		if grid, err = AppendString(grid, c.Worker); err == nil && c.Status == ChunkDone {
			grid, err = c.AppendBinary(grid)
		}
		if err != nil {
			return fmt.Errorf("sig: chunk %d: %w", i, err)
		}
	}
	sum := fnv.New64a()
	bw := bufio.NewWriter(io.MultiWriter(w, sum))
	bw.Write(grid) // bufio keeps the first error for Flush
	if err := WriteSet(bw, ck.Uniques); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, sum.Sum64())
}

// WriteFileAtomic persists what write produces at path durably and
// atomically — the one rule for every file a campaign rewrites in place
// (checkpoints, the signature corpus): the bytes go to a temporary file beside
// path, are synced to stable storage, and only then renamed over it. An
// interruption or a failed write leaves the previous file untouched and no
// temporary behind, and a power loss after the rename cannot leave an empty
// file. It returns the size written.
func WriteFileAtomic(path string, write func(io.Writer) error) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	var size int64
	if err = write(f); err == nil {
		size, err = f.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return size, nil
}

// WriteCheckpointFile persists a checkpoint at path (WriteFileAtomic),
// returning the encoded size.
func WriteCheckpointFile(path string, ck Checkpoint) (int64, error) {
	return WriteFileAtomic(path, func(w io.Writer) error { return WriteCheckpoint(w, ck) })
}

// ReadCheckpoint deserializes a checkpoint written by WriteCheckpoint. The
// whole input is read and its checksum verified before anything in it is
// believed, so a damaged file is an error, never a different campaign; a
// file in an older layout has no checksum and is refused as what it is.
func ReadCheckpoint(r io.Reader) (Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("sig: reading checkpoint: %w", err)
	}
	if len(data) >= len(oldCkptMagic) && [8]byte(data[:8]) == oldCkptMagic {
		return Checkpoint{}, errors.New("sig: checkpoint is in the old MTCCKPT1 layout (no chunk grid, no checksum), which is no longer read; start the campaign over")
	}
	if len(data) < len(ckptMagic)+8 {
		return Checkpoint{}, errors.New("sig: checkpoint shorter than its magic and checksum")
	}
	body := data[:len(data)-8]
	sum := fnv.New64a()
	sum.Write(body)
	if sum.Sum64() != binary.LittleEndian.Uint64(data[len(body):]) {
		return Checkpoint{}, errors.New("sig: checkpoint checksum mismatch (truncated or corrupted file)")
	}
	if [8]byte(body[:8]) != ckptMagic {
		return Checkpoint{}, fmt.Errorf("sig: bad checkpoint magic %q", body[:8])
	}
	br := bufio.NewReader(bytes.NewReader(body[8:]))
	var ids [2]uint64
	if err := binary.Read(br, binary.LittleEndian, &ids); err != nil {
		return Checkpoint{}, fmt.Errorf("sig: checkpoint header: %w", err)
	}
	ck := Checkpoint{Seed: int64(ids[0]), ProgHash: ids[1]}
	if err := readGrid(br, &ck); err != nil {
		return Checkpoint{}, fmt.Errorf("sig: checkpoint grid: %w", err)
	}
	// ReadSet buffers through br itself (bufio.NewReader returns a reader that
	// is already one), so what follows the set is still there to be refused.
	if ck.Uniques, err = ReadSet(br); err != nil {
		return Checkpoint{}, fmt.Errorf("sig: checkpoint payload: %w", err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return Checkpoint{}, errors.New("sig: trailing bytes after the checkpoint payload")
	}
	return ck, nil
}

func readGrid(br *bufio.Reader, ck *Checkpoint) error {
	var hdr [2]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return err
	}
	chunkSize, nChunks := hdr[0], hdr[1]
	if chunkSize == 0 || chunkSize > 1<<20 || nChunks > 1<<24 {
		return fmt.Errorf("implausible header (%d-iteration chunks, %d chunks)", chunkSize, nChunks)
	}
	// The checksum says the file is what was written, not who wrote it: the
	// list still grows as chunks are read instead of being sized from nChunks.
	ck.ChunkSize, ck.Chunks = int(chunkSize), make([]CkptChunk, 0, min(nChunks, 1024))
	for i := 0; i < int(nChunks); i++ {
		ck.Chunks = append(ck.Chunks, CkptChunk{})
		c := &ck.Chunks[i]
		status, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		if status > ChunkDone {
			return fmt.Errorf("chunk %d: invalid status %d", i, status)
		}
		c.Status = status
		var attempt uint16
		if err := binary.Read(br, binary.LittleEndian, &attempt); err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		c.Attempt = int(attempt)
		if c.Worker, err = ReadString(br); err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		if c.Status != ChunkDone {
			continue
		}
		if c.ChunkStats, err = ReadChunkStats(br, int(chunkSize)); err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
	}
	return nil
}
