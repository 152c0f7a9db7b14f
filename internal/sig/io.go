package sig

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary persistence for collected signature sets: the channel between the
// device under validation and the checking host. The format is deliberately
// compact — the paper's §1 motivation includes keeping device-to-host
// transfer volumes small.
//
// The set body (all little-endian), which WriteSet and ReadSet encode and
// which is also the tail of a chunk upload (MTCCHNK2) and of a checkpoint
// (MTCCKPT2):
//
//	magic   [8]byte  "MTCSIG01"
//	words   uint32   words per signature
//	count   uint32   number of unique signatures
//	entries count × { count uint32, words × uint64 }
//
// A signature file (WriteSetMeta, ReadSetMeta) prepends a provenance header
// so the host-side check-only path can reject sets collected from a different
// program, seed, or platform — the wrong-artifact mistake the checkpoint
// format already catches. A file that is a bare body has no provenance and
// is refused:
//
//	magic    [8]byte  "MTCSIG02"
//	proghash uint64   FNV-64a of the canonical program listing
//	seed     uint64   campaign seed (int64 bit pattern)
//	platform string   platform name (AppendString: uint16 length + bytes)
//	body     the set body, magic included
var magic = [8]byte{'M', 'T', 'C', 'S', 'I', 'G', '0', '1'}

var metaMagic = [8]byte{'M', 'T', 'C', 'S', 'I', 'G', '0', '2'}

// FileMeta is the provenance header of a signature-set file: enough to
// verify that a stored set matches the (program, seed, platform) the host
// is about to check it against.
type FileMeta struct {
	ProgHash uint64
	Seed     int64
	Platform string
}

// WriteSet serializes unique signatures with their observation counts as a
// set body. All signatures must have the same word count.
func WriteSet(w io.Writer, uniques []Unique) error {
	bw := bufio.NewWriter(w)
	if err := writeSetBody(bw, uniques); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteSetMeta serializes a signature file: the provenance header meta, then
// the set body.
func WriteSetMeta(w io.Writer, meta FileMeta, uniques []Unique) error {
	hdr := binary.LittleEndian.AppendUint64(metaMagic[:], meta.ProgHash)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(meta.Seed))
	hdr, err := AppendString(hdr, meta.Platform)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	bw.Write(hdr) // bufio keeps the first error for Flush
	if err := writeSetBody(bw, uniques); err != nil {
		return err
	}
	return bw.Flush()
}

func writeSetBody(bw *bufio.Writer, uniques []Unique) error {
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	words := 0
	if len(uniques) > 0 {
		words = uniques[0].Sig.Len()
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(words)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(uniques))); err != nil {
		return err
	}
	for _, u := range uniques {
		if u.Sig.Len() != words {
			return fmt.Errorf("sig: mixed signature widths (%d and %d words)", words, u.Sig.Len())
		}
		if u.Count < 0 {
			return fmt.Errorf("sig: negative count %d", u.Count)
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(u.Count)); err != nil {
			return err
		}
		for i := 0; i < words; i++ {
			if err := binary.Write(bw, binary.LittleEndian, u.Sig.Word(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadSet deserializes a set body written by WriteSet. The header is
// unauthenticated (a worker's upload, a checkpoint on disk), so nothing is
// sized from it alone: the entry list and the word arrays the signatures are
// carved from grow as entries actually arrive, and a forged or truncated
// input costs memory in proportion to its own length. An honest set of a few
// thousand signatures still loads in a handful of allocations.
func ReadSet(r io.Reader) ([]Unique, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte // magic, words, count
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("sig: reading set header: %w", err)
	}
	if [8]byte(hdr[:8]) != magic {
		return nil, fmt.Errorf("sig: bad magic %q", hdr[:8])
	}
	words := int(binary.LittleEndian.Uint32(hdr[8:]))
	count := int(binary.LittleEndian.Uint32(hdr[12:]))
	const sanity = 1 << 26
	if words > 1024 || count > sanity {
		return nil, fmt.Errorf("sig: implausible header (%d words, %d signatures)", words, count)
	}
	const (
		firstEntries   = 4096    // initial capacity of the entry list
		firstSlabWords = 4096    // first word array: 32 KiB
		maxSlabWords   = 1 << 20 // later ones double up to 8 MiB
	)
	out := make([]Unique, 0, min(count, firstEntries))
	entry := make([]byte, 4+8*words)
	var slab []uint64
	slabWords := firstSlabWords
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(br, entry); err != nil {
			return nil, fmt.Errorf("sig: entry %d: %w", i, err)
		}
		if len(slab) < words {
			slab = make([]uint64, min(count-i, max(1, slabWords/words))*words)
			slabWords = min(2*slabWords, maxSlabWords)
		}
		w := slab[:words:words]
		slab = slab[words:]
		for k := range w {
			w[k] = binary.LittleEndian.Uint64(entry[4+8*k:])
		}
		out = append(out, Unique{Sig: Signature{words: w}, Count: int(binary.LittleEndian.Uint32(entry))})
	}
	return out, nil
}

// ReadSetMeta deserializes a signature file written by WriteSetMeta: its
// provenance header, never nil, and the set. A bare set body is refused by
// name — checked against the wrong program or seed it would be believed.
func ReadSetMeta(r io.Reader) ([]Unique, *FileMeta, error) {
	br := bufio.NewReader(r)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, nil, fmt.Errorf("sig: reading magic: %w", err)
	}
	switch got {
	case metaMagic:
	case magic:
		return nil, nil, errors.New("sig: signature file was written without a provenance header; re-collect with -sigs-out")
	default:
		return nil, nil, fmt.Errorf("sig: bad magic %q", got[:])
	}
	var progHash, seed uint64
	if err := binary.Read(br, binary.LittleEndian, &progHash); err != nil {
		return nil, nil, fmt.Errorf("sig: reading header: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &seed); err != nil {
		return nil, nil, fmt.Errorf("sig: reading header: %w", err)
	}
	plat, err := ReadString(br)
	if err != nil {
		return nil, nil, fmt.Errorf("sig: reading header: %w", err)
	}
	// ReadSet buffers through br itself (bufio.NewReader returns an already
	// buffered reader as it is).
	uniques, err := ReadSet(br)
	if err != nil {
		return nil, nil, err
	}
	return uniques, &FileMeta{ProgHash: progHash, Seed: int64(seed), Platform: plat}, nil
}

// AppendString appends s as a uint16 byte length and the bytes: the one
// length-prefixed string layout of the binary formats (a signature file's
// platform, a checkpoint's lease holders, the assertion messages of a chunk's
// stats block, a chunk upload's envelope).
func AppendString(dst []byte, s string) ([]byte, error) {
	if len(s) > 0xffff {
		return dst, fmt.Errorf("sig: string too long for its length prefix (%d bytes)", len(s))
	}
	return append(binary.LittleEndian.AppendUint16(dst, uint16(len(s))), s...), nil
}

// ReadString reads a string written by AppendString.
func ReadString(r io.Reader) (string, error) {
	var n [2]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return "", err
	}
	b := make([]byte, binary.LittleEndian.Uint16(n[:]))
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
