// Package corpus implements the persistent cross-campaign signature
// corpus: an append-only store of every signature ever proven acyclic,
// keyed by (program FNV-64a hash, platform name, memory consistency
// model). A signature is a pure function of (program, observed order),
// so an acyclicity verdict established by one campaign is reusable by
// every later campaign over the same key — warm campaigns skip decode
// and checking for corpus hits entirely, without changing any verdict.
//
// # File format (MTCCORP1)
//
// The on-disk format extends the MTCSIG02 provenance idea (program
// hash + seed + platform) to many keys and many campaigns, and is laid
// out mmap-friendly: fixed-width little-endian records and a trailing
// byte-offset index, so a reader can map the file and slice sections
// without a sequential parse. All integers are little-endian.
//
//	magic    [8]byte "MTCCORP1"
//	nkeys    uint32
//	nkeys × section:
//	    proghash uint64            program FNV-64a (prog.Format bytes)
//	    platlen  uint16, platform  UTF-8 platform name
//	    mcmlen   uint16, mcm       memory consistency model name
//	    words    uint32            signature width in 64-bit words
//	    nsigs    uint32            known-good signature count
//	    nsigs × entry:
//	        seed  uint64           first-seen campaign seed (int64 bits)
//	        words × uint64         signature words
//	index    nkeys × uint64        byte offset of each section
//	indexOff uint64                byte offset of the index
//	checksum uint64                FNV-64a of every preceding byte
//
// Entries within a section are kept in append order, each with the
// seed of the campaign that first proved it acyclic.
//
// # Atomicity and corruption
//
// Appends are staged in memory and persisted by Flush as a whole-file
// rewrite to a temporary file followed by rename, so concurrent readers
// only ever observe a complete, checksummed corpus. A corpus that fails
// to load (truncation, checksum mismatch, wrong version, implausible
// structure) degrades to an empty store — the campaign runs cold and
// the verdict is unaffected; the corrupt file is preserved under a
// ".quarantined" suffix when the store is next flushed.
package corpus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"

	"mtracecheck/internal/sig"
)

var magic = [8]byte{'M', 'T', 'C', 'C', 'O', 'R', 'P', '1'}

// Sanity bounds mirroring internal/sig's readers: reject implausible
// counts before allocating, so a corrupt or adversarial file degrades
// to an error instead of an OOM.
const (
	maxKeys  = 1 << 20
	maxWords = 1024
	maxSigs  = 1 << 26
	maxName  = 1024
)

// Key identifies one corpus section. Verdicts are only reusable when
// all three coordinates match: the program fixes the static code, the
// platform fixes the signature encoding width and layout, and the MCM
// fixes which orders count as violations.
type Key struct {
	ProgHash uint64
	Platform string
	MCM      string
}

// entry is one known-good signature with its first-seen provenance.
type entry struct {
	Sig  sig.Signature
	Seed int64
}

type section struct {
	words   int
	index   map[string]struct{} // sig.Signature.Key() set
	entries []entry             // append order
}

// Store is an open corpus bound to a path. All methods are safe for
// concurrent use: the dist server shares one store across every job's
// finalizer.
type Store struct {
	mu       sync.Mutex
	path     string
	loadErr  error // the file existed but did not load; quarantined on next Flush
	dirty    bool
	sections map[Key]*section
	order    []Key
}

// Open loads the corpus at path. A missing file yields an empty store
// bound to the path (the cold-start case). A file that exists but does
// not load also yields a usable empty store, together with the load
// error so the caller can warn — the campaign then runs cold, never
// with a wrong verdict.
func Open(path string) (*Store, error) {
	s := &Store{path: path, sections: make(map[Key]*section)}
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return s, nil
		}
		s.loadErr = err
		return s, fmt.Errorf("corpus: %w", err)
	}
	if err := decode(data, s); err != nil {
		s.sections = make(map[Key]*section)
		s.order = nil
		s.loadErr = err
		return s, fmt.Errorf("corpus: %s: %w", path, err)
	}
	return s, nil
}

// decode parses a complete MTCCORP1 image into s.
func decode(data []byte, s *Store) error {
	const header = 8 + 4 // magic + nkeys
	const footer = 8 + 8 // indexOff + checksum
	if len(data) < header+footer {
		return errors.New("truncated file")
	}
	if [8]byte(data[:8]) != magic {
		return fmt.Errorf("bad magic %q (want %q)", data[:8], magic[:])
	}
	h := fnv.New64a()
	h.Write(data[:len(data)-8])
	if got := binary.LittleEndian.Uint64(data[len(data)-8:]); got != h.Sum64() {
		return fmt.Errorf("checksum mismatch (file %#x, computed %#x)", got, h.Sum64())
	}
	nkeys := binary.LittleEndian.Uint32(data[8:12])
	if nkeys > maxKeys {
		return fmt.Errorf("implausible key count %d", nkeys)
	}
	indexOff := binary.LittleEndian.Uint64(data[len(data)-16:])
	if indexOff < header || indexOff+8*uint64(nkeys) != uint64(len(data)-footer) {
		return fmt.Errorf("index offset %d inconsistent with file size %d", indexOff, len(data))
	}
	for i := uint32(0); i < nkeys; i++ {
		off := binary.LittleEndian.Uint64(data[indexOff+uint64(8*i):])
		if off < header || off >= indexOff {
			return fmt.Errorf("section %d offset %d out of range", i, off)
		}
		k, sec, err := decodeSection(data[off:indexOff])
		if err != nil {
			return fmt.Errorf("section %d: %w", i, err)
		}
		if _, ok := s.sections[k]; ok {
			return fmt.Errorf("duplicate section key %#x/%s/%s", k.ProgHash, k.Platform, k.MCM)
		}
		s.sections[k] = sec
		s.order = append(s.order, k)
	}
	return nil
}

// decodeSection parses one key section from the start of b (b may
// extend past the section; trailing bytes belong to later sections).
func decodeSection(b []byte) (Key, *section, error) {
	var k Key
	cur := 0
	need := func(n int) bool { return len(b)-cur >= n }
	if !need(8 + 2) {
		return k, nil, errors.New("truncated section header")
	}
	k.ProgHash = binary.LittleEndian.Uint64(b[cur:])
	cur += 8
	platlen := int(binary.LittleEndian.Uint16(b[cur:]))
	cur += 2
	if platlen > maxName || !need(platlen+2) {
		return k, nil, fmt.Errorf("implausible platform name length %d", platlen)
	}
	k.Platform = string(b[cur : cur+platlen])
	cur += platlen
	mcmlen := int(binary.LittleEndian.Uint16(b[cur:]))
	cur += 2
	if mcmlen > maxName || !need(mcmlen+8) {
		return k, nil, fmt.Errorf("implausible MCM name length %d", mcmlen)
	}
	k.MCM = string(b[cur : cur+mcmlen])
	cur += mcmlen
	words := int(binary.LittleEndian.Uint32(b[cur:]))
	nsigs := int(binary.LittleEndian.Uint32(b[cur+4:]))
	cur += 8
	if words > maxWords || nsigs > maxSigs {
		return k, nil, fmt.Errorf("implausible signature shape: %d words, %d signatures", words, nsigs)
	}
	entryBytes := 8 + 8*words
	if !need(nsigs * entryBytes) {
		return k, nil, fmt.Errorf("truncated entries: need %d bytes, have %d", nsigs*entryBytes, len(b)-cur)
	}
	sec := &section{words: words, index: make(map[string]struct{}, nsigs)}
	scratch := make([]uint64, words)
	for i := 0; i < nsigs; i++ {
		seed := int64(binary.LittleEndian.Uint64(b[cur:]))
		cur += 8
		for w := range scratch {
			scratch[w] = binary.LittleEndian.Uint64(b[cur:])
			cur += 8
		}
		sg := sig.New(scratch)
		key := sg.Key()
		if _, dup := sec.index[key]; dup {
			return k, nil, fmt.Errorf("duplicate signature in section (entry %d)", i)
		}
		sec.index[key] = struct{}{}
		sec.entries = append(sec.entries, entry{Sig: sg, Seed: seed})
	}
	return k, sec, nil
}

// Words returns the signature width recorded for k, if the key exists.
func (s *Store) Words(k Key) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sec := s.sections[k]
	if sec == nil {
		return 0, false
	}
	return sec.words, true
}

// Contains reports whether binKey — a signature's binary key as
// produced by sig.Signature.AppendBinary — is known good under k.
func (s *Store) Contains(k Key, binKey []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sec := s.sections[k]
	if sec == nil {
		return false
	}
	_, ok := sec.index[string(binKey)]
	return ok
}

// Add stages a newly proven-acyclic signature under k with its
// first-seen campaign seed, reporting whether it was new. A width
// mismatch against k's existing section is rejected (the caller should
// have degraded to a cold run long before this point).
func (s *Store) Add(k Key, sg sig.Signature, seed int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sec := s.sections[k]
	if sec == nil {
		sec = &section{words: sg.Len(), index: make(map[string]struct{})}
		s.sections[k] = sec
		s.order = append(s.order, k)
	}
	if sec.words != sg.Len() {
		return false
	}
	key := sg.Key()
	if _, ok := sec.index[key]; ok {
		return false
	}
	sec.index[key] = struct{}{}
	sec.entries = append(sec.entries, entry{Sig: sg, Seed: seed})
	s.dirty = true
	return true
}

// Len returns the number of known-good signatures under k.
func (s *Store) Len(k Key) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	sec := s.sections[k]
	if sec == nil {
		return 0
	}
	return len(sec.entries)
}

// Flush persists staged entries durably and atomically (sig.WriteFileAtomic:
// temporary file, sync, rename), returning the bytes written. With nothing
// staged it is a no-op; a failed write leaves the previous file as it was. If
// the original file had failed to load, it is preserved as
// path+".quarantined" before the rewrite.
func (s *Store) Flush() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty {
		return 0, nil
	}
	if s.loadErr != nil {
		// Keep the unreadable original for inspection; the store rebuilds
		// from scratch (a strictly-cold cache, never a wrong verdict).
		_ = os.Rename(s.path, s.path+".quarantined")
		s.loadErr = nil
	}
	size, err := sig.WriteFileAtomic(s.path, func(w io.Writer) error {
		_, err := w.Write(s.encode())
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("corpus: %w", err)
	}
	s.dirty = false
	return size, nil
}

// encode serializes the full store. Callers hold s.mu.
func (s *Store) encode() []byte {
	var buf []byte
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.order)))
	offsets := make([]uint64, 0, len(s.order))
	for _, k := range s.order {
		sec := s.sections[k]
		offsets = append(offsets, uint64(len(buf)))
		buf = binary.LittleEndian.AppendUint64(buf, k.ProgHash)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k.Platform)))
		buf = append(buf, k.Platform...)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k.MCM)))
		buf = append(buf, k.MCM...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(sec.words))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sec.entries)))
		for _, e := range sec.entries {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Seed))
			for i := 0; i < e.Sig.Len(); i++ {
				buf = binary.LittleEndian.AppendUint64(buf, e.Sig.Word(i))
			}
		}
	}
	indexOff := uint64(len(buf))
	for _, off := range offsets {
		buf = binary.LittleEndian.AppendUint64(buf, off)
	}
	buf = binary.LittleEndian.AppendUint64(buf, indexOff)
	h := fnv.New64a()
	h.Write(buf)
	buf = binary.LittleEndian.AppendUint64(buf, h.Sum64())
	return buf
}
