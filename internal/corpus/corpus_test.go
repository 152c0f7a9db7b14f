package corpus

import (
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"mtracecheck/internal/sig"
)

func testKey(n uint64) Key {
	return Key{ProgHash: n, Platform: "sim-x86", MCM: "TSO"}
}

func testSig(words ...uint64) sig.Signature { return sig.New(words) }

// seedStore builds a two-key store on disk and returns its path.
func seedStore(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.mtc")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Add(testKey(1), testSig(10, 11), 100)
	s.Add(testKey(1), testSig(20, 21), 100)
	s.Add(testKey(1), testSig(30, 31), 200)
	s.Add(testKey(2), testSig(7), 300)
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenMissingFileIsEmptyStore(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "absent.mtc"))
	if err != nil {
		t.Fatalf("missing file must open clean, got %v", err)
	}
	if s.total() != 0 || len(s.keys()) != 0 {
		t.Fatalf("missing file yielded a non-empty store: %d sigs", s.total())
	}
}

func TestRoundTrip(t *testing.T) {
	path := seedStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := s.keys()
	if len(keys) != 2 || keys[0] != testKey(1) || keys[1] != testKey(2) {
		t.Fatalf("keys = %v, want first-seen order [1, 2]", keys)
	}
	if w, ok := s.Words(testKey(1)); !ok || w != 2 {
		t.Fatalf("Words(key1) = %d,%v, want 2,true", w, ok)
	}
	if s.Len(testKey(1)) != 3 || s.Len(testKey(2)) != 1 || s.total() != 4 {
		t.Fatalf("counts wrong: %d + %d = %d", s.Len(testKey(1)), s.Len(testKey(2)), s.total())
	}
	entries := s.entries(testKey(1))
	wantSeeds := []int64{100, 100, 200}
	for i, e := range entries {
		if e.Seed != wantSeeds[i] {
			t.Errorf("entry %d seed = %d, want %d (append order lost)", i, e.Seed, wantSeeds[i])
		}
	}
	if !entries[2].Sig.Equal(testSig(30, 31)) {
		t.Errorf("entry 2 sig = %v, want [30 31]", entries[2].Sig)
	}
	if !s.Contains(testKey(1), testSig(20, 21).AppendBinary(nil)) {
		t.Error("Contains missed a stored signature")
	}
	if s.Contains(testKey(1), testSig(99, 99).AppendBinary(nil)) {
		t.Error("Contains claimed an absent signature")
	}
	if s.Contains(testKey(3), testSig(10, 11).AppendBinary(nil)) {
		t.Error("Contains crossed keys")
	}
}

func TestAddDedupAndWidthMismatch(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "c.mtc"))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Add(testKey(1), testSig(1, 2), 5) {
		t.Fatal("first Add rejected")
	}
	if s.Add(testKey(1), testSig(1, 2), 6) {
		t.Error("duplicate signature accepted")
	}
	if s.Add(testKey(1), testSig(1, 2, 3), 7) {
		t.Error("width-mismatched signature accepted")
	}
	if s.Len(testKey(1)) != 1 {
		t.Errorf("Len = %d, want 1", s.Len(testKey(1)))
	}
}

func TestFlushCleanStoreIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.mtc")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Flush()
	if err != nil || n != 0 {
		t.Fatalf("clean Flush = %d,%v, want 0,nil", n, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("clean Flush created a file")
	}
}

// refixChecksum recomputes the trailing FNV-64a so a mutation upstream of
// the checksum is seen by its own validator, not the checksum check.
func refixChecksum(data []byte) []byte {
	h := fnv.New64a()
	h.Write(data[:len(data)-8])
	binary.LittleEndian.PutUint64(data[len(data)-8:], h.Sum64())
	return data
}

// TestCorruptionDegradesToCold is the corruption matrix: every damaged
// image must yield (usable empty store, error) from Open — a cold run,
// never a wrong verdict.
func TestCorruptionDegradesToCold(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"truncated entries", func(b []byte) []byte { return refixChecksum(b[:len(b)-24]) }},
		{"bad checksum", func(b []byte) []byte { b[20] ^= 0xff; return b }},
		{"wrong version", func(b []byte) []byte { b[7] = '2'; return refixChecksum(b) }},
		{"wrong magic", func(b []byte) []byte { copy(b, "NOTMYFMT"); return refixChecksum(b) }},
		{"implausible key count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 1<<30)
			return refixChecksum(b)
		}},
		{"index offset out of range", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(b)-16:], uint64(len(b)))
			return refixChecksum(b)
		}},
		{"empty file", func(b []byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := seedStore(t)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path)
			if err == nil {
				t.Fatal("corrupt corpus opened without error")
			}
			if s == nil {
				t.Fatal("corrupt corpus yielded no store (must degrade, not fail)")
			}
			if s.total() != 0 {
				t.Fatalf("corrupt corpus retained %d signatures", s.total())
			}
			if s.Contains(testKey(1), testSig(10, 11).AppendBinary(nil)) {
				t.Fatal("corrupt corpus still answers Contains — wrong-verdict risk")
			}
		})
	}
}

// TestQuarantineOnFlush: a store that failed to load preserves the
// unreadable original under ".quarantined" when it first persists.
func TestQuarantineOnFlush(t *testing.T) {
	path := seedStore(t)
	if err := os.WriteFile(path, []byte("garbage, not a corpus"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err == nil {
		t.Fatal("garbage opened without error")
	}
	s.Add(testKey(9), testSig(1), 42)
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	q, err := os.ReadFile(path + ".quarantined")
	if err != nil || string(q) != "garbage, not a corpus" {
		t.Fatalf("quarantined original missing or altered: %q, %v", q, err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatalf("rebuilt corpus unreadable: %v", err)
	}
	if re.total() != 1 || !re.Contains(testKey(9), testSig(1).AppendBinary(nil)) {
		t.Fatal("rebuilt corpus lost the staged entry")
	}
}

func TestDecodeRejectsDuplicateKeySections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.mtc")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Add(testKey(1), testSig(5), 1)
	// Force the same key into the section order twice: encode emits two
	// identical sections and decode must refuse the second.
	s.mu.Lock()
	s.order = append(s.order, testKey(1))
	data := s.encode()
	s.mu.Unlock()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("duplicate key sections decoded without error")
	}
}

func TestFlushAtomicReplace(t *testing.T) {
	path := seedStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Add(testKey(2), testSig(8), 301)
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temporary file left behind after rename")
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.total() != 5 {
		t.Fatalf("reloaded total = %d, want 5", re.total())
	}
}

// TestFlushFailureKeepsPreviousFile: a Flush that cannot write (here: the
// corpus directory was moved away under it) reports the error, leaves the
// previous file byte for byte and no temporary beside it, and keeps the staged
// entries for a later Flush.
func TestFlushFailureKeepsPreviousFile(t *testing.T) {
	path := seedStore(t)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Add(testKey(2), testSig(8), 301)
	dir, away := filepath.Dir(path), filepath.Dir(path)+".away"
	if err := os.Rename(dir, away); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(); err == nil {
		t.Fatal("Flush into a missing directory reported success")
	}
	if err := os.Rename(away, dir); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Errorf("the previous corpus changed under a failed Flush (%v)", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temporary file left behind by a failed Flush")
	}
	if n, err := s.Flush(); err != nil || n == 0 {
		t.Fatalf("Flush after the failure: %d bytes, %v", n, err)
	}
	if re, err := Open(path); err != nil || re.total() != 5 {
		t.Fatalf("reloaded after the retried Flush: %v", err)
	}
}
