package mtracecheck

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mtracecheck/internal/instrument"
	"mtracecheck/internal/mem"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
	"mtracecheck/internal/testgen"
)

// corpusTestProgram is a small deterministic program reused across the
// corpus pipeline tests so every run shares one corpus key.
func corpusTestProgram(t *testing.T) *Program {
	t.Helper()
	p, err := testgen.Generate(TestConfig{Threads: 2, OpsPerThread: 40, Words: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runWithCorpus opens (or reopens) the corpus at path and runs one
// campaign against it, returning the report and the metrics snapshot.
func runWithCorpus(t *testing.T, p *Program, path string, opts Options) (*Report, MetricsSnapshot) {
	t.Helper()
	m := NewMetrics()
	opts.Observer = m
	if path != "" {
		store, err := OpenCorpus(path)
		if err != nil {
			t.Fatalf("OpenCorpus: %v", err)
		}
		opts.Corpus = store
	}
	report, err := RunProgram(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return report, m.Snapshot()
}

// requireSameVerdicts asserts two reports agree on everything the corpus
// must not change: the bit-identity contract between cold, warm, and
// corpus-less runs.
func requireSameVerdicts(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if a.UniqueSignatures != b.UniqueSignatures || a.SignatureBytes != b.SignatureBytes ||
		a.Iterations != b.Iterations || a.TotalCycles != b.TotalCycles || a.Squashes != b.Squashes {
		t.Fatalf("%s: counters differ: uniques %d/%d bytes %d/%d iters %d/%d cycles %d/%d squashes %d/%d",
			label, a.UniqueSignatures, b.UniqueSignatures, a.SignatureBytes, b.SignatureBytes,
			a.Iterations, b.Iterations, a.TotalCycles, b.TotalCycles, a.Squashes, b.Squashes)
	}
	if len(a.Violations) != len(b.Violations) || len(a.AssertionFailures) != len(b.AssertionFailures) ||
		len(a.Quarantined) != len(b.Quarantined) {
		t.Fatalf("%s: findings differ: %d/%d violations, %d/%d asserts, %d/%d quarantined",
			label, len(a.Violations), len(b.Violations),
			len(a.AssertionFailures), len(b.AssertionFailures),
			len(a.Quarantined), len(b.Quarantined))
	}
	for i := range a.Violations {
		if !a.Violations[i].Sig.Equal(b.Violations[i].Sig) {
			t.Fatalf("%s: violation %d flags a different signature", label, i)
		}
	}
}

// TestCorpusWarmMatchesCold is the tentpole acceptance property: a warm
// rerun against the corpus the cold run grew reproduces the corpus-less
// report bit-identically while decoding and checking zero graphs.
func TestCorpusWarmMatchesCold(t *testing.T) {
	p := corpusTestProgram(t)
	path := filepath.Join(t.TempDir(), "corpus.mtc")
	opts := Options{Iterations: 150, Seed: 9}

	base, _ := runWithCorpus(t, p, "", opts)
	cold, coldSnap := runWithCorpus(t, p, path, opts)
	warm, warmSnap := runWithCorpus(t, p, path, opts)

	requireSameVerdicts(t, "cold vs corpus-less", cold, base)
	requireSameVerdicts(t, "warm vs corpus-less", warm, base)

	if !cold.CorpusConsulted || cold.CorpusHits != 0 || cold.CorpusAppended != cold.UniqueSignatures {
		t.Errorf("cold: consulted=%v hits=%d appended=%d, want true/0/%d",
			cold.CorpusConsulted, cold.CorpusHits, cold.CorpusAppended, cold.UniqueSignatures)
	}
	if !warm.CorpusConsulted || warm.CorpusHits != warm.UniqueSignatures || warm.CorpusAppended != 0 {
		t.Errorf("warm: consulted=%v hits=%d appended=%d, want true/%d/0",
			warm.CorpusConsulted, warm.CorpusHits, warm.CorpusAppended, warm.UniqueSignatures)
	}
	// Zero decode+check on the warm run — the perf claim, asserted via the
	// same counters the Prometheus output exports.
	const (
		graphs  = "mtracecheck_graphs_checked_total"
		decoded = "mtracecheck_decoded_signatures_total"
		hits    = "mtracecheck_corpus_hits_total"
		misses  = "mtracecheck_corpus_misses_total"
		appends = "mtracecheck_corpus_appends_total"
	)
	ws, cs := warmSnap.Series, coldSnap.Series
	if ws[graphs] != 0 || ws[decoded] != 0 {
		t.Errorf("warm run still worked: %v graphs checked, %v decoded", ws[graphs], ws[decoded])
	}
	if ws[hits] != float64(warm.UniqueSignatures) || ws[misses] != 0 {
		t.Errorf("warm corpus counters: hits=%v misses=%v, want %d/0", ws[hits], ws[misses], warm.UniqueSignatures)
	}
	if cs[graphs] != float64(cold.UniqueSignatures) || cs[appends] != float64(cold.UniqueSignatures) {
		t.Errorf("cold corpus counters: graphs=%v appends=%v, want %d", cs[graphs], cs[appends], cold.UniqueSignatures)
	}
	if warm.CheckStats != nil && warm.CheckStats.Total != 0 {
		t.Errorf("warm CheckStats.Total = %d, want 0", warm.CheckStats.Total)
	}
}

// TestCorpusWarmWorkerInvariant: the warm fast path partitions at the
// sorted-merge barrier, so the report and the corpus counters cannot
// depend on the worker count.
func TestCorpusWarmWorkerInvariant(t *testing.T) {
	p := corpusTestProgram(t)
	path := filepath.Join(t.TempDir(), "corpus.mtc")
	opts := Options{Iterations: 150, Seed: 9}
	runWithCorpus(t, p, path, opts) // grow the corpus

	opts.Workers = 1
	w1, s1 := runWithCorpus(t, p, path, opts)
	opts.Workers = 4
	w4, s4 := runWithCorpus(t, p, path, opts)
	requireSameVerdicts(t, "workers 1 vs 4", w1, w4)
	if w1.CorpusHits != w4.CorpusHits || w1.CorpusAppended != w4.CorpusAppended {
		t.Errorf("corpus accounting varies with workers: hits %d/%d appended %d/%d",
			w1.CorpusHits, w4.CorpusHits, w1.CorpusAppended, w4.CorpusAppended)
	}
	if !reflect.DeepEqual(s1.Invariant(), s4.Invariant()) {
		t.Errorf("invariant metrics vary with workers:\n%v\n%v", s1.Invariant(), s4.Invariant())
	}
}

// TestCorpusViolationsNeverCached: a buggy platform's violating
// signatures must not enter the corpus, and a warm rerun must rediscover
// every violation rather than skipping it as known good.
func TestCorpusViolationsNeverCached(t *testing.T) {
	b := prog.NewBuilder("hammer", 1, prog.DefaultLayout())
	b.Thread()
	for i := 0; i < 20; i++ {
		b.Store(0)
	}
	b.Thread()
	for i := 0; i < 20; i++ {
		b.Load(0)
	}
	hammer := b.MustBuild()
	plat := PlatformGem5(mem.Bugs{}, sim.Bugs{LQSquashSkip: true})
	path := filepath.Join(t.TempDir(), "corpus.mtc")
	opts := Options{Platform: plat, Iterations: 200, Seed: 11}

	cold, _ := runWithCorpus(t, hammer, path, opts)
	if !cold.Failed() {
		t.Fatal("buggy platform not detected; test needs a failing campaign")
	}
	if cold.CorpusAppended >= cold.UniqueSignatures {
		t.Errorf("appended %d of %d uniques despite %d violations",
			cold.CorpusAppended, cold.UniqueSignatures, len(cold.Violations))
	}
	store, err := OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	key := CorpusKey{ProgHash: progHash(hammer), Platform: plat.Name, MCM: plat.Model.String()}
	for i, v := range cold.Violations {
		if store.Contains(key, v.Sig.AppendBinary(nil)) {
			t.Fatalf("violation %d's signature was cached as known good", i)
		}
	}
	warm, _ := runWithCorpus(t, hammer, path, opts)
	requireSameVerdicts(t, "buggy warm vs cold", warm, cold)
	if !warm.Failed() || len(warm.Violations) != len(cold.Violations) {
		t.Fatalf("warm rerun lost violations: %d, cold had %d",
			len(warm.Violations), len(cold.Violations))
	}
}

// TestCorpusOfflineCheckPath: the -sigs-in offline path (CheckSignatures)
// consults the same corpus, so re-auditing a saved signature set against
// a warm corpus checks nothing.
func TestCorpusOfflineCheckPath(t *testing.T) {
	p := corpusTestProgram(t)
	opts := Options{Iterations: 150, Seed: 9}
	uniques, err := CollectSignatures(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.mtc")

	check := func() *Report {
		store, err := OpenCorpus(path)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Corpus = store
		report, err := CheckSignatures(p, uniques, o)
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	cold := check()
	if cold.CorpusAppended != len(uniques) {
		t.Fatalf("offline cold appended %d, want %d", cold.CorpusAppended, len(uniques))
	}
	warm := check()
	if warm.CorpusHits != len(uniques) || warm.CorpusAppended != 0 {
		t.Errorf("offline warm: hits=%d appended=%d, want %d/0",
			warm.CorpusHits, warm.CorpusAppended, len(uniques))
	}
	if warm.CheckStats != nil && warm.CheckStats.Total != 0 {
		t.Errorf("offline warm checked %d graphs, want 0", warm.CheckStats.Total)
	}
	if len(cold.Violations) != len(warm.Violations) {
		t.Errorf("offline verdicts differ: %d vs %d violations",
			len(cold.Violations), len(warm.Violations))
	}
}

// TestCorpusCorruptFileRunsCold: a campaign handed an unreadable corpus
// runs cold with correct verdicts, and the store rebuilds (quarantining
// the corrupt original) when the campaign flushes.
func TestCorpusCorruptFileRunsCold(t *testing.T) {
	p := corpusTestProgram(t)
	path := filepath.Join(t.TempDir(), "corpus.mtc")
	opts := Options{Iterations: 150, Seed: 9}
	base, _ := runWithCorpus(t, p, "", opts)

	if err := os.WriteFile(path, []byte("not a corpus at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := OpenCorpus(path)
	if err == nil {
		t.Fatal("corrupt corpus opened without error")
	}
	o := opts
	o.Observer = NewMetrics()
	o.Corpus = store
	report, err := RunProgram(p, o)
	if err != nil {
		t.Fatal(err)
	}
	requireSameVerdicts(t, "corrupt-corpus vs corpus-less", report, base)
	if report.CorpusHits != 0 || report.CorpusAppended != report.UniqueSignatures {
		t.Errorf("corrupt store: hits=%d appended=%d, want 0/%d",
			report.CorpusHits, report.CorpusAppended, report.UniqueSignatures)
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Errorf("corrupt original not quarantined: %v", err)
	}
	re, err := OpenCorpus(path)
	if err != nil {
		t.Fatalf("rebuilt corpus unreadable: %v", err)
	}
	plat := PlatformX86()
	key := CorpusKey{ProgHash: progHash(p), Platform: plat.Name, MCM: plat.Model.String()}
	if n := re.Len(key); n != report.UniqueSignatures {
		t.Errorf("rebuilt corpus holds %d signatures, want %d", n, report.UniqueSignatures)
	}
}

// TestCorpusWidthMismatchIgnored: a corpus section whose recorded width
// contradicts the campaign's signature layout is refused up front — the
// run degrades cold and says so, rather than mixing incompatible keys.
func TestCorpusWidthMismatchIgnored(t *testing.T) {
	p := corpusTestProgram(t)
	plat := PlatformX86()
	meta, err := instrument.Analyze(p, plat.RegWidthBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.mtc")
	store, err := OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	key := CorpusKey{ProgHash: progHash(p), Platform: plat.Name, MCM: plat.Model.String()}
	wrong := make([]uint64, meta.TotalWords()+3)
	store.Add(key, sig.New(wrong), 1)
	if _, err := store.Flush(); err != nil {
		t.Fatal(err)
	}

	opts := Options{Platform: plat, Iterations: 150, Seed: 9}
	base, _ := runWithCorpus(t, p, "", opts)
	report, snap := runWithCorpus(t, p, path, opts)
	requireSameVerdicts(t, "width-mismatch vs corpus-less", report, base)
	if report.CorpusIgnored == nil || report.CorpusConsulted {
		t.Errorf("mismatched corpus not refused: ignored=%v consulted=%v",
			report.CorpusIgnored, report.CorpusConsulted)
	}
	if report.CorpusHits != 0 || report.CorpusAppended != 0 {
		t.Errorf("refused corpus still used: hits=%d appended=%d",
			report.CorpusHits, report.CorpusAppended)
	}
	if ignored := snap.Series["mtracecheck_corpus_ignored_total"]; ignored != 1 {
		t.Errorf("CorpusIgnored metric = %v, want 1", ignored)
	}
}

// TestCorpusGates: modes that change what a signature means are
// incompatible with the corpus and must be refused at construction.
func TestCorpusGates(t *testing.T) {
	p := corpusTestProgram(t)
	store, err := OpenCorpus(filepath.Join(t.TempDir(), "corpus.mtc"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCampaign(p, Options{Corpus: store, Pruner: instrument.SkewPruner(p, 4)}); err == nil {
		t.Error("Pruner + Corpus accepted")
	}
	if _, err := NewCampaign(p, Options{Corpus: store}); err != nil {
		t.Errorf("plain corpus campaign refused: %v", err)
	}
}
