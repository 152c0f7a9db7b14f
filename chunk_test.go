package mtracecheck

// Root-level tests of the chunk API: the merger Campaign.Run itself runs on,
// driven the way a distributed service drives it — any order, duplicates,
// restore — must report exactly what Run reports.

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"mtracecheck/internal/fault"
	"mtracecheck/internal/sig"
)

// chunkResults executes every grid chunk of the campaign once, in order.
func chunkResults(t *testing.T, c *Campaign) []*ChunkResult {
	t.Helper()
	cr, err := c.NewChunkRunner()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*ChunkResult, c.NumChunks())
	for idx := range results {
		if results[idx], err = cr.Run(context.Background(), idx); err != nil {
			t.Fatalf("chunk %d: %v", idx, err)
		}
	}
	return results
}

// signatureFile is what SaveSignatures writes for the set.
func signatureFile(t *testing.T, report *Report, uniques []Unique) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveSignatures(&buf, report, uniques); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChunkMergerAnyOrderMatchesRun delivers a campaign's chunks reversed
// and shuffled, every third one twice: the report must equal Run's and the
// final set Collect's — clean, with signature corruption (quarantines) and
// with a corpus attached. Decoding happens once, at the barrier, whatever
// order the chunks landed in.
func TestChunkMergerAnyOrderMatchesRun(t *testing.T) {
	p, err := NewProgramBuilderFromConfig(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		name   string
		opts   Options
		corpus bool
	}{
		{name: "clean", opts: Options{Iterations: 300, Seed: 3}},
		{name: "faulted", opts: Options{Iterations: 300, Seed: 3,
			Fault: FaultConfig{Seed: 11, Rate: fault.Rates{fault.KindBitFlip: 0.05, fault.KindOutOfRange: 0.03}}}},
		{name: "corpus", opts: Options{Iterations: 300, Seed: 3}, corpus: true},
	}
	orders := map[string]func(n int) []int{
		"reversed": func(n int) []int {
			order := make([]int, n)
			for i := range order {
				order[i] = n - 1 - i
			}
			return order
		},
		"shuffled": func(n int) []int { return rand.New(rand.NewSource(5)).Perm(n) },
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			// Every campaign gets its own cold corpus, so each sees the same
			// store state the reference run saw.
			campaign := func() *Campaign {
				opts := cfg.opts
				if cfg.corpus {
					store, err := OpenCorpus(filepath.Join(t.TempDir(), "corpus.mtc"))
					if err != nil {
						t.Fatal(err)
					}
					opts.Corpus = store
				}
				c, err := NewCampaign(p, opts)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			want, err := campaign().Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			wantSet, err := campaign().Collect(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if cfg.opts.Fault.Enabled() && len(want.Quarantined) == 0 {
				t.Fatal("no signature quarantined at these rates; tune the fault seed")
			}
			for name, order := range orders {
				c := campaign()
				results := chunkResults(t, c)
				if len(results) < 4 {
					t.Fatalf("grid of %d chunks is too small to reorder", len(results))
				}
				m, err := c.NewChunkMerger()
				if err != nil {
					t.Fatal(err)
				}
				for _, idx := range order(len(results)) {
					if _, err := m.Report(context.Background()); err == nil {
						t.Fatalf("%s: Report succeeded with %d of %d chunks", name, m.Done(), len(results))
					}
					deliveries := 1
					if idx%3 == 0 {
						deliveries = 2
					}
					for d := 0; d < deliveries; d++ {
						fresh, err := m.Absorb(results[idx])
						if err != nil {
							t.Fatalf("%s: chunk %d: %v", name, idx, err)
						}
						if fresh != (d == 0) {
							t.Fatalf("%s: chunk %d delivery %d: fresh = %v", name, idx, d, fresh)
						}
					}
				}
				got, err := m.Report(context.Background())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameOutcome(t, cfg.name+"/"+name, got, want)
				if got.TotalCycles != want.TotalCycles || got.Squashes != want.Squashes ||
					len(got.AssertionFailures) != len(want.AssertionFailures) ||
					got.CorpusHits != want.CorpusHits || got.CorpusAppended != want.CorpusAppended {
					t.Errorf("%s: accounting diverges from Run:\ngot  %+v\nwant %+v", name, got, want)
				}
				if !bytes.Equal(signatureFile(t, got, got.Signatures()), signatureFile(t, want, wantSet)) {
					t.Errorf("%s: Signatures() is not byte-identical to Collect's set", name)
				}
			}
		})
	}
}

// TestChunkMergerRestoreAtomic: a checkpoint that does not fit the campaign
// is rejected whole. A bad-width signature behind good ones, or an impossible
// counter in the last done chunk, must leave the merger empty, so that a valid
// Restore afterwards reports exactly what Run does instead of double-counting
// what came before the bad part.
func TestChunkMergerRestoreAtomic(t *testing.T) {
	p, err := NewProgramBuilderFromConfig(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(p, Options{Iterations: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	source, err := c.NewChunkMerger()
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range chunkResults(t, c) {
		if _, err := source.Absorb(res); err != nil {
			t.Fatal(err)
		}
	}
	good := source.Checkpoint()
	if len(good.Uniques) < 3 {
		t.Fatalf("only %d uniques; the bad one needs good ones before it", len(good.Uniques))
	}
	bad := good
	bad.Uniques = append([]Unique(nil), good.Uniques...)
	bad.Uniques[len(bad.Uniques)-1].Sig = sig.Zero(c.meta.TotalWords() + 1)

	forged := good
	forged.Chunks = append([]sig.CkptChunk(nil), good.Chunks...)
	forged.Chunks[len(forged.Chunks)-1].Cycles = -1 << 62

	m, err := c.NewChunkMerger()
	if err != nil {
		t.Fatal(err)
	}
	for name, ck := range map[string]sig.Checkpoint{"a signature of the wrong width": bad, "a negative cycle count": forged} {
		if err := m.Restore(ck); err == nil {
			t.Fatalf("Restore accepted %s", name)
		}
		if n := len(m.Checkpoint().Uniques); n != 0 || m.Done() != 0 {
			t.Fatalf("Restore refusing %s left %d signatures and %d chunks in the merger", name, n, m.Done())
		}
	}
	if err := m.Restore(good); err != nil {
		t.Fatalf("valid Restore after a rejected one: %v", err)
	}
	got, err := m.Report(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "restored", got, want)
	if got.TotalCycles != want.TotalCycles || got.Squashes != want.Squashes {
		t.Errorf("restored accounting: %d cycles / %d squashes, want %d / %d",
			got.TotalCycles, got.Squashes, want.TotalCycles, want.Squashes)
	}
	wantSet, err := c.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(signatureFile(t, got, got.Signatures()), signatureFile(t, want, wantSet)) {
		t.Error("restored Signatures() is not byte-identical to Collect's set (observation counts doubled?)")
	}
}

// TestChunkMergerAbsorbCountsMustAddUp: a complete chunk accounts for each
// iteration exactly once, as a signature observation or an assertion
// failure, and no execution produces a negative counter. Results that say
// otherwise are rejected without touching the merger.
func TestChunkMergerAbsorbCountsMustAddUp(t *testing.T) {
	p, err := NewProgramBuilderFromConfig(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(p, Options{Iterations: 128, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	honest := chunkResults(t, c)[0]
	lie := func(mutate func(r *ChunkResult)) *ChunkResult {
		r := *honest
		r.Uniques = append([]Unique(nil), honest.Uniques...)
		mutate(&r)
		return &r
	}
	m, err := c.NewChunkMerger()
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*ChunkResult{
		"inflated count":    lie(func(r *ChunkResult) { r.Uniques[0].Count++ }),
		"huge count":        lie(func(r *ChunkResult) { r.Uniques[0].Count = int(^uint(0) >> 1) }),
		"dropped signature": lie(func(r *ChunkResult) { r.Uniques = r.Uniques[1:] }),
		"invented assert":   lie(func(r *ChunkResult) { r.Stats.Asserts = append(r.Stats.Asserts, "thread 0: made up") }),
		"negative cycles":   lie(func(r *ChunkResult) { r.Stats.Cycles = -1 << 62 }),
		"negative squashes": lie(func(r *ChunkResult) { r.Stats.Squashes = -5 }),
	} {
		if fresh, err := m.Absorb(r); err == nil || fresh {
			t.Errorf("%s: Absorb = (%v, %v), want a rejection", name, fresh, err)
		}
	}
	if n := len(m.Checkpoint().Uniques); m.Done() != 0 || n != 0 {
		t.Fatalf("rejected results changed the merger: %d chunks, %d signatures", m.Done(), n)
	}
	if fresh, err := m.Absorb(honest); err != nil || !fresh {
		t.Fatalf("honest result after rejections: (%v, %v)", fresh, err)
	}
}

// TestCampaignConcurrentCheck: a Campaign is immutable after construction,
// so one corpus-attached campaign must serve concurrent Check calls (the
// race pass of `make verify` is what makes this test bite).
func TestCampaignConcurrentCheck(t *testing.T) {
	p := corpusTestProgram(t)
	store, err := OpenCorpus(filepath.Join(t.TempDir(), "corpus.mtc"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(p, Options{Iterations: 150, Seed: 9, Corpus: store})
	if err != nil {
		t.Fatal(err)
	}
	uniques, err := c.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]*Report, 2)
	errs := make([]error, len(reports))
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = c.Check(context.Background(), uniques)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
		if r := reports[i]; r.UniqueSignatures != len(uniques) || len(r.Violations) != 0 ||
			r.CorpusHits+r.CheckStats.Total != len(uniques) {
			t.Errorf("check %d: %d uniques, %d violations, %d hits + %d checked; want %d, 0, sum %d",
				i, r.UniqueSignatures, len(r.Violations), r.CorpusHits, r.CheckStats.Total,
				len(uniques), len(uniques))
		}
	}
}
