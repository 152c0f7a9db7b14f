package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"mtracecheck"
	"mtracecheck/internal/experiments/report"
	"mtracecheck/internal/testgen"
)

// Corpus measures the cross-campaign signature corpus (the warm-cache
// fast path): each paper configuration runs one cold campaign against an
// empty corpus, then an identical warm rerun against the corpus the cold
// run grew. The warm rerun must reproduce the cold verdicts while
// decoding and checking zero graphs — every unique is a corpus hit — so
// the "warm checked" column is the per-configuration work saved by
// memoizing acyclicity verdicts across campaigns.
func Corpus(cfg Config) (*report.Table, error) {
	t := &report.Table{
		Title: "Signature corpus: cold vs warm repeat campaigns",
		Caption: fmt.Sprintf("%d iterations per campaign; the warm rerun consults the corpus grown by the cold run.",
			cfg.Iterations),
		Header: []string{"config", "uniques", "cold checked", "cold appended",
			"warm hits", "warm checked", "verdicts"},
	}
	dir := cfg.CorpusPath
	if dir == "" {
		tmp, err := os.MkdirTemp("", "mtc-corpus-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for ci, pc := range testgen.PaperConfigs() {
		tc := pc.Config
		tc.Seed = cfg.Seed
		p, err := testgen.Generate(tc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pc.Label, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("corpus-%02d.mtc", ci))
		run := func() (*mtracecheck.Report, error) {
			// Re-open per campaign: the warm run sees exactly what the cold
			// run persisted, the same way two separate invocations would.
			store, err := mtracecheck.OpenCorpus(path)
			if err != nil {
				return nil, err
			}
			return mtracecheck.RunProgram(p, cfg.options(mtracecheck.Options{
				Platform: platformFor(pc.ISA), Iterations: cfg.Iterations, Seed: cfg.Seed, Corpus: store}))
		}
		cold, err := run()
		if err != nil {
			return nil, fmt.Errorf("%s: cold: %w", pc.Label, err)
		}
		warm, err := run()
		if err != nil {
			return nil, fmt.Errorf("%s: warm: %w", pc.Label, err)
		}
		verdict := "identical"
		if cold.UniqueSignatures != warm.UniqueSignatures ||
			len(cold.Violations) != len(warm.Violations) ||
			len(cold.AssertionFailures) != len(warm.AssertionFailures) {
			verdict = "MISMATCH"
		}
		t.AddRow(pc.Label, cold.UniqueSignatures, graphsChecked(cold), cold.CorpusAppended,
			warm.CorpusHits, graphsChecked(warm), verdict)
	}
	return t, nil
}

func graphsChecked(r *mtracecheck.Report) int {
	if r.CheckStats == nil {
		return 0
	}
	return r.CheckStats.Total
}
