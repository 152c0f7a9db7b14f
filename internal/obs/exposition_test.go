package obs

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// script delivers one campaign that exercises every event kind and every
// series but two corpus ones: a resume, a retried execute attempt, a periodic
// and the final merge, every fault kind, a quarantine, two check shards with
// every backend's effort counter, two dist workers (one quarantined, its ID
// needing both exposition escapes), every lease transition, and a corpus
// consulted and grown. corpusScript adds the rest. The goldens below were
// captured from the two before Metrics became a table.
func script(o Observer) {
	base := time.Unix(1700000000, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	const liar = `w"2\`
	d := o.(DistObserver)

	o.CampaignStart(CampaignStart{
		Program: "probe", Threads: 4, Ops: 160, Platform: "sim-x86", Model: "TSO",
		Iterations: 200, Workers: 2, Time: base,
	})
	o.Checkpoint(Checkpoint{Op: CheckpointResumed, Path: "ckpt.bin", Completed: 64, Uniques: 5, Time: base})
	d.WorkerEvent(WorkerEvent{Op: WorkerJoin, Worker: "w-1", Time: base})
	d.WorkerEvent(WorkerEvent{Op: WorkerJoin, Worker: liar, Time: base})
	d.LeaseEvent(LeaseEvent{Op: LeaseGranted, Job: "job-1", Chunk: 0, Worker: "w-1", Time: base})
	d.LeaseEvent(LeaseEvent{Op: LeaseGranted, Job: "job-1", Chunk: 1, Worker: liar, Time: base})

	o.ShardStart(ShardStart{Stage: StageExecute, Shard: 0, Start: 64, Count: 68, Time: base})
	o.ShardEnd(ShardEnd{
		Stage: StageExecute, Shard: 0, Attempt: 0, Start: 64, Count: 68,
		Iterations: 12, Cycles: 900, Squashes: 2, Asserts: 1, Err: errors.New("injected stall"), WillRetry: true,
		Backoff: time.Millisecond, Time: at(1), Duration: time.Millisecond,
	})
	o.ShardStart(ShardStart{Stage: StageExecute, Shard: 0, Attempt: 1, Start: 64, Count: 68, Time: at(2)})
	o.ShardEnd(ShardEnd{
		Stage: StageExecute, Shard: 0, Attempt: 1, Start: 64, Count: 68,
		Iterations: 68, Cycles: 5000, Squashes: 3, Uniques: 7,
		Time: at(4), Duration: 2 * time.Millisecond,
	})
	o.MergeDone(MergeDone{Completed: 132, Uniques: 8, Time: at(4)})
	o.Checkpoint(Checkpoint{Op: CheckpointSaved, Path: "ckpt.bin", Completed: 132, Uniques: 8, Bytes: 512, Time: at(4)})

	d.LeaseEvent(LeaseEvent{Op: UploadRejected, Job: "job-1", Chunk: 1, Worker: liar, Time: at(4)})
	d.WorkerEvent(WorkerEvent{Op: WorkerQuarantined, Worker: liar, Strikes: 2, Leases: 1, Time: at(4)})
	d.LeaseEvent(LeaseEvent{Op: LeaseExpired, Job: "job-1", Chunk: 0, Worker: "w-1", Time: at(4)})
	d.WorkerEvent(WorkerEvent{Op: WorkerLost, Worker: "w-1", Leases: 1, Time: at(4)})
	d.LeaseEvent(LeaseEvent{Op: ChunkRedispatched, Job: "job-1", Chunk: 0, Worker: "w-1", Attempt: 1, Time: at(4)})
	d.LeaseEvent(LeaseEvent{Op: ChunkDuplicate, Job: "job-1", Chunk: 0, Worker: "w-1", Time: at(5)})

	o.ShardStart(ShardStart{Stage: StageExecute, Shard: 1, Start: 132, Count: 68, Time: at(2)})
	o.ShardEnd(ShardEnd{
		Stage: StageExecute, Shard: 1, Attempt: 0, Start: 132, Count: 68,
		Iterations: 68, Cycles: 4800, Squashes: 1, Uniques: 6, Asserts: 1,
		Time: at(5), Duration: 3 * time.Millisecond,
	})
	o.MergeDone(MergeDone{
		Completed: 200, Uniques: 11, Final: true, Time: at(5),
		Injected: FaultCounts{BitFlip: 2, Truncate: 1, Duplicate: 3, OutOfRange: 1},
	})

	o.ShardStart(ShardStart{Stage: StageDecode, Shard: 0, Start: 0, Count: 9, Time: at(5)})
	o.ShardEnd(ShardEnd{
		Stage: StageDecode, Shard: 0, Start: 0, Count: 9, Decoded: 6,
		QuarantinedDecode: 3, Time: at(6), Duration: time.Millisecond,
	})
	o.ShardStart(ShardStart{Stage: StageCheck, Shard: 0, Start: 0, Count: 4, Time: at(6)})
	o.ShardEnd(ShardEnd{
		Stage: StageCheck, Shard: 0, Start: 0, Count: 4, Backend: "collective", Shards: 2,
		Graphs: 4, Complete: 1, NoResort: 2, Incremental: 1, SortedVertices: 200,
		BackwardEdges: 14, MaxWindow: 12, ClockUpdates: 30, Propagations: 40, Violations: 1,
		Time: at(7), Duration: time.Millisecond,
	})
	o.ShardEnd(ShardEnd{
		Stage: StageCheck, Shard: 1, Start: 4, Count: 2, Backend: "collective", Shards: 2,
		Graphs: 2, Complete: 1, NoResort: 1, SortedVertices: 90, MaxWindow: 9,
		Time: at(8), Duration: 2 * time.Millisecond,
	})
	o.CampaignEnd(CampaignEnd{
		Iterations: 200, Uniques: 11, Quarantined: 3, Violations: 1, Asserts: 1,
		CorpusProgram: 0xabc, CorpusPlatform: "sim-x86", CorpusMCM: "TSO", CorpusConsulted: true,
		CorpusHits: 2, CorpusMisses: 9, CorpusAppended: 5, CorpusKnown: 7,
		Time: at(9), Duration: 9 * time.Millisecond,
	})
}

// corpusScript delivers the ends of two more campaigns, whose corpus use is
// all they add: a second corpus key, consulted and never hit, and a corpus
// refused. Progress prints a line per campaign end, so its golden is the
// script's alone.
func corpusScript(o Observer) {
	at := time.Unix(1700000000, 0).Add(10 * time.Millisecond)
	o.CampaignEnd(CampaignEnd{
		Iterations: 40, Uniques: 3,
		CorpusProgram: 0xdef, CorpusPlatform: "sim-arm", CorpusMCM: "RMO", CorpusConsulted: true,
		CorpusMisses: 3, Time: at, Duration: time.Millisecond,
	})
	o.CampaignEnd(CampaignEnd{
		Iterations: 40, Uniques: 3,
		CorpusProgram: 0xdef, CorpusPlatform: "sim-arm", CorpusMCM: "RMO",
		CorpusIgnored: errors.New("width mismatch"), Time: at, Duration: time.Millisecond,
	})
}

// golden compares got with testdata/name byte for byte (-update rewrites the
// file — only for a change that is meant to move a series or a line).
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden:\n%s\nwant:\n%s", name, got, want)
	}
}

// expose returns m's exposition.
func expose(t testing.TB, m *Metrics) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func scriptedExposition(t *testing.T) string {
	t.Helper()
	m := NewMetrics()
	script(m)
	corpusScript(m)
	return expose(t, m)
}

// TestExpositionGolden: name, help text, type, order and value of every
// series the script produces are what they were on the commit before the
// table.
func TestExpositionGolden(t *testing.T) {
	golden(t, "exposition.golden", []byte(scriptedExposition(t)))
}

// TestProgressGolden: Progress, printing from the Metrics fold, words the
// script's lines exactly as it did from its own counters.
func TestProgressGolden(t *testing.T) {
	var buf bytes.Buffer
	script(NewProgress(&buf, time.Nanosecond)) // effectively unlimited rate
	golden(t, "progress.golden", buf.Bytes())
}

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*`)
	labelStart = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="`)
)

// lintExposition is a strict reader of the text format as Metrics writes it:
// valid UTF-8; every line a "# HELP family text", a "# TYPE family
// counter|gauge" or a sample; a family's HELP then TYPE exactly once and
// before its samples, which follow it directly; label values escaped with
// \\, \" and \n only; values that parse as floats.
func lintExposition(text string) error {
	if !utf8.ValidString(text) || !strings.HasSuffix(text, "\n") {
		return errors.New("not newline-terminated UTF-8")
	}
	seen, family, typed := map[string]bool{}, "", false
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		bad := func(why string) error { return fmt.Errorf("line %d: %s: %q", i+1, why, line) }
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name := metricName.FindString(rest)
			if name == "" || seen[name] || !strings.HasPrefix(rest[len(name):], " ") || strings.Contains(rest, `\`) {
				return bad("HELP for no, a repeated or an escaped family")
			}
			seen[name], family, typed = true, name, false
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if typed || (rest != family+" counter" && rest != family+" gauge") {
				return bad("TYPE not directly after its family's HELP")
			}
			typed = true
			continue
		}
		rest, ok := strings.CutPrefix(line, family)
		if !ok || !typed || family == "" {
			return bad("sample outside its family's HELP and TYPE")
		}
		for more := strings.HasPrefix(rest, "{"); more; {
			label := labelStart.FindString(rest[1:]) // past the { or the ,
			if label == "" {
				return bad("label name")
			}
			for rest = rest[1+len(label):]; ; {
				if rest == "" {
					return bad("unterminated label value")
				}
				c := rest[0]
				if rest = rest[1:]; c == '"' {
					break
				}
				if c == '\\' {
					if rest == "" || !strings.ContainsRune(`\"n`, rune(rest[0])) {
						return bad("illegal escape")
					}
					rest = rest[1:]
				}
			}
			switch {
			case strings.HasPrefix(rest, ","):
			case strings.HasPrefix(rest, "}"):
				rest, more = rest[1:], false
			default:
				return bad("label set")
			}
		}
		value, ok := strings.CutPrefix(rest, " ")
		if _, err := strconv.ParseFloat(value, 64); !ok || err != nil {
			return bad("value")
		}
	}
	return nil
}

// TestSeriesTable holds the table's contracts over the script's exposition:
// it is full; names are unique; a family's help sits on its first row
// only; every row is written exactly once (a labelled row at least once)
// under one HELP and one TYPE per family; and every row is non-zero, so a
// row that nothing adds to fails.
func TestSeriesTable(t *testing.T) {
	if nRows != nSeries {
		t.Fatalf("%d rows declared, nSeries is %d", nRows, nSeries)
	}
	text := scriptedExposition(t)
	if err := lintExposition(text); err != nil {
		t.Error(err)
	}
	lines := strings.Split(text, "\n")
	count := func(prefix string) (n int, nonZero bool) {
		for _, line := range lines {
			if value, ok := strings.CutPrefix(line, prefix); ok {
				n++
				nonZero = nonZero || strings.Trim(value, "0.") != ""
			}
		}
		return n, nonZero
	}
	families := map[string]bool{}
	for i, r := range table {
		fam, _, _ := strings.Cut(r.name, "{")
		if first := !families[fam]; first != (r.help != "") {
			t.Errorf("%s: help %q on the family's first row: %v", r.name, r.help, first)
		}
		families[fam] = true
		for _, other := range table[:i] {
			if other.name == r.name {
				t.Errorf("%s is declared twice", r.name)
			}
		}
		prefix := r.name + " "
		if r.attr&labelled != 0 {
			prefix = r.name + "{"
		}
		if n, nonZero := count(prefix); n == 0 || (n > 1 && r.attr&labelled == 0) || !nonZero {
			t.Errorf("%s: %d samples, non-zero: %v", r.name, n, nonZero)
		}
	}
	for fam := range families {
		help, _ := count("# HELP " + fam + " ")
		typ, _ := count("# TYPE " + fam + " ")
		if help != 1 || typ != 1 {
			t.Errorf("%s: %d HELP and %d TYPE lines", fam, help, typ)
		}
	}
	if help, _ := count("# HELP "); help != len(families) {
		t.Errorf("%d HELP lines for %d families", help, len(families))
	}
}

// TestGroupsAppearOnFirstEvent: an in-process campaign's exposition carries
// no dist and no corpus series; each group is written from its first event,
// the corpus group from the first campaign end that consulted or refused a
// corpus.
func TestGroupsAppearOnFirstEvent(t *testing.T) {
	m := NewMetrics()
	feed(m)
	if out := expose(t, m); strings.Contains(out, "_dist_") || strings.Contains(out, "_corpus_") ||
		!strings.Contains(out, "mtracecheck_shard_attempts_total 3") {
		t.Errorf("in-process exposition:\n%s", out)
	}
	m.CampaignEnd(CampaignEnd{CorpusIgnored: errors.New("width mismatch")})
	if out := expose(t, m); strings.Contains(out, "_dist_") || !strings.Contains(out, "mtracecheck_corpus_ignored_total 1") ||
		strings.Contains(out, "mtracecheck_corpus_known_signatures{") {
		t.Errorf("after a refused corpus:\n%s", out)
	}
	m = NewMetrics()
	m.CampaignEnd(CampaignEnd{CorpusConsulted: true, CorpusPlatform: "sim-x86", CorpusMCM: "TSO"})
	if out := expose(t, m); strings.Contains(out, "_dist_") || !strings.Contains(out, "mtracecheck_corpus_hits_total 0") ||
		!strings.Contains(out, "mtracecheck_corpus_known_signatures{") {
		t.Errorf("after an all-zero corpus consult:\n%s", out)
	}
	m.LeaseEvent(LeaseEvent{Op: LeaseGranted, Worker: "w"})
	if out := expose(t, m); !strings.Contains(out, "mtracecheck_dist_workers_lost_total 0") {
		t.Errorf("after a lease:\n%s", out)
	}
}

// hostileExposition folds events carrying the three strings that reach a
// label from outside — a worker ID, a platform and a model name — and lints
// the exposition.
func hostileExposition(t *testing.T, worker, platform, model string) {
	t.Helper()
	m := NewMetrics()
	m.WorkerEvent(WorkerEvent{Op: WorkerJoin, Worker: worker})
	m.LeaseEvent(LeaseEvent{Op: UploadRejected, Worker: worker})
	m.CampaignEnd(CampaignEnd{CorpusConsulted: true, CorpusPlatform: platform, CorpusMCM: model, CorpusHits: 1})
	if out := expose(t, m); lintExposition(out) != nil {
		t.Errorf("labels %q %q %q: %v\n%s", worker, platform, model, lintExposition(out), out)
	}
}

// TestHostileLabels: the lint refuses Go-syntax escapes and misplaced lines,
// and label values no door should admit still leave the exposition parsable.
func TestHostileLabels(t *testing.T) {
	for _, bad := range []string{
		"# HELP a b\n# TYPE a gauge\na{worker=\"a\\x01b\"} 1\n",
		"# HELP a b\n# TYPE a gauge\na{worker=\"a\nb\"} 1\n",
		"# HELP a b\na 1\n",
		"# HELP a b\n# TYPE a gauge\nb 1\n",
		"# HELP a b\n# TYPE a gauge\na{worker=\"x\"}1\n",
	} {
		if lintExposition(bad) == nil {
			t.Errorf("lint accepted %q", bad)
		}
	}
	for _, id := range []string{"a\x01b", "line\nfeed", "\xff\xfe", `q"uote\`, "{}=,", ""} {
		hostileExposition(t, id, id, id)
	}
}

// FuzzExposition: whatever strings reach the labels, the output is the text
// format.
func FuzzExposition(f *testing.F) {
	f.Add("w-1", "sim-x86", "TSO")
	f.Add("a\x01b", "line\nfeed", `q"uote\`)
	f.Add("\xff", "{}", "=\",")
	f.Fuzz(hostileExposition)
}
