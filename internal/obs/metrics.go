package obs

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// group names the part of the system that feeds a series. A group's series
// are written once the group has counted something, so an in-process
// campaign's exposition carries no dist series and a campaign without a
// corpus no corpus ones; core is always written.
type group uint8

const (
	core group = iota
	dist
	corpus
	nGroups
)

// attr is a series' properties; zero is an invariant integer counter with one
// sample. Invariant means bit-identical for every Workers value on one
// campaign configuration, fault injection included, because the series
// aggregates only what the pipeline's determinism contract fixes; effort is
// how the work was partitioned or how long it took (shard attempts, boundary
// re-sorts, wall time, the fleet's behaviour) and legitimately varies.
type attr uint8

const (
	gauge    attr = 1 << iota // TYPE gauge, not counter
	effort                    // not invariant
	labelled                  // one sample per label set, created by the first event carrying it
	seconds                   // counted in nanoseconds, written in seconds
	ratio                     // written as v/of, 0 for an empty denominator
)

// series is one row of the table.
type series struct {
	name  string // exposition name, constant labels included
	help  string // the family's HELP text, on the family's first row
	group group
	attr  attr
}

// table is every series in exposition order, written by the var block below
// only: a new series is one row there (and nSeries + 1, or row panics as the
// package initialises) and one add in an event's handler.
const nSeries = 49

var (
	table [nSeries]series
	nRows int
)

func row(g group, a attr, name, help string) int {
	table[nRows] = series{name, help, g, a}
	nRows++
	return nRows - 1
}

var (
	sCampaigns      = row(core, 0, "mtracecheck_campaigns_total", "Validation campaigns observed.")
	sIterations     = row(core, 0, "mtracecheck_iterations_total", "Test iterations executed (final attempts only).")
	sCycles         = row(core, 0, "mtracecheck_cycles_total", "Simulated cycles over executed iterations.")
	sSquashes       = row(core, 0, "mtracecheck_squashes_total", "Load-queue squash/replay events.")
	sAsserts        = row(core, 0, "mtracecheck_assertion_failures_total", "Instrumentation assertion failures.")
	sUniques        = row(core, gauge, "mtracecheck_unique_signatures", "Unique interleavings in the last campaign's merged set (Fig. 8).")
	sFaultBitFlip   = row(core, 0, `mtracecheck_injected_faults_total{kind="bit-flip"}`, "Deterministic device-side faults injected, by kind.")
	sFaultTruncate  = row(core, 0, `mtracecheck_injected_faults_total{kind="truncate"}`, "")
	sFaultDuplicate = row(core, 0, `mtracecheck_injected_faults_total{kind="duplicate"}`, "")
	sFaultOOR       = row(core, 0, `mtracecheck_injected_faults_total{kind="out-of-range"}`, "")
	sDecoded        = row(core, 0, "mtracecheck_decoded_signatures_total", "Unique signatures decoded into checkable items.")
	sQuarDecode     = row(core, 0, `mtracecheck_quarantined_total{kind="decode"}`, "Corrupted signatures held out of checking, by kind.")
	sGraphs         = row(core, 0, "mtracecheck_graphs_checked_total", "Constraint graphs checked.")
	sViolations     = row(core, 0, "mtracecheck_violations_total", "MCM violations found by graph checking.")
	sCkptSaves      = row(core, 0, "mtracecheck_checkpoint_saves_total", "Campaign checkpoints written.")
	sCkptBytes      = row(core, 0, "mtracecheck_checkpoint_bytes_total", "Bytes of checkpoint payload written.")
	sCkptResumes    = row(core, 0, "mtracecheck_checkpoint_resumes_total", "Campaigns resumed from a checkpoint.")
	sResumedIters   = row(core, 0, "mtracecheck_resumed_iterations_total", "Iterations restored from checkpoints instead of executed.")

	// Corpus hits partition the determinism-fixed unique set against the
	// corpus content at the sort barrier, so they are invariant.
	sCorpusHits    = row(corpus, 0, "mtracecheck_corpus_hits_total", "Unique signatures that skipped decode+check as corpus hits.")
	sCorpusMisses  = row(corpus, 0, "mtracecheck_corpus_misses_total", "Unique signatures absent from the corpus, decoded and checked cold.")
	sCorpusAppends = row(corpus, 0, "mtracecheck_corpus_appends_total", "Newly proven-acyclic signatures appended to the corpus.")
	sCorpusIgnored = row(corpus, 0, "mtracecheck_corpus_ignored_total", "Campaigns that refused an attached corpus and ran cold.")

	sShardAttempts  = row(core, effort, "mtracecheck_shard_attempts_total", "Execution shard attempts, including retries.")
	sShardRetries   = row(core, effort, "mtracecheck_shard_retries_total", "Execution shard attempts that failed and were retried.")
	sRetriedIters   = row(core, effort, "mtracecheck_retried_iterations_total", "Iterations executed by attempts later discarded by a retry.")
	sSortedVertices = row(core, effort, "mtracecheck_sorted_vertices_total", "Vertices visited by topological (re)sorts (Fig. 9 effort).")
	sBackwardEdges  = row(core, effort, "mtracecheck_backward_edges_total", "Backward edges found against the maintained orders.")
	sClockUpdates   = row(core, effort, "mtracecheck_clock_updates_total", "Vector-clock joins that changed a clock (vectorclock backend effort).")
	sPropagations   = row(core, effort, "mtracecheck_propagations_total", "Constraint-solver domain-bound tightenings (constraints backend effort).")
	sCheckShards    = row(core, effort, "mtracecheck_check_shards_total", "Checking shard completions (one per checking worker, at most one per graph).")
	sComplete       = row(core, effort, `mtracecheck_graphs_by_kind_total{kind="complete"}`, "Graphs validated per collective-checking kind (Fig. 14).")
	sNoResort       = row(core, effort, `mtracecheck_graphs_by_kind_total{kind="no-resort"}`, "")
	sIncremental    = row(core, effort, `mtracecheck_graphs_by_kind_total{kind="incremental"}`, "")
	sMaxWindow      = row(core, effort|gauge, "mtracecheck_max_resort_window", "Largest re-sorted vertex window.")
	sExecuteTime    = row(core, effort|seconds, `mtracecheck_stage_seconds_total{stage="execute"}`, "Wall time summed over shard attempts, by stage.")
	sDecodeTime     = row(core, effort|seconds, `mtracecheck_stage_seconds_total{stage="decode"}`, "")
	sCheckTime      = row(core, effort|seconds, `mtracecheck_stage_seconds_total{stage="check"}`, "")

	sWorkerJoins       = row(dist, effort, "mtracecheck_dist_worker_joins_total", "Workers that joined the dist server.")
	sWorkersLost       = row(dist, effort, "mtracecheck_dist_workers_lost_total", "Worker lease deadlines missed (crash, hang, or partition).")
	sWorkersQuar       = row(dist, effort, "mtracecheck_dist_workers_quarantined_total", "Workers quarantined for repeated upload-validation failures.")
	sLeasesGranted     = row(dist, effort, "mtracecheck_dist_leases_granted_total", "Chunk leases granted to workers.")
	sLeasesExpired     = row(dist, effort, "mtracecheck_dist_leases_expired_total", "Chunk leases that expired without a completed upload.")
	sRedispatched      = row(dist, effort, "mtracecheck_dist_chunks_redispatched_total", "Chunks granted again after a lost lease or quarantined worker.")
	sDuplicates        = row(dist, effort, "mtracecheck_dist_duplicate_completions_total", "Uploads for already-completed chunks, deduplicated by chunk ID.")
	sUploadRejects     = row(dist, effort, "mtracecheck_dist_upload_rejects_total", "Chunk uploads that failed server-side validation.")
	sWorkerStrikes     = row(dist, effort|gauge|labelled, "mtracecheck_dist_worker_strikes", "Upload-validation failures per worker.")
	sWorkerQuarantined = row(dist, effort|gauge|labelled, "mtracecheck_dist_worker_quarantined", "Whether the worker is quarantined (1) or trusted (0).")

	sCorpusKnown      = row(corpus, gauge|labelled, "mtracecheck_corpus_known_signatures", "Known-good signatures in the corpus per (program, platform, MCM).")
	sCorpusSaturation = row(corpus, gauge|labelled|ratio, "mtracecheck_corpus_saturation", "Warm fraction of observed uniques per (program, platform, MCM): hits/(hits+misses).")
)

// Metrics folds pipeline events into the table's series. All event methods
// are safe for concurrent use and allocation-free except for growth-curve
// appends (one per merge, never per iteration) and a label set's first event.
type Metrics struct {
	vals [nSeries]atomic.Int64 // by table row; a labelled row's cell is unused

	mu       sync.Mutex
	curve    []CurvePoint
	labelled []*sample // the labelled rows' samples, by row then key
}

// sample is one exposition line: a row's value or, guarded by Metrics.mu,
// that of one label set of a labelled row.
type sample struct {
	row   int
	key   string // orders a labelled row's samples: the worker ID, the corpus key
	name  string // exposition name, labels included
	v, of int64  // of: a ratio series' denominator
}

// value is what the exposition prints.
func (s sample) value() float64 {
	switch a := table[s.row].attr; {
	case a&seconds != 0:
		return float64(s.v) / 1e9
	case a&ratio == 0:
		return float64(s.v)
	case s.of == 0:
		return 0
	}
	return float64(s.v) / float64(s.of)
}

// NewMetrics returns an empty aggregator.
func NewMetrics() *Metrics { return &Metrics{} }

func (m *Metrics) add(row int, n int64) { m.vals[row].Add(n) }
func (m *Metrics) get(row int) int64    { return m.vals[row].Load() }

// labelEscaper escapes a label value as the text exposition format asks:
// backslash, double quote and line feed, nothing else (Go's %q is not that).
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// sample returns the labelled row's sample for key, created on first use.
// It is the one label writer: the name is family{k="v",...} from alternating
// label names and values, the values escaped and made valid UTF-8. Callers
// hold m.mu.
func (m *Metrics) sample(row int, key string, labels ...string) *sample {
	i, ok := slices.BinarySearchFunc(m.labelled, key, func(s *sample, key string) int {
		return cmp.Or(cmp.Compare(s.row, row), strings.Compare(s.key, key))
	})
	if ok {
		return m.labelled[i]
	}
	var b strings.Builder
	b.WriteString(table[row].name)
	for j, sep := 0, "{"; j+1 < len(labels); j, sep = j+2, "," {
		b.WriteString(sep + labels[j] + `="`)
		labelEscaper.WriteString(&b, strings.ToValidUTF8(labels[j+1], "\uFFFD"))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	m.labelled = slices.Insert(m.labelled, i, &sample{row: row, key: key, name: b.String()})
	return m.labelled[i]
}

// CurvePoint is one sample of the unique-interleaving growth curve (the
// paper's Fig. 8 metric over campaign time), taken at each merge boundary.
type CurvePoint struct{ Iterations, Uniques int }

// CampaignStart and ShardStart implement Observer.
func (m *Metrics) CampaignStart(e CampaignStart) { m.add(sCampaigns, 1) }
func (m *Metrics) ShardStart(e ShardStart)       {}

// ShardEnd implements Observer. It is the one place that decides which
// attempts count toward a total.
func (m *Metrics) ShardEnd(e ShardEnd) {
	switch e.Stage {
	case StageExecute:
		m.add(sExecuteTime, int64(e.Duration))
		m.add(sShardAttempts, 1)
		if e.WillRetry {
			// Discarded progress: effort, not results. Totals only ever see
			// the final attempt, which is what the report covers — the basis
			// of the worker-invariance guarantee under fault injection.
			m.add(sShardRetries, 1)
			m.add(sRetriedIters, int64(e.Iterations))
			return
		}
		m.add(sIterations, int64(e.Iterations))
		m.add(sCycles, e.Cycles)
		m.add(sSquashes, int64(e.Squashes))
		m.add(sAsserts, int64(e.Asserts))
	case StageDecode:
		m.add(sDecodeTime, int64(e.Duration))
		m.add(sDecoded, int64(e.Decoded))
		m.add(sQuarDecode, int64(e.QuarantinedDecode))
	case StageCheck:
		m.add(sCheckTime, int64(e.Duration))
		m.add(sGraphs, int64(e.Graphs))
		m.add(sViolations, int64(e.Violations))
		m.add(sSortedVertices, e.SortedVertices)
		m.add(sBackwardEdges, e.BackwardEdges)
		m.add(sClockUpdates, e.ClockUpdates)
		m.add(sPropagations, e.Propagations)
		m.add(sCheckShards, 1)
		m.add(sComplete, int64(e.Complete))
		m.add(sNoResort, int64(e.NoResort))
		m.add(sIncremental, int64(e.Incremental))
		storeMax(&m.vals[sMaxWindow], int64(e.MaxWindow))
	}
}

func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// MergeDone implements Observer.
func (m *Metrics) MergeDone(e MergeDone) {
	m.mu.Lock()
	m.curve = append(m.curve, CurvePoint{Iterations: e.Completed, Uniques: e.Uniques})
	m.mu.Unlock()
	if e.Final {
		m.vals[sUniques].Store(int64(e.Uniques))
		m.add(sFaultBitFlip, int64(e.Injected.BitFlip))
		m.add(sFaultTruncate, int64(e.Injected.Truncate))
		m.add(sFaultDuplicate, int64(e.Injected.Duplicate))
		m.add(sFaultOOR, int64(e.Injected.OutOfRange))
	}
}

// Checkpoint implements Observer.
func (m *Metrics) Checkpoint(e Checkpoint) {
	switch e.Op {
	case CheckpointSaved:
		m.add(sCkptSaves, 1)
		m.add(sCkptBytes, e.Bytes)
	case CheckpointResumed:
		m.add(sCkptResumes, 1)
		m.add(sResumedIters, int64(e.Completed))
	}
}

// CampaignEnd implements Observer: it folds the campaign's corpus use, and
// touches the corpus group only when a corpus was consulted or refused. Per
// key: the known-good count at the campaign's end, and how saturated the
// corpus is for this (program, platform, MCM) — hits over hits+misses, the
// warm fraction.
func (m *Metrics) CampaignEnd(e CampaignEnd) {
	if e.CorpusIgnored != nil {
		m.add(sCorpusIgnored, 1)
	}
	if !e.CorpusConsulted {
		return
	}
	m.add(sCorpusHits, int64(e.CorpusHits))
	m.add(sCorpusMisses, int64(e.CorpusMisses))
	m.add(sCorpusAppends, int64(e.CorpusAppended))
	program := fmt.Sprintf("%016x", e.CorpusProgram)
	key := program + "/" + e.CorpusPlatform + "/" + e.CorpusMCM
	labels := []string{"program", program, "platform", e.CorpusPlatform, "mcm", e.CorpusMCM}
	m.mu.Lock()
	m.sample(sCorpusKnown, key, labels...).v = int64(e.CorpusKnown)
	saturation := m.sample(sCorpusSaturation, key, labels...)
	saturation.v += int64(e.CorpusHits)
	saturation.of += int64(e.CorpusHits) + int64(e.CorpusMisses)
	m.mu.Unlock()
}

// worker returns the per-worker samples: upload-validation strikes and the
// quarantine flag. Callers hold m.mu.
func (m *Metrics) worker(id string) (strikes, quarantined *sample) {
	return m.sample(sWorkerStrikes, id, "worker", id), m.sample(sWorkerQuarantined, id, "worker", id)
}

// WorkerEvent implements DistObserver.
func (m *Metrics) WorkerEvent(e WorkerEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	strikes, quarantined := m.worker(e.Worker)
	strikes.v = int64(e.Strikes)
	switch e.Op {
	case WorkerJoin:
		m.add(sWorkerJoins, 1)
	case WorkerLost:
		m.add(sWorkersLost, 1)
	case WorkerQuarantined:
		m.add(sWorkersQuar, 1)
		quarantined.v = 1
	}
}

// LeaseEvent implements DistObserver.
func (m *Metrics) LeaseEvent(e LeaseEvent) {
	switch e.Op {
	case LeaseGranted:
		m.add(sLeasesGranted, 1)
	case LeaseExpired:
		m.add(sLeasesExpired, 1)
	case ChunkRedispatched:
		m.add(sRedispatched, 1)
	case ChunkDuplicate:
		m.add(sDuplicates, 1)
	case UploadRejected:
		m.add(sUploadRejects, 1)
		m.mu.Lock()
		strikes, _ := m.worker(e.Worker)
		strikes.v++
		m.mu.Unlock()
	}
}

// Snapshot is a copy of the aggregated metrics.
type Snapshot struct {
	// Series is every series the exposition carries, by exposition name with
	// its labels, at the value the exposition prints.
	Series map[string]float64
	// Curve is the growth curve, one point per merge.
	Curve []CurvePoint

	samples   []sample // in exposition order
	invariant map[string]float64
}

// Invariant returns the series the determinism contract fixes: equal for
// every Workers value on the same campaign configuration.
func (s Snapshot) Invariant() map[string]float64 { return s.invariant }

// Snapshot returns a copy of the current aggregates: the samples of every
// group that has counted something, in the table's order. It is safe to call
// concurrently with event delivery; call it after the campaign returns for
// totals covering the whole run.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	live := [nGroups]bool{core: true}
	for i := range table {
		live[table[i].group] = live[table[i].group] || m.get(i) != 0
	}
	for _, p := range m.labelled {
		live[table[p.row].group] = true
	}
	s := Snapshot{Series: map[string]float64{}, invariant: map[string]float64{}, Curve: append([]CurvePoint(nil), m.curve...)}
	next := m.labelled
	for i := range table {
		switch {
		case !live[table[i].group]:
		case table[i].attr&labelled == 0:
			s.samples = append(s.samples, sample{row: i, name: table[i].name, v: m.get(i)})
		default:
			for ; len(next) > 0 && next[0].row == i; next = next[1:] {
				s.samples = append(s.samples, *next[0])
			}
		}
	}
	for _, p := range s.samples {
		s.Series[p.name] = p.value()
		if table[p.row].attr&effort == 0 {
			s.invariant[p.name] = s.Series[p.name]
		}
	}
	return s
}

// WritePrometheus writes the snapshot in the Prometheus text exposition format
// (version 0.0.4), in the table's order so successive snapshots diff cleanly.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	family := ""
	for _, p := range m.Snapshot().samples {
		r := table[p.row]
		if fam, _, _ := strings.Cut(r.name, "{"); fam != family {
			family = fam
			kind := "counter"
			if r.attr&gauge != 0 {
				kind = "gauge"
			}
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", fam, r.help, fam, kind)
		}
		if r.attr&(seconds|ratio) != 0 {
			fmt.Fprintf(bw, "%s %.6f\n", p.name, p.value())
		} else {
			fmt.Fprintf(bw, "%s %d\n", p.name, p.v)
		}
	}
	return bw.Flush()
}
