// Package mtracecheck is a post-silicon memory-consistency validation
// framework, reproducing "MTraceCheck: Validating Non-Deterministic
// Behavior of Memory Consistency Models in Post-Silicon Validation"
// (Lee & Bertacco, ISCA 2017).
//
// The pipeline follows the paper's Fig. 1:
//
//  1. Generate constrained-random multi-threaded tests (or use directed
//     litmus tests) over a small pool of shared words, every store writing
//     a unique value.
//  2. Instrument each test with observability-enhancing code that
//     accumulates a compact memory-access interleaving signature — a 1:1
//     encoding of the execution's reads-from pattern.
//  3. Execute the test for many iterations on a platform — here a simulated
//     multi-core with MESI-coherent caches, store buffers, and a
//     configurable memory consistency model — collecting one signature per
//     iteration.
//  4. Check the unique signatures collectively: sorted signatures yield
//     structurally similar constraint graphs, so each graph is validated by
//     re-sorting only the window spanned by its new backward edges.
//
// The simulated platform substitutes for the paper's x86/ARM silicon; see
// DESIGN.md for the substitution rationale and fidelity notes.
//
// Because the device side of the post-silicon flow is the unreliable half,
// the pipeline is fault-tolerant by default: corrupted signatures are
// quarantined rather than aborting the run (Options.Strict restores the
// abort-on-first-error behavior), failed execution shards are retried and
// then degraded to partial results, campaigns are cancellable via
// Campaign.Run's context, and long campaigns can checkpoint and resume
// (Options.CheckpointPath / Options.Resume). The internal/fault package
// injects deterministic device-side faults to prove all of it.
//
// # Quick start
//
//	cfg := mtracecheck.TestConfig{Threads: 4, OpsPerThread: 50, Words: 64, Seed: 1}
//	report, err := mtracecheck.Run(cfg, mtracecheck.Options{
//		Platform:   mtracecheck.PlatformX86(),
//		Iterations: 2048,
//	})
//	// report.UniqueSignatures, report.Violations, ...
package mtracecheck

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"mtracecheck/internal/check"
	"mtracecheck/internal/corpus"
	"mtracecheck/internal/fault"
	"mtracecheck/internal/instrument"
	"mtracecheck/internal/mcm"
	"mtracecheck/internal/mem"
	"mtracecheck/internal/oracle"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sig"
	"mtracecheck/internal/sim"
	"mtracecheck/internal/testgen"
)

// Re-exported configuration types: the public API is the facade plus these
// aliases, so downstream users never import internal packages.
type (
	// TestConfig parameterizes constrained-random test generation
	// (paper Table 2).
	TestConfig = testgen.Config
	// Platform describes a system-under-validation (paper Table 1).
	Platform = sim.Platform
	// Program is a generated or hand-built test program.
	Program = prog.Program
	// Signature is a memory-access interleaving signature.
	Signature = sig.Signature
	// Violation is one detected MCM violation with its cycle witness.
	Violation = check.Violation
	// Litmus is a directed test: a small program and its outcome of interest.
	Litmus = testgen.Litmus
	// FaultConfig configures deterministic device-side fault injection
	// (rates per fault kind; the zero value injects nothing).
	FaultConfig = fault.Config
	// FaultKind identifies one injected fault class.
	FaultKind = fault.Kind
	// Quarantined is one corrupted signature held out of checking.
	Quarantined = fault.Quarantined
	// QuarantineKind classifies why a signature was quarantined.
	QuarantineKind = fault.QuarantineKind
	// Unique is one unique signature with its observation count — the unit
	// of the device-to-host channel (CollectSignatures, SaveSignatures,
	// LoadSignaturesMeta, CheckSignatures).
	Unique = sig.Unique
	// Corpus is the persistent cross-campaign signature corpus: an
	// append-only store of every signature ever proven acyclic, keyed by
	// (program hash, platform, MCM). Attach one via Options.Corpus so
	// repeat interleavings skip decode+check (see internal/corpus for the
	// MTCCORP1 format).
	Corpus = corpus.Store
	// CorpusKey identifies one corpus section.
	CorpusKey = corpus.Key
)

// OpenCorpus opens (or creates, at first flush) the signature corpus at
// path. A missing file yields an empty corpus. A file that exists but
// fails to load (truncation, checksum mismatch, wrong version) also
// yields a usable empty corpus together with the load error: callers
// should warn and may still attach the store — campaigns run cold,
// never with a wrong verdict, and the unreadable original is preserved
// under a ".quarantined" suffix at the next flush.
func OpenCorpus(path string) (*Corpus, error) { return corpus.Open(path) }

// Quarantine kinds (see fault.QuarantineKind).
const (
	// QuarantineDecode marks a signature the decoder rejected.
	QuarantineDecode = fault.QuarantineDecode
	// QuarantineEdges marks a decoded signature whose reads-from relation
	// failed constraint-edge construction.
	QuarantineEdges = fault.QuarantineEdges
)

// Injected fault kinds, the keys of Report.InjectedFaults (see fault.Kind).
const (
	FaultBitFlip    = fault.KindBitFlip
	FaultTruncate   = fault.KindTruncate
	FaultDuplicate  = fault.KindDuplicate
	FaultOutOfRange = fault.KindOutOfRange
	FaultStall      = fault.KindStall
	FaultPanic      = fault.KindPanic
)

// Platform presets (paper Table 1 and §7).
var (
	// PlatformX86 models the 4-core x86-TSO desktop.
	PlatformX86 = sim.PlatformX86
	// PlatformARM models the 8-core big.LITTLE weakly-ordered SoC.
	PlatformARM = sim.PlatformARM
	// PlatformGem5 models the §7 bug-injection target.
	PlatformGem5 = sim.PlatformGem5
)

// Bug identifies one of the paper's §7 injected defects.
type Bug uint8

const (
	// BugNone selects the defect-free gem5-like platform.
	BugNone Bug = 0
	// BugSMInv is bug 1: an invalidation arriving during the S→M cache
	// transient fails to squash speculative loads (protocol issue).
	BugSMInv Bug = 1
	// BugLSQSkip is bug 2: the load queue ignores invalidations entirely
	// (LSQ issue).
	BugLSQSkip Bug = 2
	// BugWBRace is bug 3: the owner ignores forwarded requests racing its
	// writeback, deadlocking the coherence protocol.
	BugWBRace Bug = 3
)

// BuggyPlatform returns the gem5-like bug-injection platform (§7) with the
// selected defect: the row of sim.InjectedBugs keyed by the Bug's value, the
// defect's number in the paper.
func BuggyPlatform(bug Bug) Platform {
	for _, b := range sim.InjectedBugs {
		if b.Paper == int(bug) {
			return sim.PlatformGem5(b.Mem, b.Sim)
		}
	}
	return sim.PlatformGem5(mem.Bugs{}, sim.Bugs{})
}

// NewProgramBuilder starts a hand-built test program over numWords shared
// words with the default (no false sharing) layout; see prog.Builder for
// the fluent Thread/Load/Store/Fence API.
func NewProgramBuilder(name string, numWords int) *prog.Builder {
	return prog.NewBuilder(name, numWords, prog.DefaultLayout())
}

// LitmusTests returns the directed litmus library (SB, MP, LB, CoRR, WRC,
// IRIW, and fenced variants).
func LitmusTests() []Litmus { return testgen.LitmusTests() }

// PaperConfigs returns the paper's 21 test configurations (§5).
func PaperConfigs() []testgen.PaperConfig { return testgen.PaperConfigs() }

// CheckerNames lists the checking backends — the valid Options.Checker and
// -checker values — in the order of internal/check's table, whose first row
// is the default. All backends agree on verdicts, shard across Workers alike
// and differ only in effort (see DESIGN.md §13).
func CheckerNames() []string { return check.Names() }

// Options configures a validation run.
type Options struct {
	// Platform is the system to validate; zero value selects PlatformX86.
	Platform Platform
	// Iterations is the number of test runs (the paper uses 65536 on
	// silicon, 1024 under gem5); zero selects 1024, a negative count is an
	// error.
	Iterations int
	// Seed drives all randomness (platform timing and scheduling).
	Seed int64
	// Checker names the checking algorithm, one of CheckerNames; empty selects
	// the default, CheckerNames()[0]. NewCampaign refuses a name the table
	// lacks.
	Checker string
	// Pruner optionally applies static candidate pruning (§8).
	Pruner instrument.Pruner
	// KeepExecutions retains each iteration's raw execution in the report
	// (memory-heavy; for analysis tooling).
	KeepExecutions bool
	// Workers sizes the streaming pipeline: this many goroutines pull
	// fixed-size execution chunks from a shared cursor (work stealing), and
	// completed chunks stream through the incremental merge while later
	// chunks still execute; the barrier decode and the check shard
	// across the same count. 0 selects GOMAXPROCS; 1 is the serial pipeline.
	// Results are identical for every value: iteration i's seed is the i-th
	// draw of the campaign's master seed stream — handed to whichever
	// worker claims the chunk containing i — and a reorder buffer merges
	// chunks in chunk order regardless of completion order, so the chunk
	// grid (and therefore every artifact) never depends on Workers. Only
	// the checker's effort accounting (CheckStats.PerGraph /
	// SortedVertices) carries a per-shard boundary overhead: each checking
	// shard's first graph needs one full sort.
	Workers int
	// Strict restores the abort-on-first-error behavior: a signature that
	// fails to decode or build edges, or an execution shard that exhausts
	// its retries, fails the run instead of degrading (quarantine / partial
	// results). The default is graceful: on a fault-free run both modes are
	// bit-identical, since nothing is ever quarantined or lost.
	Strict bool
	// QuarantineThreshold bounds graceful degradation: when the fraction of
	// unique signatures quarantined by decode or edge-build failures
	// exceeds it, the run fails with ErrQuarantineThreshold (the signature
	// channel is considered too corrupted to trust the surviving verdicts).
	// 0 means no limit; NewCampaign refuses a value outside [0, 1] or NaN.
	QuarantineThreshold float64
	// ShardTimeout is the deadline for a single execution-shard attempt
	// (0 = none). A shard exceeding it is retried per ShardRetries.
	ShardTimeout time.Duration
	// ShardRetries is how many times a failed execution shard — a recovered
	// panic or an expired ShardTimeout — is re-run from its block start
	// with capped exponential backoff. A shard still failing after all
	// retries degrades the run to partial results recorded in
	// Report.ShardFailures (Strict: fails with ErrShardFailed). Platform
	// crashes (ErrCrash) are findings, never retried.
	ShardRetries int
	// Fault injects deterministic device-side faults (internal/fault): the
	// zero value injects nothing, and a zero-fault run is bit-identical to
	// a run without the option. Signature corruption and shard faults only:
	// NewCampaign refuses a wire kind, a dist worker's to inject.
	Fault FaultConfig
	// CheckpointPath, when set, periodically persists the campaign's progress
	// — the merged signature set, which grid chunks (ChunkSize iterations
	// each) it covers with their execution counters, and the campaign's
	// identity — so an interrupted campaign can resume, in-process or through
	// the dist server, whichever wrote the file. Writes are atomic and durable
	// (temp file, sync, rename); they stop after the first lost chunk
	// (ShardFailures), whose partial results no grid can describe.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in iterations, rounded up to
	// whole chunks; 0 selects Iterations/10. The in-process campaign and the
	// dist server both ask ChunkMerger.CheckpointDue, so they save at the same
	// frontiers, plus once when the last chunk lands. It decides when
	// checkpoints are written and nothing else: chunk bounds, reports and
	// signatures are the same for every value.
	CheckpointEvery int
	// Resume loads CheckpointPath before executing and executes only the
	// chunks it does not cover. The report — unique signatures, violations,
	// quarantine, TotalCycles, Squashes, AssertionFailures — is the
	// uninterrupted run's with the same seed. The checkpoint must fit: same
	// seed and program, and no more iterations than this campaign requests. A
	// finished campaign can be extended (more Iterations, then Resume) when
	// its length was a multiple of ChunkSize; a trailing partial chunk is
	// already merged and cannot be completed. A missing, damaged or
	// old-layout file is an error.
	Resume bool
	// Observer, when set, receives typed events from every pipeline stage —
	// execution shards, the signature merge, decode workers, checking
	// shards, and checkpoints. Observers are strictly read-only taps: any
	// observer (or combination via MultiObserver) leaves every report
	// bit-identical to an unobserved run, and nil (the default) adds zero
	// work and zero allocations to the pipeline. See the Observer docs and
	// the built-ins NewMetrics, NewProgress, and NewTraceJSON.
	Observer Observer
	// Corpus, when set, attaches a persistent cross-campaign signature
	// corpus (see OpenCorpus): unique signatures the corpus has already
	// proven acyclic for this (program, platform, MCM) skip decode and
	// checking entirely — while still counting toward UniqueSignatures and
	// the Fig. 8 growth curve — and newly verified signatures are appended
	// atomically at checkpoint boundaries and campaign end. Verdicts are
	// bit-identical to a corpus-less run: only proven-acyclic signatures
	// are ever cached, violating signatures never are, and a corpus that
	// fails to load or mismatches the campaign degrades to a cold run.
	// Requires no Pruner. One store may be shared by many campaigns
	// concurrently (the dist server does).
	Corpus *Corpus
}

// workerCount resolves Workers (0 = GOMAXPROCS).
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ShardFailure records an execution shard that exhausted its retries; the
// surrounding report then covers only the iterations that actually executed.
type ShardFailure struct {
	Start, Count int // global iteration block the shard owned
	Executed     int // block iterations completed by the final attempt
	Attempts     int
	Err          error
}

// Report is the outcome of validating one test program.
type Report struct {
	Program *Program
	// Seed and Platform record the campaign identity the report was
	// produced under — the provenance SaveSignatures persists alongside
	// the signatures.
	Seed     int64
	Platform string
	// Iterations covered by the report: executed this run plus any restored
	// from a checkpoint (ResumedIterations).
	Iterations int
	// UniqueSignatures is the number of distinct memory-access
	// interleavings observed (the paper's Fig. 8 metric), after any
	// injected device-side corruption and before quarantine.
	UniqueSignatures int
	// SignatureBytes is the execution signature size (Fig. 11).
	SignatureBytes int
	// Violations lists MCM violations found by graph checking.
	Violations []Violation
	// AssertionFailures lists iterations whose loaded values fell outside
	// the statically computed candidate sets — caught inline by the
	// instrumentation's assert chains without any graph checking.
	AssertionFailures []error
	// Quarantined lists signatures held out of checking because they failed
	// to decode or to build constraint edges — device-side corruption the
	// run tolerated instead of aborting (see Options.Strict). Use
	// QuarantineCounts for the per-kind breakdown.
	Quarantined []Quarantined
	// InjectedFaults counts deterministic injected faults per kind when
	// Options.Fault is enabled; nil otherwise.
	InjectedFaults map[FaultKind]int
	// ShardFailures records execution shards that exhausted their retries;
	// a non-empty list means the report is partial (see Partial).
	ShardFailures []ShardFailure
	// ResumedIterations counts iterations restored from a checkpoint rather
	// than executed in this run.
	ResumedIterations int
	// CheckStats carries the checker's effort accounting (Figs. 9 and 14);
	// CheckEffort renders it.
	CheckStats *check.Result
	// CorpusConsulted reports whether a signature corpus was consulted
	// (Options.Corpus set and usable for this campaign's key).
	CorpusConsulted bool
	// CorpusHits counts unique signatures that skipped decode and checking
	// because the corpus had already proven them acyclic; they still count
	// in UniqueSignatures.
	CorpusHits int
	// CorpusAppended counts newly proven-acyclic signatures this campaign
	// added to the corpus.
	CorpusAppended int
	// CorpusIgnored is non-nil when an attached corpus was refused (load
	// failure, signature-width mismatch) and the campaign ran cold.
	CorpusIgnored error
	// TotalCycles sums simulated execution time over all iterations the
	// report covers, resumed ones included.
	TotalCycles int64
	// Squashes counts load-queue squash/replay events across iterations.
	Squashes int
	// Executions holds raw executions when Options.KeepExecutions is set.
	Executions []*sim.Execution

	signatures []Unique       // see Signatures
	backend    *check.Backend // the table row that filled CheckStats
}

// CheckEffort renders CheckStats as the one line the backend that filled it
// has to say about its effort — each fills different counters — or "" when
// nothing was checked.
func (r *Report) CheckEffort() string {
	if r.backend == nil {
		return ""
	}
	return r.backend.Effort(r.CheckStats)
}

// Signatures returns the sorted unique signature set the campaign ended
// with — after any injected device-side corruption, before quarantine; what
// Collect returns and SaveSignatures persists. Nil for a check-only report
// (the caller already holds the set) and for a campaign that crashed.
func (r *Report) Signatures() []Unique { return r.signatures }

// Failed reports whether any violation or assertion failure was found.
func (r *Report) Failed() bool {
	return len(r.Violations) > 0 || len(r.AssertionFailures) > 0
}

// Partial reports whether any execution shard was lost after retries, i.e.
// the report covers only part of the requested iteration sequence.
func (r *Report) Partial() bool { return len(r.ShardFailures) > 0 }

// QuarantineCounts tallies quarantined signatures per kind; nil when the
// quarantine is empty.
func (r *Report) QuarantineCounts() map[QuarantineKind]int {
	return fault.CountByKind(r.Quarantined)
}

// ErrCrash wraps a platform crash (protocol deadlock or livelock), the
// manifestation of the paper's bug 3.
var ErrCrash = errors.New("mtracecheck: platform crashed during test execution")

// ErrQuarantineThreshold reports that the quarantined fraction of unique
// signatures exceeded Options.QuarantineThreshold.
var ErrQuarantineThreshold = errors.New("mtracecheck: quarantined signatures exceed threshold")

// ErrShardFailed wraps an execution shard failure (recovered panic or
// expired shard deadline) that survived every retry.
var ErrShardFailed = errors.New("mtracecheck: execution shard failed")

// errShardPanic marks a recovered per-shard panic; it is retryable and, if
// retries are exhausted, surfaces wrapped in ErrShardFailed.
var errShardPanic = errors.New("mtracecheck: shard panicked")

// Run generates a constrained-random test program from cfg and drives the
// full validation pipeline over it; see RunProgram.
func Run(cfg TestConfig, opts Options) (*Report, error) {
	p, err := testgen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return RunProgram(p, opts)
}

// RunProgram drives the full pipeline — sharded execution, signature merge,
// decode, collective checking — over an existing program (e.g. a litmus
// test or a hand-built scenario). Like every convenience here it is
// NewCampaign + one Campaign method under context.Background(); callers
// that need cancellation build the Campaign themselves and pass a context.
//
// The three hot stages are sharded across Options.Workers goroutines; see
// Options.Workers for the determinism contract (results are identical for
// every worker count).
func RunProgram(p *Program, opts Options) (*Report, error) {
	c, err := NewCampaign(p, opts)
	if err != nil {
		return nil, err
	}
	return c.Run(context.Background())
}

// LitmusResult is a litmus test's run judged against what the platform's
// model allows, as internal/oracle computes it from the model definitions.
// An outcome is the values every load of one iteration returned.
type LitmusResult struct {
	// Forbidden is the oracle's label: no execution the model allows has the
	// test's interesting outcome.
	Forbidden bool
	// Observed counts the iterations with the interesting outcome.
	Observed int
	// Reached and NeverReached split the allowed outcomes into those some
	// iteration produced and those none did.
	Reached, NeverReached int
	// Outside counts the distinct observed outcomes the model forbids; any
	// fails the run.
	Outside int
	// Verdict is "ok", "GRAPH VIOLATION" when graph checking found a cycle,
	// or else "FORBIDDEN OUTCOME OBSERVED" when Outside is non-zero.
	Verdict string
	// Failed is Verdict != "ok".
	Failed bool
	// Report is the campaign's; its Violations are the graph violations.
	Report *Report
}

// RunLitmus executes a litmus test and judges every iteration's outcome
// against the executions the platform's model allows on a multi-copy atomic
// machine (internal/oracle). A forbidden outcome that is observed also
// surfaces as a graph-check violation unless the checker misses it.
func RunLitmus(l Litmus, opts Options) (*LitmusResult, error) {
	opts = withDefaults(opts)
	allowed, err := oracle.Allowed(l.Prog, opts.Platform.Model.String())
	if err != nil {
		return nil, err
	}
	res := &LitmusResult{Forbidden: true, Verdict: "ok"}
	reached := map[string]bool{}
	for _, e := range allowed {
		reached[fmt.Sprint(e.Values)] = false
		res.Forbidden = res.Forbidden && !l.Interesting.MatchesValues(e.Values)
	}
	// Outcome counting needs the raw executions even when the caller does
	// not: force retention for the run, then honor the caller's flag.
	keep := opts.KeepExecutions
	opts.KeepExecutions = true
	c, err := NewCampaign(l.Prog, opts)
	if err != nil {
		return nil, err
	}
	if res.Report, err = c.Run(context.Background()); err != nil {
		return nil, err
	}
	outside := map[string]bool{}
	for _, ex := range res.Report.Executions {
		if l.Interesting.MatchesValues(ex.LoadValues) {
			res.Observed++
		}
		k := fmt.Sprint(ex.LoadValues)
		switch seen, ok := reached[k]; {
		case !ok:
			outside[k] = true
		case !seen:
			reached[k] = true
			res.Reached++
		}
	}
	if !keep {
		res.Report.Executions = nil
	}
	res.NeverReached, res.Outside = len(reached)-res.Reached, len(outside)
	switch {
	case res.Report.Failed():
		res.Verdict = "GRAPH VIOLATION"
	case res.Outside > 0:
		res.Verdict = "FORBIDDEN OUTCOME OBSERVED"
	}
	res.Failed = res.Verdict != "ok"
	return res, nil
}

func withDefaults(opts Options) Options {
	if opts.Platform.Cores == 0 {
		opts.Platform = PlatformX86()
	}
	if opts.Iterations == 0 {
		opts.Iterations = 1024
	}
	return opts
}

// ModelName returns the platform's memory consistency model name; a small
// convenience for report rendering without importing internal packages.
func ModelName(p Platform) string { return p.Model.String() }

// Models lists the supported memory consistency models' names, strongest
// first.
func Models() []string {
	out := make([]string, len(mcm.Models))
	for i, m := range mcm.Models {
		out[i] = m.String()
	}
	return out
}

// SaveSignatures writes unique signatures (with observation counts) in the
// compact binary device-to-host format. The report's program, seed and
// platform name are recorded as provenance in a versioned header that
// LoadSignaturesMeta returns and ValidateSignatureMeta checks, catching the
// wrong-program/wrong-seed mistake before any host-side checking; a report
// without a program is an error.
func SaveSignatures(w io.Writer, report *Report, uniques []Unique) error {
	if report == nil || report.Program == nil {
		return errors.New("mtracecheck: SaveSignatures needs the report of the campaign that collected the signatures")
	}
	return sig.WriteSetMeta(w, sig.FileMeta{
		ProgHash: progHash(report.Program),
		Seed:     report.Seed,
		Platform: report.Platform,
	}, uniques)
}

// CollectSignatures runs only the execution stage: the program is executed
// for the configured iterations and the sorted unique signatures are
// returned without any checking. This is the "device side" of the paper's
// flow (NewCampaign + Campaign.Collect); pair it with CheckSignatures on the
// host. Execution shards across Options.Workers exactly as RunProgram does,
// so both sides of the split observe the same signatures for the same
// (Seed, Iterations); fault injection, checkpointing, shard retry, and the
// observer apply identically.
func CollectSignatures(p *Program, opts Options) ([]Unique, error) {
	c, err := NewCampaign(p, opts)
	if err != nil {
		return nil, err
	}
	return c.Collect(context.Background())
}

// CheckSignatures is the "host side": it decodes previously collected
// unique signatures (e.g. loaded via LoadSignaturesMeta) and checks them under
// the campaign options — checker selection, Workers,
// Strict/QuarantineThreshold, and Options.Observer all apply, exactly as in
// the full pipeline (NewCampaign + Campaign.Check). The static
// write-serialization mode is required (and is the default): stored
// signatures carry nothing beyond themselves. The returned report covers
// the host-side stages only — UniqueSignatures, Quarantined, CheckStats,
// Violations; its execution counters are zero.
func CheckSignatures(p *Program, uniques []Unique, opts Options) (*Report, error) {
	c, err := NewCampaign(p, opts)
	if err != nil {
		return nil, err
	}
	return c.Check(context.Background(), uniques)
}

// LoadSignaturesMeta reads a signature set written by SaveSignatures along
// with its provenance header; a set without one is refused. Pass the meta to
// ValidateSignatureMeta before checking.
func LoadSignaturesMeta(r io.Reader) ([]Unique, *SignatureMeta, error) {
	return sig.ReadSetMeta(r)
}

// ValidateSignatureMeta checks a loaded signature set's provenance against
// the campaign about to check it: the program fingerprint must match, and
// seed and platform name must agree when the caller supplies them. A nil meta
// is an error: a set of unknown provenance is not believed.
func ValidateSignatureMeta(meta *SignatureMeta, p *Program, opts Options) error {
	if meta == nil {
		return errors.New("mtracecheck: signature set has no provenance header to validate")
	}
	opts = withDefaults(opts)
	if h := progHash(p); meta.ProgHash != h {
		return fmt.Errorf("mtracecheck: signature set was collected from a different test program (hash %#x, expected %#x)", meta.ProgHash, h)
	}
	if meta.Seed != opts.Seed {
		return fmt.Errorf("mtracecheck: signature set was collected with seed %d, not %d", meta.Seed, opts.Seed)
	}
	if meta.Platform != "" && meta.Platform != opts.Platform.Name {
		return fmt.Errorf("mtracecheck: signature set was collected on %q, not %q", meta.Platform, opts.Platform.Name)
	}
	return nil
}

// WriteViolationDOT renders the constraint graph of one reported violation
// in Graphviz DOT format, with the offending cycle highlighted (a Fig. 2 /
// Fig. 13-style illustration). The graph is rebuilt from the violation's
// signature using the same options the report was produced with.
func WriteViolationDOT(w io.Writer, report *Report, v Violation, opts Options) error {
	c, err := NewCampaign(report.Program, opts)
	if err != nil {
		return err
	}
	builder := c.newBuilder()
	rf := make([]int32, builder.NumOps())
	if err := c.meta.DecodeInto(v.Sig, rf); err != nil {
		return err
	}
	edges, err := builder.AppendDynamicEdges(nil, rf, nil)
	if err != nil {
		return err
	}
	return builder.FromDynamic(edges).WriteDOT(w, report.Program, v.Cycle)
}

// NewProgramBuilderFromConfig generates a constrained-random program from a
// test configuration — a convenience for the device/host split, where both
// sides must reconstruct the identical program from the shared config.
func NewProgramBuilderFromConfig(cfg TestConfig) (*Program, error) {
	return testgen.Generate(cfg)
}
