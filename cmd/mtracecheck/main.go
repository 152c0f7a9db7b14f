// Command mtracecheck runs the full MTraceCheck validation pipeline on one
// constrained-random test configuration: generate, instrument, execute for
// many iterations on the simulated platform, and check the collected
// signatures collectively.
//
// Usage:
//
//	mtracecheck -isa ARM -threads 4 -ops 100 -words 64 -iters 2048
//	mtracecheck -isa x86 -threads 4 -ops 50 -words 8 -wpl 4 -bug sm-inv
//	mtracecheck -threads 4 -ops 50 -sigs-out sigs.bin      # device side
//	mtracecheck -threads 4 -ops 50 -sigs-in sigs.bin       # host side
//	mtracecheck -iters 65536 -checkpoint run.ckpt          # checkpointed
//	mtracecheck -iters 65536 -checkpoint run.ckpt -resume  # ...resumed
//	mtracecheck -iters 65536 -listen :7077                 # distributed
//	mtracecheck -trace obs.trace -mcm tso                  # external trace
//
// The campaign flags bind onto one dist.JobSpec and dist.Build resolves it —
// the description and the resolution a server and every worker use — so what
// this command runs and what a fleet runs cannot drift. -listen decides only
// where the chunks execute: the spec is submitted to an embedded dist server,
// mtracecheck-worker processes that connect to the address execute it, and
// everything from the merge on (report, -sigs-out, -dot, exit code) is the
// in-process run's, byte for byte.
//
// The -trace mode checks an externally observed execution — an Axe-style
// text trace of per-thread memory requests/responses — against the model
// named by -mcm (sc, tso, pso, rmo), without invoking the simulator at all;
// -checker, -workers, the observability flags, and the exit-code contract
// apply as in a campaign.
//
// The -bug flag injects one of the paper's §7 defects (sm-inv, lsq-skip,
// wb-race) into the platform, switching to the gem5-like preset. The -fault
// flag injects deterministic device-side signature corruption and shard
// faults, a fault plan in internal/fault's text form ("bit-flip=0.01,seed=3";
// the seed defaults to 1), to exercise the quarantine and retry machinery.
//
// Exit codes distinguish findings from infrastructure trouble; see -h.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mtracecheck"
	"mtracecheck/internal/dist"
	"mtracecheck/internal/fault"
	"mtracecheck/internal/obs"
	"mtracecheck/internal/prog"
	"mtracecheck/internal/sim"
)

// Exit codes: scripts driving validation campaigns need to tell "the
// platform is broken" (a finding — the whole point of the tool) from "the
// pipeline is broken" (infra) from "the signature channel is too corrupted
// to trust" (quarantine overflow).
const (
	exitPass       = 0
	exitFinding    = 1 // MCM violation, assertion failure, or platform crash
	exitInfra      = 2 // configuration, I/O, or pipeline error
	exitQuarantine = 3 // quarantined fraction exceeded -max-quarantine
)

func main() { os.Exit(run()) }

func run() int {
	// The campaign description: every flag here is a JobSpec field.
	spec := dist.JobSpec{Test: &mtracecheck.TestConfig{}}
	flag.StringVar(&spec.ISA, "isa", "x86", "platform flavor: x86 (TSO) or ARM (weak)")
	flag.IntVar(&spec.Test.Threads, "threads", 4, "test threads")
	flag.IntVar(&spec.Test.OpsPerThread, "ops", 50, "memory operations per thread")
	flag.IntVar(&spec.Test.Words, "words", 64, "distinct shared words")
	flag.IntVar(&spec.Test.WordsPerLine, "wpl", 1, "shared words per cache line (false sharing)")
	flag.Float64Var(&spec.Test.LoadRatio, "loads", 0.5, "load fraction (rest are stores)")
	flag.Float64Var(&spec.Test.FenceProb, "fences", 0, "fence insertion probability")
	flag.IntVar(&spec.Iterations, "iters", 2048, "test iterations (0 = the library default, 1024)")
	flag.Int64Var(&spec.Seed, "seed", 1, "random seed, for test generation and for execution")
	flag.IntVar(&spec.Workers, "workers", 0, "streaming pipeline workers: work-stealing execution chunks with overlapped merge; with -listen, the decode/check stage only (0 = GOMAXPROCS; results are identical for any value)")
	flag.BoolVar(&spec.OS, "os", false, "run under simulated OS scheduling")
	flag.StringVar(&spec.Checker, "checker", mtracecheck.CheckerNames()[0],
		"checker backend: "+strings.Join(mtracecheck.CheckerNames(), ", "))
	bugs := make([]string, len(sim.InjectedBugs))
	for i, b := range sim.InjectedBugs {
		bugs[i] = b.Name
	}
	flag.StringVar(&spec.Bug, "bug", "", "inject a bug: "+strings.Join(bugs, ", "))
	flag.BoolVar(&spec.Strict, "strict", false, "abort on the first corrupted signature or lost shard instead of degrading")
	flag.Float64Var(&spec.QuarantineThreshold, "max-quarantine", 0, "fail (exit 3) when more than this fraction of unique signatures is quarantined (0 = no limit)")
	flag.DurationVar(&spec.ShardTimeout, "shard-timeout", 0, "deadline per execution-shard attempt (0 = none)")
	flag.IntVar(&spec.ShardRetries, "shard-retries", 2, "retries per failed execution shard before degrading to partial results")
	flag.StringVar(&spec.CheckpointPath, "checkpoint", "", "periodically persist campaign progress to this file")
	flag.IntVar(&spec.CheckpointEvery, "checkpoint-every", 0, "checkpoint cadence in iterations, rounded up to whole 64-iteration chunks (0 = iters/10)")
	flag.BoolVar(&spec.Resume, "resume", false, "resume the campaign from -checkpoint, executing only the chunks it does not cover (with -listen, a checkpoint that does not exist yet is a fresh start)")
	flag.TextVar(&spec.Fault, "fault", fault.Config{Seed: 1}, "inject deterministic faults by the `spec`: comma-separated key=value pairs, a kind's rate in [0, 1] ("+
		(fault.Corruption|fault.Execution).String()+"), seed=N (the fault stream, independent of -seed) and hold=DURATION (how long a stall blocks), e.g. bit-flip=0.01,panic=0.5")
	var (
		progIn   = flag.String("prog", "", "run this saved test program instead of generating one")
		progOut  = flag.String("dump-prog", "", "write the test program (text format) to this file")
		listen   = flag.String("listen", "", "distribute the campaign: serve its chunks to mtracecheck-worker processes on this HTTP address (use :0 for an ephemeral port) instead of executing them here")
		addrFile = flag.String("addr-file", "", "with -listen: write the bound address to this file once listening (for :0 discovery)")
		leaseTTL = flag.Duration("lease-ttl", 0, "with -listen: chunk lease duration before expiry and redispatch (0 = 10s)")
		corpusIn = flag.String("corpus", "", "consult and grow this persistent signature corpus: known-good uniques skip decode+check, newly verified ones are appended (verdicts identical to a cold run)")

		sigsIn  = flag.String("sigs-in", "", "check-only mode: skip execution and check the signatures in this file (pair with -prog or the same generation flags/seed)")
		traceIn = flag.String("trace", "", "check this external execution trace (Axe-style text format) against -mcm instead of running the simulator")
		mcmName = flag.String("mcm", "sc", "memory consistency model for -trace: sc, tso, pso, or rmo")

		verbose    = flag.Bool("v", false, "print violation details")
		sigsOut    = flag.String("sigs-out", "", "write the collected unique signatures to this file")
		dotOut     = flag.String("dot", "", "write the first violation's constraint graph (DOT) to this file")
		timelineTo = flag.String("timeline", "", "write one traced iteration's op timeline (TSV) to this file")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write a heap profile taken at exit to this file (go tool pprof)")

		metricsOut = flag.String("metrics-out", "", "write campaign metrics (Prometheus text format) to this file at exit")
		progress   = flag.Bool("progress", false, "log rate-limited per-stage progress to stderr")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event timeline (open in Perfetto or chrome://tracing) to this file")
	)
	flag.Usage = usage
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return infra(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return infra(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mtracecheck: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recently freed objects out of the heap profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mtracecheck: %v\n", err)
			}
		}()
	}

	spec.Test.Seed = spec.Seed
	if *progIn != "" {
		text, err := os.ReadFile(*progIn)
		if err != nil {
			return infra(err)
		}
		spec.Program = string(text)
	}
	p, opts, err := dist.Build(spec)
	if err != nil {
		return infra(err)
	}
	if *corpusIn != "" {
		store, err := mtracecheck.OpenCorpus(*corpusIn)
		if err != nil {
			// The store is still usable (empty); the campaign runs cold and
			// the unreadable original is quarantined at the next flush.
			fmt.Fprintf(os.Stderr, "mtracecheck: %v (running cold)\n", err)
		}
		opts.Corpus = store
	}
	var finishObs func()
	if opts.Observer, finishObs, err = obs.Attach(*metricsOut, *progress, *traceOut); err != nil {
		return infra(err)
	}
	defer finishObs()

	// External-trace mode: check an observed execution against -mcm with
	// the selected backend; the simulator never runs.
	if *traceIn != "" {
		return runTraceCheck(*traceIn, *mcmName, opts, *verbose)
	}
	// NewCampaign refuses what a description can get wrong beyond its names
	// (-iters -5, -workers -2, -resume without -checkpoint, an unknown
	// -checker) before anything is printed or bound; a server validates the
	// submitted spec the same way.
	c, err := mtracecheck.NewCampaign(p, opts)
	if err != nil {
		return infra(err)
	}
	// Check-only mode: the host side of the device/host split. The program
	// must be reconstructed exactly — from its saved text or from the same
	// generation flags and seed the device side used.
	if *sigsIn != "" {
		return runCheckOnly(*sigsIn, c, p, opts, *verbose)
	}
	if *progOut != "" {
		if err := os.WriteFile(*progOut, []byte(prog.Format(p)), 0o644); err != nil {
			return infra(err)
		}
		fmt.Printf("test program written to %s\n", *progOut)
	}
	name := fmt.Sprintf("%s (%d threads, %d ops)", p.Name, p.NumThreads(), p.NumOps())
	if spec.Program == "" {
		name = spec.ISA + "-" + p.Name // the paper's configuration naming, x86-4-50-64
	}
	fmt.Printf("mtracecheck: %s on %s (%s), %d iterations\n",
		name, opts.Platform.Name, mtracecheck.ModelName(opts.Platform), opts.Iterations)
	var report *mtracecheck.Report
	if *listen != "" {
		report, err = runDistributed(spec, opts, *listen, *addrFile, *leaseTTL)
	} else {
		report, err = c.Run(context.Background())
	}
	if err != nil {
		return reportRunError(report, err)
	}
	writeHeadline(os.Stdout, report)
	failed := writeVerdict(os.Stdout, report, "all observed interleavings", true)
	if *timelineTo != "" {
		if err := dumpTimeline(*timelineTo, p, opts); err != nil {
			return infra(err)
		}
		fmt.Printf("timeline written to %s\n", *timelineTo)
	}
	if *sigsOut != "" {
		if err := dumpSignatures(*sigsOut, report); err != nil {
			return infra(err)
		}
		fmt.Printf("signatures written to %s\n", *sigsOut)
	}
	if *dotOut != "" && len(report.Violations) > 0 {
		if err := writeTo(*dotOut, func(w io.Writer) error {
			return mtracecheck.WriteViolationDOT(w, report, report.Violations[0], opts)
		}); err != nil {
			return infra(err)
		}
		fmt.Printf("violation graph written to %s\n", *dotOut)
	}
	if failed {
		if *verbose {
			printViolations(report)
		}
		return exitFinding
	}
	return exitPass
}

// usage extends the default flag help with the exit-code contract.
func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "Usage: mtracecheck [flags]\n\n")
	flag.PrintDefaults()
	fmt.Fprintf(out, `
Exit codes:
  0  pass: every observed interleaving is consistent with the model
  1  finding: MCM violation, instrumentation assertion failure, or
     platform crash (deadlock/livelock) during test execution
  2  infrastructure error: bad configuration, I/O failure, a pipeline
     error in strict mode, or (with -listen) an undispatchable chunk
  3  quarantine overflow: the fraction of unique signatures quarantined
     as corrupted exceeded -max-quarantine

Profiling:
  -cpuprofile and -memprofile capture pprof profiles of a campaign
  (e.g. mtracecheck -iters 65536 -cpuprofile cpu.out, then
  go tool pprof cpu.out). The heap profile is taken after the run, so
  it shows what the pipeline retains, not its transient churn.
`)
}

// runDistributed is -listen: the campaign's chunks execute on whatever
// mtracecheck-worker processes connect to addr instead of in this process. The
// server merges their uploads with the merger an in-process run uses, so the
// report is the same; the one line added says what the workers cost.
func runDistributed(spec dist.JobSpec, opts mtracecheck.Options, addr, addrFile string, leaseTTL time.Duration) (*mtracecheck.Report, error) {
	srv := dist.NewServer(dist.ServerOptions{LeaseTTL: leaseTTL, Corpus: opts.Corpus, Observer: opts.Observer})
	defer srv.Close()
	id, err := srv.Submit(spec)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if addrFile != "" {
		// The file appears only once the listener is bound.
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return nil, err
		}
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Shutdown(context.Background())
	fmt.Fprintf(os.Stderr, "mtracecheck: %s on %s, waiting for workers\n", id, ln.Addr())

	report, err := srv.Wait(context.Background(), id)
	stats, _ := srv.Stats(id) // the job exists: Submit returned its id
	fmt.Printf("dist robustness:      %d leases expired, %d chunks redispatched, %d duplicate uploads, %d rejected uploads\n",
		stats.Expired, stats.Redispatched, stats.Duplicates, stats.Rejected)
	return report, err
}

func printViolations(report *mtracecheck.Report) {
	for _, v := range report.Violations {
		fmt.Printf("  violation: signature %v, cycle through ops %v\n", v.Sig, v.Cycle)
		for _, opID := range v.Cycle {
			op := report.Program.OpByID(int(opID))
			fmt.Printf("    op %d: thread %d  %s\n", op.ID, op.Thread, op)
		}
	}
	for _, e := range report.AssertionFailures {
		fmt.Printf("  assert: %v\n", e)
	}
}

// runCheckOnly is the host side: load previously collected signatures,
// validate their provenance header against this campaign's program, seed,
// and platform, and check them against the model without executing
// anything. Checker selection, -workers, quarantine handling, and the
// observability flags all apply, exactly as in the full pipeline.
func runCheckOnly(path string, c *mtracecheck.Campaign, p *mtracecheck.Program, opts mtracecheck.Options, verbose bool) int {
	f, err := os.Open(path)
	if err != nil {
		return infra(err)
	}
	uniques, meta, err := mtracecheck.LoadSignaturesMeta(f)
	f.Close()
	if err != nil {
		return infra(err)
	}
	if err := mtracecheck.ValidateSignatureMeta(meta, p, opts); err != nil {
		return infra(err)
	}
	fmt.Printf("signature provenance: program %#x, seed %d, platform %q — matches this configuration\n",
		meta.ProgHash, meta.Seed, meta.Platform)
	plat := opts.Platform
	fmt.Printf("mtracecheck: checking %d unique signatures from %s against %s (%s)\n",
		len(uniques), path, plat.Name, mtracecheck.ModelName(plat))
	report, err := c.Check(context.Background(), uniques)
	if err != nil {
		return reportRunError(report, err)
	}
	if writeVerdict(os.Stdout, report, "all recorded interleavings", false) {
		if verbose {
			printViolations(report)
		}
		return exitFinding
	}
	return exitPass
}

// runTraceCheck is the external-trace front door: parse an Axe-style trace,
// bind it onto the checking machinery, and render the verdict through the
// same summary lines and exit codes as a campaign. A malformed trace is
// configuration trouble (exit 2); a cyclic constraint graph or a load that
// observed a value no store wrote is a finding (exit 1).
func runTraceCheck(path, model string, opts mtracecheck.Options, verbose bool) int {
	f, err := os.Open(path)
	if err != nil {
		return infra(err)
	}
	tr, err := mtracecheck.ParseTrace(f)
	f.Close()
	if err != nil {
		return infra(err)
	}
	fmt.Printf("mtracecheck: checking trace %s (%d ops, %d threads) against %s\n",
		path, len(tr.Ops), tr.NumThreads(), strings.ToLower(model))
	report, bind, err := mtracecheck.CheckTraceContext(context.Background(), tr, model, opts)
	if err != nil {
		return infra(err)
	}
	if writeVerdict(os.Stdout, report, "trace", true) {
		if verbose {
			printTraceViolations(report, bind)
		}
		return exitFinding
	}
	return exitPass
}

// printTraceViolations renders verdict details in the trace's own terms —
// original thread IDs, addresses, and source lines — rather than the bound
// Program's internal encoding.
func printTraceViolations(report *mtracecheck.Report, bind *mtracecheck.TraceBinding) {
	for _, v := range report.Violations {
		fmt.Printf("  violation: cycle through ops %v\n", v.Cycle)
		for _, opID := range v.Cycle {
			op := bind.Trace.Ops[bind.Source[opID]]
			fmt.Printf("    line %d: %s\n", op.Line, op)
		}
	}
	for _, e := range report.AssertionFailures {
		fmt.Printf("  assert: %v\n", e)
	}
}

// writeTo creates the file at path and hands it to write.
func writeTo(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

// dumpSignatures writes the signature set the campaign ended with in the
// binary device-to-host format, provenance header included.
func dumpSignatures(path string, report *mtracecheck.Report) error {
	return writeTo(path, func(w io.Writer) error {
		return mtracecheck.SaveSignatures(w, report, report.Signatures())
	})
}

// dumpTimeline runs a single traced iteration and writes its timeline.
func dumpTimeline(path string, p *mtracecheck.Program, opts mtracecheck.Options) error {
	runner, err := sim.NewRunner(opts.Platform, p, opts.Seed)
	if err != nil {
		return err
	}
	runner.Trace = true
	ex, err := runner.Run()
	if err != nil {
		return err
	}
	return writeTo(path, func(w io.Writer) error { return sim.FormatTimeline(w, p, ex) })
}

// reportRunError classifies a pipeline error into the exit-code contract:
// crashes are findings, quarantine overflow has its own code, everything
// else is infrastructure.
func reportRunError(report *mtracecheck.Report, err error) int {
	switch {
	case errors.Is(err, mtracecheck.ErrCrash):
		iters := 0
		if report != nil {
			iters = report.Iterations
		}
		fmt.Printf("CRASH after %d iterations: %v\n", iters, err)
		return exitFinding
	case errors.Is(err, mtracecheck.ErrQuarantineThreshold):
		if report != nil {
			writeDegradation(os.Stdout, report)
		}
		fmt.Printf("RESULT: QUARANTINE OVERFLOW — %v\n", err)
		return exitQuarantine
	default:
		return infra(err)
	}
}

// infra reports an infrastructure error and selects its exit code.
func infra(err error) int {
	// Library errors already carry the package prefix; avoid stuttering.
	fmt.Fprintln(os.Stderr, "mtracecheck:", strings.TrimPrefix(err.Error(), "mtracecheck: "))
	return exitInfra
}
