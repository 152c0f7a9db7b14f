// Command mtracecheck-server is the distributed campaign host: it serves
// the dist HTTP API (job submission, chunk leases, heartbeats, uploads,
// metrics) and merges worker uploads into reports bit-identical to
// single-process runs.
//
// Usage:
//
//	mtracecheck-server -listen :7077                 # serve jobs over HTTP
//	mtracecheck-server -oneshot -threads 4 -ops 40 \
//	    -iters 2048 -sigs-out sigs.bin               # one job, then exit
//
// In -oneshot mode the server builds one job from the generation flags
// (mirroring the mtracecheck CLI), serves it to whatever workers connect,
// waits for the report, prints the same summary the CLI would, and exits
// with the CLI's exit-code contract (see -h). Robustness machinery —
// lease expiry, redispatch backoff, worker quarantine, checkpoint/resume —
// is tuned by the -lease-ttl/-quarantine-after/-max-attempts/-backoff
// flags and observable at /metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mtracecheck"
	"mtracecheck/internal/dist"
	"mtracecheck/internal/fault"
	"mtracecheck/internal/testgen"
)

// Exit codes match cmd/mtracecheck so scripts can swap the binaries.
const (
	exitPass       = 0
	exitFinding    = 1
	exitInfra      = 2
	exitQuarantine = 3
)

func main() { os.Exit(run()) }

func run() int {
	var (
		listen   = flag.String("listen", "127.0.0.1:7077", "HTTP listen address (use :0 for an ephemeral port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for :0 discovery)")
		verbose  = flag.Bool("v", false, "log server operations to stderr")

		leaseTTL  = flag.Duration("lease-ttl", 0, "chunk lease duration before expiry and redispatch (0 = 10s)")
		quarAfter = flag.Int("quarantine-after", 0, "rejected uploads before a worker is quarantined (0 = 3, negative disables)")
		maxAtt    = flag.Int("max-attempts", 0, "dispatches per chunk before the job fails as undispatchable (0 = 10)")
		backoff   = flag.Duration("backoff", 0, "base redispatch backoff, doubled per attempt up to 5s (0 = 100ms)")
		corpusIn  = flag.String("corpus", "", "consult and grow this persistent signature corpus across all jobs: known-good uniques skip decode+check at finalize, newly verified ones are appended")

		oneshot = flag.Bool("oneshot", false, "submit one job from the generation flags, wait for it, print the report, and exit")
		sigsOut = flag.String("sigs-out", "", "oneshot: write the final unique signatures to this file")

		isa     = flag.String("isa", "x86", "oneshot: platform flavor: x86 (TSO) or ARM (weak)")
		threads = flag.Int("threads", 4, "oneshot: test threads")
		ops     = flag.Int("ops", 50, "oneshot: memory operations per thread")
		words   = flag.Int("words", 64, "oneshot: distinct shared words")
		wpl     = flag.Int("wpl", 1, "oneshot: shared words per cache line")
		loads   = flag.Float64("loads", 0.5, "oneshot: load fraction")
		fences  = flag.Float64("fences", 0, "oneshot: fence insertion probability")
		iters   = flag.Int("iters", 2048, "oneshot: test iterations")
		seed    = flag.Int64("seed", 1, "oneshot: random seed")
		checker = flag.String("checker", "", "oneshot: checker backend: "+strings.Join(mtracecheck.CheckerNames(), ", "))
		bug     = flag.String("bug", "", "oneshot: inject a bug: sm-inv, lsq-skip, or wb-race")
		osMode  = flag.Bool("os", false, "oneshot: run under simulated OS scheduling")
		workers = flag.Int("workers", 0, "oneshot: server-side decode/check workers (0 = GOMAXPROCS)")

		strict    = flag.Bool("strict", false, "oneshot: abort on the first corrupted signature instead of degrading")
		maxQuar   = flag.Float64("max-quarantine", 0, "oneshot: fail (exit 3) when more than this fraction of signatures is quarantined")
		shardTO   = flag.Duration("shard-timeout", 0, "oneshot: deadline per execution-shard attempt on the workers")
		retries   = flag.Int("shard-retries", 2, "oneshot: retries per failed execution shard on the workers")
		ckptPath  = flag.String("checkpoint", "", "oneshot: persist job progress to this file")
		ckptEvery = flag.Int("checkpoint-every-chunks", 0, "oneshot: checkpoint cadence in completed chunks (0 = grid/10)")
		resume    = flag.Bool("resume", false, "oneshot: resume the job from -checkpoint, skipping completed chunks")

		fBitFlip  = flag.Float64("fault-bitflip", 0, "oneshot: injected fault rate: flip one signature bit (applied server-side to the merged set)")
		fTruncate = flag.Float64("fault-truncate", 0, "oneshot: injected fault rate: drop a unique-set entry")
		fDup      = flag.Float64("fault-duplicate", 0, "oneshot: injected fault rate: duplicate a unique-set entry")
		fOOR      = flag.Float64("fault-oor", 0, "oneshot: injected fault rate: force a signature word out of range")
		fStall    = flag.Float64("fault-stall", 0, "oneshot: injected fault rate: stall an execution shard (on the workers)")
		fStallFor = flag.Duration("fault-stall-for", 0, "oneshot: injected stall duration (0 = 250ms)")
		fPanic    = flag.Float64("fault-panic", 0, "oneshot: injected fault rate: panic an execution shard (on the workers)")
		fSeed     = flag.Int64("fault-seed", 1, "oneshot: seed for deterministic fault injection")
	)
	flag.Usage = usage
	flag.Parse()

	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	var store *mtracecheck.Corpus
	if *corpusIn != "" {
		var err error
		if store, err = mtracecheck.OpenCorpus(*corpusIn); err != nil {
			fmt.Fprintf(os.Stderr, "mtracecheck-server: %v (running cold)\n", err)
		}
	}
	srv := dist.NewServer(dist.ServerOptions{
		LeaseTTL:        *leaseTTL,
		QuarantineAfter: *quarAfter,
		MaxAttempts:     *maxAtt,
		BackoffBase:     *backoff,
		Corpus:          store,
		Logf:            logf,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return infra(err)
	}
	if *addrFile != "" {
		// Written atomically enough for the smoke harness: the file appears
		// only once the listener is bound.
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return infra(err)
		}
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	defer httpSrv.Shutdown(context.Background())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !*oneshot {
		fmt.Fprintf(os.Stderr, "mtracecheck-server: listening on %s\n", ln.Addr())
		select {
		case <-ctx.Done():
			return exitPass
		case err := <-serveErr:
			return infra(err)
		}
	}

	spec := dist.JobSpec{
		Test: &testgen.Config{
			Threads:      *threads,
			OpsPerThread: *ops,
			Words:        *words,
			WordsPerLine: *wpl,
			LoadRatio:    *loads,
			FenceProb:    *fences,
			Seed:         *seed,
		},
		ISA:                   *isa,
		OS:                    *osMode,
		Bug:                   *bug,
		Iterations:            *iters,
		Seed:                  *seed,
		Checker:               *checker,
		Workers:               *workers,
		Strict:                *strict,
		QuarantineThreshold:   *maxQuar,
		ShardTimeout:          *shardTO,
		ShardRetries:          *retries,
		CheckpointPath:        *ckptPath,
		CheckpointEveryChunks: *ckptEvery,
		Resume:                *resume,
		Fault: fault.Config{
			Seed:       *fSeed,
			BitFlip:    *fBitFlip,
			Truncate:   *fTruncate,
			Duplicate:  *fDup,
			OutOfRange: *fOOR,
			ShardStall: *fStall,
			ShardPanic: *fPanic,
			StallFor:   *fStallFor,
		},
	}
	// Resolve the spec locally too: the summary header needs the platform,
	// derived identically everywhere.
	_, opts, err := dist.Build(spec)
	if err != nil {
		return infra(err)
	}
	id, err := srv.Submit(spec)
	if err != nil {
		return infra(err)
	}
	fmt.Printf("mtracecheck: %s-%d-%d-%d on %s (%s), %d iterations\n",
		*isa, *threads, *ops, *words, opts.Platform.Name,
		mtracecheck.ModelName(opts.Platform), *iters)
	fmt.Fprintf(os.Stderr, "mtracecheck-server: job %s on %s, waiting for workers\n", id, ln.Addr())

	report, runErr := srv.Wait(ctx, id)
	if stats, err := srv.Stats(id); err == nil &&
		(stats.Redispatched+stats.Duplicates+stats.Rejected+stats.Expired > 0) {
		fmt.Printf("dist robustness:      %d leases expired, %d chunks redispatched, %d duplicate uploads, %d rejected uploads\n",
			stats.Expired, stats.Redispatched, stats.Duplicates, stats.Rejected)
	}
	if runErr != nil {
		return reportRunError(report, runErr)
	}
	failed := mtracecheck.WriteResultSummary(os.Stdout, report, opts.Checker)
	if *sigsOut != "" {
		if err := saveSignatures(*sigsOut, report); err != nil {
			return infra(err)
		}
		fmt.Printf("signatures written to %s\n", *sigsOut)
	}
	if failed {
		return exitFinding
	}
	return exitPass
}

func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "Usage: mtracecheck-server [flags]\n\n")
	flag.PrintDefaults()
	fmt.Fprintf(out, `
Exit codes (oneshot mode; matches cmd/mtracecheck):
  0  pass: every observed interleaving is consistent with the model
  1  finding: MCM violation, assertion failure, or platform crash
  2  infrastructure error: bad configuration, I/O failure, or an
     undispatchable chunk
  3  quarantine overflow: corrupted-signature fraction exceeded
     -max-quarantine
`)
}

// saveSignatures persists the job's merged unique set in the device/host
// binary format with its provenance, byte-identical to what the CLI's
// -sigs-out writes for the same (program, options).
func saveSignatures(path string, report *mtracecheck.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return mtracecheck.SaveSignatures(f, report, report.Signatures())
}

// reportRunError classifies a job error into the exit-code contract, same
// as cmd/mtracecheck.
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
			mtracecheck.WriteDegradation(os.Stdout, report)
		}
		fmt.Printf("RESULT: QUARANTINE OVERFLOW — %v\n", err)
		return exitQuarantine
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "mtracecheck-server: interrupted")
		return exitInfra
	default:
		return infra(err)
	}
}

func infra(err error) int {
	fmt.Fprintln(os.Stderr, "mtracecheck-server:", strings.TrimPrefix(err.Error(), "mtracecheck: "))
	return exitInfra
}
