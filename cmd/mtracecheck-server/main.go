// Command mtracecheck-server is the long-running distributed campaign service:
// it serves the dist HTTP API (job submission, chunk leases, heartbeats,
// uploads, metrics) to any number of clients and mtracecheck-worker processes,
// and merges worker uploads into reports bit-identical to single-process runs.
//
// Usage:
//
//	mtracecheck-server -listen :7077
//
// Jobs arrive as dist.JobSpec JSON on POST /api/v1/jobs — the description the
// mtracecheck command line binds its flags onto — and their state is read back
// from GET /api/v1/jobs/{id}. To run one campaign on a fleet and get the CLI's
// report and exit code, use "mtracecheck … -listen ADDR" instead: it embeds
// this service for the length of one job. Robustness machinery — lease expiry,
// redispatch backoff, worker quarantine — is tuned by the flags below and
// observable at /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"mtracecheck"
	"mtracecheck/internal/dist"
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
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "mtracecheck-server:", err)
		return 2
	}
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
		return fail(err)
	}
	if *addrFile != "" {
		// The file appears only once the listener is bound.
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return fail(err)
		}
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	defer httpSrv.Shutdown(context.Background())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "mtracecheck-server: listening on %s\n", ln.Addr())
	select {
	case <-ctx.Done():
		return 0
	case err := <-serveErr:
		return fail(err)
	}
}
