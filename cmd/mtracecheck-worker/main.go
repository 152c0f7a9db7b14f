// Command mtracecheck-worker is the distributed campaign execution client:
// it polls an mtracecheck-server (or an "mtracecheck -listen" campaign) for
// chunk leases, executes them on a locally rebuilt campaign, heartbeats while
// executing, and uploads the results.
//
// Usage:
//
//	mtracecheck-worker -server http://127.0.0.1:7077
//	mtracecheck-worker -server http://host:7077 -exit-when-idle
//
// Because chunk results are a pure function of (program, options, chunk
// index), any number of workers — started and killed at any time — produce
// the same campaign report. The -fault flag deliberately corrupts, drops, or
// delays this worker's uploads — a fault plan of wire kinds in
// internal/fault's text form ("wire-drop=0.5,seed=3"; the seed defaults to
// 1) — to exercise the server's validation, lease-expiry, and quarantine
// machinery.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mtracecheck/internal/dist"
	"mtracecheck/internal/fault"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		server  = flag.String("server", "http://127.0.0.1:7077", "server base URL")
		id      = flag.String("id", "", "worker ID (default hostname-pid)")
		poll    = flag.Duration("poll", 100*time.Millisecond, "idle wait between lease attempts")
		idle    = flag.Bool("exit-when-idle", false, "exit 0 when the server has no undone work instead of polling forever")
		startup = flag.Duration("startup-timeout", 0, "how long to retry before the server first answers (0 = 60s); fleets may start in any order")
		verbose = flag.Bool("v", false, "log worker operations to stderr")
		plan    fault.Config
	)
	flag.TextVar(&plan, "fault", fault.Config{Seed: 1}, "mangle this worker's uploads by the fault `spec`: comma-separated key=value pairs, a kind's rate in [0, 1] ("+
		fault.Wire.String()+"), seed=N and hold=DURATION (how long a delay holds an upload), e.g. wire-drop=0.5")
	flag.Parse()

	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &dist.Worker{
		Server:         *server,
		ID:             *id,
		Poll:           *poll,
		ExitWhenIdle:   *idle,
		StartupTimeout: *startup,
		Fault:          plan,
	}
	if *verbose {
		w.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := w.Run(ctx)
	switch {
	case err == nil, errors.Is(err, context.Canceled):
		return 0
	case errors.Is(err, dist.ErrWorkerQuarantined):
		fmt.Fprintf(os.Stderr, "mtracecheck-worker: %s: %v\n", *id, err)
		return 3
	default:
		fmt.Fprintf(os.Stderr, "mtracecheck-worker: %s: %v\n", *id, err)
		return 2
	}
}
