package dist

import (
	"context"
	"errors"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mtracecheck"
)

// gatedTransport fails the first fail requests with a connection error,
// then proxies to the real transport — the deterministic stand-in for a
// worker fleet started before its server.
type gatedTransport struct {
	fail int32
	n    atomic.Int32
	rt   http.RoundTripper
}

func (g *gatedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if g.n.Add(1) <= g.fail {
		return nil, errors.New("dial tcp: connection refused (injected)")
	}
	return g.rt.RoundTrip(r)
}

// TestWorkerStartupRetry: a worker whose first 30 requests fail — more
// than the unreachable cap that used to kill ExitWhenIdle fleets — must
// keep retrying within its startup window and then drain the job
// normally. This is the any-order fleet-startup contract.
func TestWorkerStartupRetry(t *testing.T) {
	spec := testSpec()
	srv, url := startServer(t, ServerOptions{})
	id, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedTransport{fail: 30, rt: http.DefaultTransport}
	w := &Worker{
		Server:         url,
		ID:             "late-starter",
		Poll:           time.Millisecond,
		ExitWhenIdle:   true,
		StartupTimeout: 30 * time.Second,
		Client:         &http.Client{Transport: gate, Timeout: 10 * time.Second},
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker failed despite server coming up: %v", err)
	}
	if n := gate.n.Load(); n <= 30 {
		t.Fatalf("worker stopped retrying after %d requests", n)
	}
	if _, err := srv.Wait(context.Background(), id); err != nil {
		t.Fatalf("job did not finish: %v", err)
	}
}

// TestWorkerStartupTimeout: a server that never answers must fail the
// worker fast with a startup-specific error once the window expires —
// not after the poll-cadenced unreachable budget.
func TestWorkerStartupTimeout(t *testing.T) {
	gate := &gatedTransport{fail: 1 << 30, rt: http.DefaultTransport}
	w := &Worker{
		Server:         "http://127.0.0.1:1", // never reached; transport fails first
		ID:             "orphan",
		Poll:           time.Millisecond,
		ExitWhenIdle:   true,
		StartupTimeout: 50 * time.Millisecond,
		Client:         &http.Client{Transport: gate},
	}
	start := time.Now()
	err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "startup timeout") {
		t.Fatalf("err = %v, want startup-timeout error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("startup failure took %v", elapsed)
	}
}

// TestWorkerPostContactKeepsUnreachableCap: once the server has answered,
// a disappearing server must still trip the ExitWhenIdle unreachable cap
// rather than the (much longer) startup machinery.
func TestWorkerPostContactKeepsUnreachableCap(t *testing.T) {
	srv, url := startServer(t, ServerOptions{})
	if _, err := srv.Submit(testSpec()); err != nil {
		t.Fatal(err)
	}
	// The first two requests — the lease and the spec fetch — succeed, so
	// contact is established with undone work pending; then the server
	// "dies" and every later request fails.
	gate := &dyingTransport{succeed: 2, rt: http.DefaultTransport}
	w := &Worker{
		Server:         url,
		ID:             "bereaved",
		Poll:           time.Millisecond,
		ExitWhenIdle:   true,
		StartupTimeout: time.Hour, // must not mask the unreachable cap
		Client:         &http.Client{Transport: gate, Timeout: 10 * time.Second},
	}
	err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("err = %v, want unreachable-cap error", err)
	}
}

type dyingTransport struct {
	succeed int32
	n       atomic.Int32
	rt      http.RoundTripper
}

func (d *dyingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if d.n.Add(1) > d.succeed {
		return nil, errors.New("dial tcp: connection refused (injected)")
	}
	return d.rt.RoundTrip(r)
}

// TestDistSharedCorpusAcrossJobs: one server-attached corpus memoizes
// verdicts across jobs — the second submission of the same spec finalizes
// entirely from corpus hits, with the report otherwise bit-identical.
func TestDistSharedCorpusAcrossJobs(t *testing.T) {
	spec := testSpec()
	ref, refU := reference(t, spec)
	path := filepath.Join(t.TempDir(), "corpus.mtc")
	store, err := mtracecheck.OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, url := startServer(t, ServerOptions{Corpus: store})

	runJob := func() *mtracecheck.Report {
		t.Helper()
		id, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		runWorkers(t, url, 2, nil)
		report, err := srv.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, ref, refU, report, report.Signatures())
		return report
	}
	cold := runJob()
	if cold.CorpusAppended != cold.UniqueSignatures || cold.CorpusHits != 0 {
		t.Errorf("first job: appended=%d hits=%d, want %d/0",
			cold.CorpusAppended, cold.CorpusHits, cold.UniqueSignatures)
	}
	warm := runJob()
	if warm.CorpusHits != warm.UniqueSignatures || warm.CorpusAppended != 0 {
		t.Errorf("second job: hits=%d appended=%d, want %d/0",
			warm.CorpusHits, warm.CorpusAppended, warm.UniqueSignatures)
	}
	// The corpus persisted: a fresh store sees every unique.
	re, err := mtracecheck.OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	p, opts, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := mtracecheck.CorpusKey{ProgHash: mtracecheck.ProgramHash(p),
		Platform: opts.Platform.Name, MCM: opts.Platform.Model.String()}
	if n := re.Len(key); n != ref.UniqueSignatures {
		t.Errorf("persisted corpus holds %d signatures, want %d", n, ref.UniqueSignatures)
	}
}
