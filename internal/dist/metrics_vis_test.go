package dist

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"mtracecheck"
	"mtracecheck/internal/fault"
	"mtracecheck/internal/obs"
)

// TestMetricsSurfaceQuarantine asserts the acceptance-criteria visibility:
// a corrupting worker shows up in the /metrics exposition as per-worker
// strikes and a quarantine count, and lease grants are counted.
func TestMetricsSurfaceQuarantine(t *testing.T) {
	spec := testSpec()
	srv, url := startServer(t, ServerOptions{QuarantineAfter: 2})
	if _, err := srv.Submit(spec); err != nil {
		t.Fatal(err)
	}
	liar := &Worker{Server: url, ID: "liar", Poll: 5 * time.Millisecond,
		Fault: fault.Config{Seed: 9, Rate: fault.Rates{fault.KindWireCorrupt: 1}}}
	liar.Run(context.Background())
	runWorkers(t, url, 1, nil)
	var buf bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`mtracecheck_dist_worker_strikes{worker="liar"} 2`,
		`mtracecheck_dist_worker_quarantined{worker="liar"} 1`,
		"mtracecheck_dist_workers_quarantined_total 1",
		"mtracecheck_dist_leases_granted_total",
		"mtracecheck_dist_upload_rejects_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHostStagesVisibleBehindServer: a job's campaign is the host side of a
// campaign, so the server's metrics show its bracket and its merge, decode and
// check stages exactly as an observed in-process run's do — quarantined
// signatures and injected faults included. Only the execute stage is the
// workers': those series stay zero on the server.
func TestHostStagesVisibleBehindServer(t *testing.T) {
	spec := testSpec()
	spec.Fault = fault.Config{Seed: 5, Rate: fault.Rates{fault.KindBitFlip: 0.05, fault.KindOutOfRange: 0.05}}
	p, opts, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	local := obs.NewMetrics()
	opts.Workers, opts.Observer = 1, local
	c, err := mtracecheck.NewCampaign(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv, url := startServer(t, ServerOptions{})
	id, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, url, 2, nil)
	if _, err := srv.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	want, got := local.Snapshot().Invariant(), srv.Metrics().Snapshot().Invariant()
	for _, name := range []string{
		"mtracecheck_campaigns_total",
		"mtracecheck_unique_signatures",
		`mtracecheck_injected_faults_total{kind="bit-flip"}`,
		`mtracecheck_injected_faults_total{kind="out-of-range"}`,
		"mtracecheck_decoded_signatures_total",
		`mtracecheck_quarantined_total{kind="decode"}`,
		"mtracecheck_graphs_checked_total",
		"mtracecheck_violations_total",
	} {
		if w, ok := want[name]; !ok || got[name] != w {
			t.Errorf("%s: server %v, in-process run %v (present: %t)", name, got[name], w, ok)
		}
	}
	if want["mtracecheck_decoded_signatures_total"] == 0 || want[`mtracecheck_quarantined_total{kind="decode"}`] == 0 {
		t.Errorf("in-process run decoded %v and quarantined %v signatures: the comparison needs both",
			want["mtracecheck_decoded_signatures_total"], want[`mtracecheck_quarantined_total{kind="decode"}`])
	}
	for _, name := range []string{"mtracecheck_iterations_total", "mtracecheck_cycles_total"} {
		if want[name] == 0 || got[name] != 0 {
			t.Errorf("%s: server %v, in-process run %v; execution is the workers'", name, got[name], want[name])
		}
	}
}
