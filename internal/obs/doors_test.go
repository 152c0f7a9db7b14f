package obs_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"

	"mtracecheck/internal/dist"
	"mtracecheck/internal/obs"
)

// TestWorkerIDsOffTheNetwork: a worker ID is whatever a lease or heartbeat
// body, the upload's header or the upload itself carries, and it ends up a
// /metrics label. A fresh server's scrape carries the core series only. The
// three doors refuse (400, no worker registered, so no
// dist series at all) an ID that is empty, over 128 bytes, not UTF-8 or has a
// control character; a legal ID with a quote and a backslash in it is
// escaped as the text format asks, so the scrape still passes the lint.
func TestWorkerIDsOffTheNetwork(t *testing.T) {
	srv := dist.NewServer(dist.ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	post := func(door, header string, body []byte) int {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/api/v1/"+door, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set("X-Mtracecheck-Worker", header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		text, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(text)
	}

	// A server no worker has reached yet: the core series at zero under a
	// clean lint, and no dist series — the group appears with its first event
	// (the parent wrote its eight counters at 0 from the start).
	fresh := scrape()
	if err := obs.LintExposition(fresh); err != nil {
		t.Errorf("fresh server: %v\n%s", err, fresh)
	}
	if !strings.Contains(fresh, "\nmtracecheck_campaigns_total 0\n") || strings.Contains(fresh, "_dist_") {
		t.Errorf("fresh server's /metrics:\n%s", fresh)
	}

	for _, id := range []string{"", strings.Repeat("w", 129), "a\x01b", "line\nfeed", "\xff\xfe"} {
		doors := map[string][]byte{}
		if utf8.ValidString(id) { // encoding/json would repair it into a legal ID
			body, _ := json.Marshal(dist.HeartbeatRequest{Worker: id, Job: "job-1"})
			doors["lease"], doors["heartbeat"] = body, body
		}
		upload, err := dist.EncodeChunkUpload(&dist.ChunkUpload{Job: "job-1", Worker: id})
		if err != nil {
			t.Fatal(err)
		}
		doors["chunk"] = upload
		for door, body := range doors {
			if code := post(door, "", body); code != http.StatusBadRequest {
				t.Errorf("%s with worker %q: HTTP %d, want 400", door, id, code)
			}
		}
	}
	for _, header := range []string{strings.Repeat("w", 129), "\xff\xfe"} {
		if code := post("chunk", header, []byte("garbage")); code != http.StatusBadRequest {
			t.Errorf("upload with header %q: HTTP %d, want 400", header, code)
		}
	}
	if out := scrape(); strings.Contains(out, "_dist_") {
		t.Errorf("a refused ID registered a worker:\n%s", out)
	}

	const legal = `q"uo\te`
	lease, _ := json.Marshal(dist.LeaseRequest{Worker: legal})
	if code := post("lease", "", lease); code != http.StatusOK {
		t.Fatalf("lease for %q: HTTP %d", legal, code)
	}
	if code := post("chunk", legal, []byte("garbage")); code != http.StatusOK {
		t.Fatalf("rejected upload from %q: HTTP %d", legal, code)
	}
	out := scrape()
	if err := obs.LintExposition(out); err != nil {
		t.Errorf("%v\n%s", err, out)
	}
	// The whole group is there from the first event on, zero counters included.
	for _, want := range []string{
		`mtracecheck_dist_worker_strikes{worker="q\"uo\\te"} 1`,
		"mtracecheck_dist_worker_joins_total 1",
		"mtracecheck_dist_workers_lost_total 0",
		"mtracecheck_dist_leases_granted_total 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("/metrics lacks %s:\n%s", want, out)
		}
	}
}
