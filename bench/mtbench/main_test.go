package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestRegistryMatchesBenchmarkJSON: the harness registry and BENCHMARK.json
// name the same workloads and metrics, with the same units, directions and
// bounds. failed_frac is the registry's one extra: the driver takes failures
// from attempted/failed.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the driver's limits", w.Name)
		}
	}
	listed := make(map[string]bool)
	setup := false
	for _, m := range b.EndToEnd {
		d, ok := registry[m.Name]
		if !ok || d.Kind != kindE2E || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end_to_end %+v does not match the registry's %+v", m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
		listed[m.Name] = true
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range b.PerLayer {
		d, ok := registry[m.Name]
		if !ok || d.Kind != kindLayer || d.Unit != m.Unit {
			t.Errorf("per_layer %+v does not match the registry's %+v", m, d)
		}
		if (d.Better == higher || d.Better == lower) && d.Better != m.Better {
			t.Errorf("per_layer %s: direction %q, the registry says %q", m.Name, m.Better, d.Better)
		}
		if m.Better != higher && m.Better != lower {
			t.Errorf("per_layer %s: direction %q is neither higher nor lower", m.Name, m.Better)
		}
		if listed[m.Name] {
			t.Errorf("%s is listed twice", m.Name)
		}
		listed[m.Name] = true
	}
	for _, d := range metricDefs {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q outside the driver's limits", d.Name)
		}
		if !listed[d.Name] && d.Name != "failed_frac" {
			t.Errorf("registry metric %s is missing from BENCHMARK.json", d.Name)
		}
	}
}

// TestSmoke runs every workload through both passes in the -smoke
// configuration and checks the contract of the output: every registered
// metric emitted exactly once, no failed op, gate or determinism check, and
// a trace file whose spans form a tree in which each parent contains its
// children. With -short (the race pass) it keeps the two workloads that
// cover what the others do not: worker goroutines feeding the span
// observer, and the per-trace replay.
func TestSmoke(t *testing.T) {
	cfg := &config{seed: 1, workers: 2, minReps: 1, setups: 1, scale: 32, outDir: t.TempDir()}
	if testing.Short() {
		cfg.scale = 64 // the simulator runs ~15x slower under the race detector
	}
	for i := range workloads {
		w := &workloads[i]
		if testing.Short() && w.Name != "campaign-arm-par" && w.Name != "trace-check" {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			wr, err := runWorkload(context.Background(), w, cfg, -1)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range wr.Notes {
				t.Error(n)
			}
			if wr.Attempted < 1 || wr.Failed != 0 {
				t.Errorf("attempted %d, failed %d", wr.Attempted, wr.Failed)
			}
			seen := make(map[string]bool)
			for _, m := range wr.Metrics {
				if seen[m.Name] {
					t.Errorf("%s emitted twice", m.Name)
				}
				seen[m.Name] = true
				if m.N < 1 || m.Unit == "" || math.IsNaN(m.Median) {
					t.Errorf("%s: bad summary %+v", m.Name, m)
				}
			}
			if len(seen) != len(metricDefs) {
				t.Errorf("%d metrics emitted, %d registered", len(seen), len(metricDefs))
			}
			if v, _ := wr.metric("check.backends_agree"); v.Median != 1 {
				t.Error("check.backends_agree is not 1")
			}
			if v, _ := wr.metric("check.bug_detected"); v.Median != 1 {
				t.Error("check.bug_detected is not 1")
			}
			checkTraceFile(t, filepath.Join(cfg.outDir, w.Name+".trace.json"), w.Name)
		})
	}
}

func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(events) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	byID := make(map[int]traceEvent, len(events))
	for _, e := range events {
		byID[e.Args.ID] = e
	}
	const slack = 0.002 // microseconds: ts and dur are rounded separately
	for _, e := range events {
		if e.Ph != "X" || e.Name == "" || e.Args.Workload != workload {
			t.Fatalf("%s: malformed event %+v", path, e)
		}
		if e.Args.Parent < 0 {
			continue
		}
		p, ok := byID[e.Args.Parent]
		if !ok {
			t.Fatalf("%s: span %d (%s) has no parent %d", path, e.Args.ID, e.Name, e.Args.Parent)
		}
		if e.TS < p.TS-slack || e.TS+e.Dur > p.TS+p.Dur+slack {
			t.Fatalf("%s: span %d (%s) [%v,+%v] is not inside its parent %s [%v,+%v]",
				path, e.Args.ID, e.Name, e.TS, e.Dur, p.Name, p.TS, p.Dur)
		}
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	m := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if m.P25 != 2.75 || m.Median != 5.5 || m.P75 != 8.25 || m.Min != 1 || m.Max != 10 || m.N != 10 {
		t.Errorf("got %+v", m)
	}
	if one := summarize([]float64{3}); one.P25 != 3 || one.Median != 3 || one.P75 != 3 {
		t.Errorf("single sample: %+v", one)
	}
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder("w")
	at := func(ms int) time.Time { return r.origin.Add(time.Duration(ms) * time.Millisecond) }
	r.add("root", -1, 0, at(0), at(100))
	r.add("a", 0, 1, at(10), at(50))
	r.add("a", 0, 2, at(30), at(70)) // overlaps the first on another lane
	r.add("b", 1, 1, at(20), at(30))
	self, count := r.selfTimes(0)
	if self["root"] != 40*time.Millisecond || self["a"] != 70*time.Millisecond || self["b"] != 10*time.Millisecond {
		t.Errorf("self times %v", self)
	}
	if count["a"] != 2 || count["root"] != 1 {
		t.Errorf("counts %v", count)
	}
}

// synthetic builds a one-workload result whose ops_per_s reps are the given
// samples; every other setting is identical between calls.
func synthetic(t *testing.T, dir, name string, opsPerS []float64, mutate func(*resultFile)) string {
	t.Helper()
	put := func(name string, vals ...float64) metric {
		m := summarize(vals)
		d := registry[name]
		m.Name, m.Kind, m.Unit, m.Better = d.Name, d.Kind, d.Unit, d.Better
		return m
	}
	r := resultFile{
		Host: hostInfo{CPUModel: "test cpu", NumCPU: 2, GOMAXPROCS: 2}, Seed: 1, Seconds: 12, Workers: 2,
		Workloads: []workloadResult{{
			Name: "campaign-x86", Attempted: 100,
			Metrics: []metric{
				put("ops_per_s", opsPerS...),
				put("allocs_per_op", 6.5, 6.5, 6.5),
				put("failed_frac", 0),
				put("sim.cycles_per_iter", 3958),
				put("harness.ref_kernel_ms", 44, 44.2),
			},
		}},
	}
	if mutate != nil {
		mutate(&r)
	}
	path := filepath.Join(dir, name)
	if err := writeJSON(path, r); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiff(t *testing.T) {
	dir := t.TempDir()
	base := synthetic(t, dir, "base.json", []float64{1000, 1010, 990, 1005, 995}, nil)
	verdictOf := func(out string, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == metric {
				return f[len(f)-1]
			}
		}
		return "absent"
	}
	cases := []struct {
		name      string
		opsPerS   []float64
		mutate    func(*resultFile)
		want      string
		regressed bool
		contains  string
	}{
		{name: "unchanged", opsPerS: []float64{1002, 1011, 992, 1003, 996}, want: verdictUnchanged},
		{name: "regressed", opsPerS: []float64{700, 705, 695, 702, 698}, want: verdictRegressed, regressed: true},
		{name: "improved", opsPerS: []float64{1400, 1410, 1390, 1405, 1395}, want: verdictImproved},
		// A spread of 60 % hides the 25 % bound, and the two sides overlap.
		{name: "unresolved", opsPerS: []float64{500, 1500, 800, 1200, 1000}, want: verdictUnresolved},
		// As wide, but every rep is below every rep of the base.
		{name: "wide-but-disjoint", opsPerS: []float64{200, 700, 300, 600, 450}, want: verdictRegressed, regressed: true},
		{name: "host-moved", opsPerS: []float64{700, 705, 695, 702, 698}, want: verdictUnresolved,
			mutate: func(r *resultFile) {
				for i, m := range r.Workloads[0].Metrics {
					if m.Name == "harness.ref_kernel_ms" {
						r.Workloads[0].Metrics[i].Median = 50
					}
				}
			}, contains: "host moved"},
		{name: "exact-changed", opsPerS: []float64{1000, 1010, 990, 1005, 995}, want: verdictUnchanged,
			mutate: func(r *resultFile) {
				for i, m := range r.Workloads[0].Metrics {
					if m.Name == "sim.cycles_per_iter" {
						r.Workloads[0].Metrics[i].Median = 4000
					}
				}
			}, contains: "simulated statistics changed"},
		{name: "failed-ops", opsPerS: []float64{1000, 1010, 990, 1005, 995}, want: verdictUnchanged, regressed: true,
			mutate: func(r *resultFile) { r.Workloads[0].Failed = 3 }, contains: "failed ops"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			change := synthetic(t, dir, c.name+".json", c.opsPerS, c.mutate)
			var out bytes.Buffer
			regressed, err := diffFiles(&out, base, change, false)
			if err != nil {
				t.Fatal(err)
			}
			if got := verdictOf(out.String(), "ops_per_s"); got != c.want {
				t.Errorf("ops_per_s: %s, want %s\n%s", got, c.want, out.String())
			}
			if got := verdictOf(out.String(), "allocs_per_op"); got != verdictUnchanged {
				t.Errorf("allocs_per_op: %s, want unchanged", got)
			}
			if regressed != c.regressed {
				t.Errorf("regressed = %v, want %v", regressed, c.regressed)
			}
			if !strings.Contains(out.String(), c.contains) {
				t.Errorf("output lacks %q:\n%s", c.contains, out.String())
			}
		})
	}

	t.Run("host-mismatch", func(t *testing.T) {
		other := synthetic(t, dir, "other-host.json", []float64{1000, 1010, 990, 1005, 995},
			func(r *resultFile) { r.Host.CPUModel = "another cpu"; r.Seed = 2 })
		var out bytes.Buffer
		if _, err := diffFiles(&out, base, other, false); err == nil || !strings.Contains(err.Error(), "cpu_model") || !strings.Contains(err.Error(), "seed") {
			t.Errorf("mismatched hosts compared without -force: err = %v", err)
		}
		if _, err := diffFiles(&out, base, other, true); err != nil {
			t.Errorf("-force: %v", err)
		}
	})
}
