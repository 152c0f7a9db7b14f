// Command mtbench is this repository's benchmark: the names every
// performance claim must use, measured by one process.
//
//	go run ./bench/mtbench -seed 1                 # five workloads, both passes
//	go run ./bench/mtbench -diff A.json B.json     # noise-aware comparison
//
// For each workload it makes an untraced pass — closed loop, one caller, the
// end-to-end metrics — and then a separate traced pass that replays the same
// pipeline layer by layer through the layers' public functions, recording
// spans (written as <out-dir>/<workload>.trace.json, Chrome trace_event) and
// deriving the per-layer metrics. Nothing inside the program is instrumented.
// See bench/README.md for the workload and metric tables.
//
// With -workload it runs one workload and one pass (-trace 0 or 1) and
// prints, as the last line of standard output, the JSON object
// BENCHMARK.json's driver reads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostInfo says where a result was measured; -diff refuses to compare
// results whose hosts differ.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name      string   `json:"name"`
	Op        string   `json:"op"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes,omitempty"` // failed gates and determinism checks
	Metrics   []metric `json:"metrics"`
}

func (w *workloadResult) metric(name string) (metric, bool) {
	for _, m := range w.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// resultFile is <out-dir>/result-seed<N>.json.
type resultFile struct {
	Host      hostInfo         `json:"host"`
	Commit    string           `json:"commit"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workers   int              `json:"workers"`
	Workloads []workloadResult `json:"workloads"`
}

func main() {
	var (
		cfg      config
		only     = flag.String("workload", "", "run only this workload and print the driver's JSON object as the last line")
		pass     = flag.Int("trace", -1, "pass to run: 0 untraced (end-to-end metrics), 1 traced (per-layer metrics), -1 both")
		smoke    = flag.Bool("smoke", false, "tiny configuration (1 rep, 64 iterations, 16 traces) for the smoke test; numbers are not comparable")
		diffMode = flag.Bool("diff", false, "compare two result files: mtbench -diff [-force] A.json B.json")
		force    = flag.Bool("force", false, "with -diff: compare results from different hosts or settings")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "campaign seed: the platform's timing non-determinism (the test programs are pinned)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "untraced measuring time per workload")
	flag.IntVar(&cfg.workers, "workers", min(runtime.NumCPU(), 4), "W: workers of campaign-arm-par and of offline-check's collection")
	flag.StringVar(&cfg.outDir, "out-dir", filepath.Join(".bench_build", "mtbench-out"), "directory for the result file, the trace files and scratch files")
	flag.Parse()

	if *diffMode {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: mtbench -diff [-force] A.json B.json"))
		}
		regressed, err := diffFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *force)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	cfg.minReps, cfg.setups, cfg.scale = 5, 3, 1
	if *smoke {
		cfg.minReps, cfg.setups, cfg.scale, cfg.seconds = 1, 1, 32, 0
	}
	selected := workloads
	if *only != "" {
		w := workloadByName(*only)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *only))
		}
		selected = []workload{*w}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}

	res := resultFile{Host: host(), Commit: commit(), Seed: cfg.seed, Seconds: cfg.seconds, Workers: cfg.workers}
	ok := true
	for i := range selected {
		wr, err := runWorkload(context.Background(), &selected[i], &cfg, *pass)
		if err != nil {
			fatal(err)
		}
		res.Workloads = append(res.Workloads, *wr)
		printTable(wr)
		ok = ok && wr.Failed == 0 && len(wr.Notes) == 0
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-seed%d.json", cfg.seed))
	if err := writeJSON(path, res); err != nil {
		fatal(err)
	}
	fmt.Printf("\nresult: %s\n", path)
	if *only != "" {
		printDriverLine(&res.Workloads[0], *pass)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mtbench:", err)
	os.Exit(2)
}

// runWorkload makes the requested passes over one workload. A traced pass
// on its own still sets the workload up and makes one untraced rep; it
// alternates further untraced reps with its traced ones.
func runWorkload(ctx context.Context, w *workload, cfg *config, pass int) (*workloadResult, error) {
	out := newResults()
	wr := &workloadResult{Name: w.Name, Op: w.Op}
	ucfg := *cfg
	if pass == 1 {
		ucfg.setups, ucfg.seconds, ucfg.minReps = 1, 0, 1
	}
	u, err := runUntraced(ctx, w, &ucfg, out)
	if err != nil {
		return nil, err
	}
	if pass != 1 {
		wr.Attempted, wr.Failed = u.attempted, u.failed
	}
	if pass != 0 {
		t, err := runTraced(ctx, u.in, u, out)
		if err != nil {
			return nil, err
		}
		wr.Attempted += t.attempted
		wr.Failed += t.failed
		wr.Notes = t.notes
	}
	wr.Notes = append(wr.Notes, out.problems...)
	for _, d := range metricDefs {
		if (d.Kind == kindE2E && pass == 1) || (d.Kind == kindLayer && pass == 0) {
			continue
		}
		if m, ok := out.byName[d.Name]; ok {
			wr.Metrics = append(wr.Metrics, m)
		} else {
			wr.Notes = append(wr.Notes, "metric not emitted: "+d.Name)
		}
	}
	return wr, nil
}

// printTable prints every metric of a workload by name with its unit.
func printTable(wr *workloadResult) {
	fmt.Printf("\n== %s (op = %s): attempted %d, failed %d\n", wr.Name, wr.Op, wr.Attempted, wr.Failed)
	fmt.Printf("%-36s %14s %-6s %14s %14s %5s\n", "metric", "median", "unit", "p25", "p75", "n")
	for _, m := range wr.Metrics {
		fmt.Printf("%-36s %14.6g %-6s %14.6g %14.6g %5d\n", m.Name, m.Median, m.Unit, m.P25, m.P75, m.N)
	}
	for _, n := range wr.Notes {
		fmt.Printf("FAILED: %s\n", n)
	}
}

// printDriverLine prints the one JSON object the benchmark driver reads:
// the end-to-end metrics of an untraced pass or the per-layer metrics of a
// traced one. failed_frac is not among them: the driver wants metrics that
// are never 0 and takes failures from attempted/failed.
func printDriverLine(wr *workloadResult, pass int) {
	kind := kindE2E
	if pass == 1 {
		kind = kindLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   wr.Failed == 0 && len(wr.Notes) == 0,
		Attempted: wr.Attempted, Failed: wr.Failed, Metrics: make(map[string]value),
	}
	for _, m := range wr.Metrics {
		if m.Kind == kind && m.Name != "failed_frac" {
			line.Metrics[m.Name] = value{m.Median, m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func host() hostInfo {
	h := hostInfo{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// commit is the revision the binary was built from: the build's VCS stamp,
// else git's answer, else "unknown" (the driver's checkout is no repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
