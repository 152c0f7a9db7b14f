package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -diff for one end-to-end metric on one workload.
const (
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// refKernelTolerance is how far harness.ref_kernel_ms may differ between two
// results before their timings stop being comparable. The end-to-end
// timings are already scaled by the kernel, which takes a difference out to
// first order (it halved the measured spread); past 10 % what is left is of
// the size of the bounds.
const refKernelTolerance = 0.10

// hostSensitive are the end-to-end metrics a slower or busier host moves: the
// timings, and the peak heap, because the collector runs concurrently on the
// second CPU and a neighbour that takes it lets the heap grow further before
// a cycle ends (trace-check read 15.7 and 18.8 MiB in a quiet and a contended
// phase of one session).
var hostSensitive = map[string]bool{
	"ops_per_s": true, "uniques_per_s": true, "cpu_s_per_kop": true, "setup_s": true, "peak_heap_mb": true,
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// settingsDiffer lists the settings two results must share for their numbers to
// mean the same thing.
func settingsDiffer(a, b *resultFile) []string {
	var diffs []string
	add := func(name string, x, y any) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	add("cpu_model", a.Host.CPUModel, b.Host.CPUModel)
	add("num_cpu", a.Host.NumCPU, b.Host.NumCPU)
	add("gomaxprocs", a.Host.GOMAXPROCS, b.Host.GOMAXPROCS)
	add("workers", a.Workers, b.Workers)
	add("seed", a.Seed, b.Seed)
	add("seconds", a.Seconds, b.Seconds)
	return diffs
}

// spread is a metric's interquartile range as a share of its median.
func spread(m metric) float64 { return ratio(m.P75-m.P25, math.Abs(m.Median)) }

// judge compares one end-to-end metric: a is the base, b the change. worse
// is the relative worsening of the median (negative when b is better).
func judge(a, b metric, bound float64, hostMoved bool) (verdict string, worse float64) {
	worse = ratio(b.Median-a.Median, math.Abs(a.Median))
	bBeatsAll, aBeatsAll := b.Max < a.Min, a.Max < b.Min
	if a.Better == higher {
		worse = -worse
		bBeatsAll, aBeatsAll = b.Min > a.Max, a.Min > b.Max
	}
	if a.Better == exact {
		if a.Median != b.Median {
			return verdictRegressed, worse
		}
		return verdictUnchanged, 0
	}
	if hostMoved && hostSensitive[a.Name] {
		return verdictUnresolved, worse
	}
	// A spread wider than the bound hides a change of the bound's size —
	// unless the two sides do not overlap at all.
	if (spread(a) > bound || spread(b) > bound) && !bBeatsAll && !aBeatsAll {
		return verdictUnresolved, worse
	}
	switch {
	case worse > bound:
		return verdictRegressed, worse
	case worse < -bound:
		return verdictImproved, worse
	}
	return verdictUnchanged, worse
}

// diffFiles prints the comparison of two result files and reports whether
// anything regressed or failed.
func diffFiles(w io.Writer, pathA, pathB string, force bool) (regressed bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	if diffs := settingsDiffer(a, b); len(diffs) > 0 {
		if !force {
			return false, fmt.Errorf("results are not comparable (%v); -force compares them anyway", diffs)
		}
		fmt.Fprintf(w, "forced comparison across: %v\n", diffs)
	}
	fmt.Fprintf(w, "A: %s  commit %s\nB: %s  commit %s\n", pathA, a.Commit, pathB, b.Commit)
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		var wb *workloadResult
		for j := range b.Workloads {
			if b.Workloads[j].Name == wa.Name {
				wb = &b.Workloads[j]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "\n== %s: missing from B\n", wa.Name)
			continue
		}
		fmt.Fprintf(w, "\n== %s\n", wa.Name)
		hostMoved := false
		ra, okA := wa.metric("harness.ref_kernel_ms")
		rb, okB := wb.metric("harness.ref_kernel_ms")
		if okA && okB {
			if d := math.Abs(ratio(rb.Median-ra.Median, ra.Median)); d > refKernelTolerance {
				hostMoved = true
				fmt.Fprintf(w, "host moved: harness.ref_kernel_ms %.4g -> %.4g ms (%+.1f%%): timings and peak heap unresolved\n",
					ra.Median, rb.Median, 100*ratio(rb.Median-ra.Median, ra.Median))
			}
		}
		fmt.Fprintf(w, "%-18s %14s %14s %-6s %22s  %s\n", "metric", "A median", "B median", "unit", "worse by (of A)", "verdict")
		var exactDiffs []string
		for _, ma := range wa.Metrics {
			mb, ok := wb.metric(ma.Name)
			if !ok {
				continue
			}
			if ma.Kind == kindLayer {
				if ma.Better == exact && ma.Median != mb.Median {
					exactDiffs = append(exactDiffs, fmt.Sprintf("%s: %v -> %v %s", ma.Name, ma.Median, mb.Median, ma.Unit))
				}
				continue
			}
			verdict, worse := judge(ma, mb, registry[ma.Name].Bound, hostMoved)
			if ma.Name == "failed_frac" && (ma.Median != 0 || mb.Median != 0) {
				verdict = verdictRegressed
			}
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(w, "%-18s %14.6g %14.6g %-6s %+13.2f%% of %-7.4g %s\n",
				ma.Name, ma.Median, mb.Median, ma.Unit, 100*worse, ma.Median, verdict)
		}
		if len(exactDiffs) > 0 {
			fmt.Fprintln(w, "simulated statistics changed:")
			for _, d := range exactDiffs {
				fmt.Fprintln(w, "  "+d)
			}
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			regressed = true
			fmt.Fprintf(w, "failed ops: A %d of %d, B %d of %d\n", wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
	}
	return regressed, nil
}
