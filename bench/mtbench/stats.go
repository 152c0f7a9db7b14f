package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported number: the summary of its samples plus the
// registry facts a reader (or -diff) needs to interpret it.
type metric struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`   // "e2e" or "layer"
	Unit   string  `json:"unit"`   // see metricDef.Unit
	Better string  `json:"better"` // "higher", "lower", "exact" or "info"
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// quantile returns the q-quantile of sorted samples by the method Python's
// statistics.quantiles(method="exclusive") uses, so spreads computed here
// and by the driver agree.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(math.Floor(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// summarize fills a metric's sample summary. vals must be non-empty.
func summarize(vals []float64) (m metric) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m.Median = quantile(s, 0.5)
	m.P25 = quantile(s, 0.25)
	m.P75 = quantile(s, 0.75)
	m.Min, m.Max, m.N = s[0], s[len(s)-1], len(s)
	return m
}

func median(vals []float64) float64 { return summarize(vals).Median }

// results collects one workload's metrics. Every name must be in the
// registry and may be put once; violations are kept for the caller (and the
// smoke test) to report instead of silently producing a different metric set.
type results struct {
	byName   map[string]metric
	problems []string
}

func newResults() *results { return &results{byName: make(map[string]metric)} }

func (r *results) put(name string, vals ...float64) {
	def, ok := registry[name]
	if !ok {
		r.problems = append(r.problems, "unregistered metric "+name)
		return
	}
	if _, dup := r.byName[name]; dup {
		r.problems = append(r.problems, "metric emitted twice: "+name)
		return
	}
	if len(vals) == 0 {
		r.problems = append(r.problems, "metric without samples: "+name)
		return
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problems = append(r.problems, fmt.Sprintf("metric %s has a non-finite sample", name))
			return
		}
	}
	m := summarize(vals)
	m.Name, m.Kind, m.Unit, m.Better = def.Name, def.Kind, def.Unit, def.Better
	r.byName[name] = m
}

// value returns a metric's median, or 0 when it was not emitted.
func (r *results) value(name string) float64 { return r.byName[name].Median }

// ratio is a/b with 0 for an empty denominator: per-count metrics of a
// workload that has none of the counted thing read 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ns(d time.Duration) float64      { return float64(d.Nanoseconds()) }
func us(d time.Duration) float64      { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64      { return float64(d.Nanoseconds()) / 1e6 }
func seconds(d time.Duration) float64 { return d.Seconds() }

func durations(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}
