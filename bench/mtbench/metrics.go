package main

// metricDef is one registry entry: the name every later performance claim
// must use, and what the number means.
type metricDef struct {
	Name   string
	Kind   string  // "e2e": untraced pass; "layer": traced pass
	Unit   string  // at most 16 of [A-Za-z0-9_/%.-], as BENCHMARK.json requires
	Better string  // "higher", "lower", "exact" (must repeat bit for bit) or "info"
	Bound  float64 // e2e only: relative worsening of the median that is a regression
	Moves  string  // layer only: the end-to-end metric @ workload it should move
}

const (
	kindE2E   = "e2e"
	kindLayer = "layer"

	higher = "higher"
	lower  = "lower"
	exact  = "exact"
	info   = "info"
)

// metricDefs is the registry. BENCHMARK.json lists the same names (the smoke
// test compares the two); failed_frac is the one end-to-end metric kept out
// of BENCHMARK.json, because the driver's contract wants metrics that are
// never 0 and carries failures as attempted/failed instead.
var metricDefs = []metricDef{
	// End to end: what a user of a campaign, an offline check or a trace
	// check sees. Same names on every workload.
	{Name: "ops_per_s", Kind: kindE2E, Unit: "op/s", Better: higher, Bound: 0.25},
	{Name: "uniques_per_s", Kind: kindE2E, Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "cpu_s_per_kop", Kind: kindE2E, Unit: "s", Better: lower, Bound: 0.25},
	{Name: "allocs_per_op", Kind: kindE2E, Unit: "count", Better: lower, Bound: 0.10},
	{Name: "alloc_kb_per_op", Kind: kindE2E, Unit: "KiB", Better: lower, Bound: 0.10},
	{Name: "peak_heap_mb", Kind: kindE2E, Unit: "MiB", Better: lower, Bound: 0.20},
	{Name: "setup_s", Kind: kindE2E, Unit: "s", Better: lower, Bound: 0.25},
	{Name: "failed_frac", Kind: kindE2E, Unit: "frac", Better: exact},

	{Name: "testgen.generate_ms", Kind: kindLayer, Unit: "ms", Better: lower, Moves: "setup_s @ all (negligible)"},

	{Name: "instrument.analyze_ms", Kind: kindLayer, Unit: "ms", Better: lower, Moves: "setup_s @ all"},
	{Name: "instrument.encode_ns_per_iter", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ campaign-* (< 0.5 %)"},
	{Name: "instrument.decode_ns_per_unique", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ offline-check (~2 %), campaign-arm-par"},

	{Name: "eventq.push_pop_ns_d32", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ campaign-x86, campaign-x86-contended"},
	{Name: "eventq.push_pop_ns_d512", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ campaign-x86, campaign-x86-contended"},

	{Name: "mem.read_hit_ns", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ campaign-x86"},
	{Name: "mem.read_miss_ns", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ campaign-x86"},
	{Name: "mem.c2c_transfer_ns", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ campaign-x86-contended"},
	{Name: "mem.upgrade_ns", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ campaign-x86-contended"},
	{Name: "mem.events_per_miss", Kind: kindLayer, Unit: "count", Better: exact, Moves: "mem.read_miss_ns"},
	{Name: "mem.hits_per_iter", Kind: kindLayer, Unit: "count", Better: exact, Moves: "sim.cycles_per_iter"},
	{Name: "mem.misses_per_iter", Kind: kindLayer, Unit: "count", Better: exact, Moves: "sim.cycles_per_iter"},
	{Name: "mem.msgs_per_iter", Kind: kindLayer, Unit: "count", Better: exact, Moves: "sim.run_us_per_iter_p50"},
	{Name: "mem.invals_per_iter", Kind: kindLayer, Unit: "count", Better: exact, Moves: "sim.squashes_per_iter"},
	{Name: "mem.writebacks_per_iter", Kind: kindLayer, Unit: "count", Better: exact, Moves: "sim.cycles_per_iter"},
	{Name: "mem.stalls_per_iter", Kind: kindLayer, Unit: "count", Better: exact, Moves: "sim.cycles_per_iter"},
	{Name: "mem.ns_per_msg", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ campaign-x86-contended"},

	{Name: "sim.runner_setup_ms", Kind: kindLayer, Unit: "ms", Better: lower, Moves: "setup_s @ all; ops_per_s @ campaign-* (one NewRunner per worker per Run)"},
	{Name: "sim.run_us_per_iter_p50", Kind: kindLayer, Unit: "us", Better: lower, Moves: "ops_per_s, uniques_per_s, cpu_s_per_kop @ campaign-*; setup_s @ offline-check, trace-check"},
	{Name: "sim.run_us_per_iter_p99", Kind: kindLayer, Unit: "us", Better: lower, Moves: "ops_per_s @ campaign-arm-par (slowest chunk)"},
	{Name: "sim.cycles_per_iter", Kind: kindLayer, Unit: "count", Better: exact, Moves: "sim.run_us_per_iter_p50"},
	{Name: "sim.squashes_per_iter", Kind: kindLayer, Unit: "count", Better: exact, Moves: "sim.run_us_per_iter_p50 @ campaign-x86-contended"},
	{Name: "sim.ns_per_cycle", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ campaign-*"},
	{Name: "sim.ns_per_memop", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ campaign-*"},
	{Name: "sim.share_of_rep", Kind: kindLayer, Unit: "frac", Better: info, Moves: "bounds what a sim speed-up can save @ campaign-*; 0 @ offline-check, trace-check"},

	{Name: "sig.add_hit_ns", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ campaign-x86"},
	{Name: "sig.add_miss_ns", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ campaign-x86-contended"},
	{Name: "sig.uniques_per_kiter", Kind: kindLayer, Unit: "count", Better: exact, Moves: "uniques_per_s @ campaign-*"},
	{Name: "sig.sort_ns_per_unique", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ offline-check (read+sort ~2 %)"},
	{Name: "sig.merge_ns_per_unique", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ campaign-arm-par"},
	{Name: "sig.write_ns_per_unique", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "setup_s @ offline-check"},
	{Name: "sig.read_ns_per_unique", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ offline-check"},

	{Name: "graph.builder_setup_us", Kind: kindLayer, Unit: "us", Better: lower, Moves: "ops_per_s @ trace-check (one NewBuilder per trace)"},
	{Name: "graph.static_edges", Kind: kindLayer, Unit: "count", Better: exact, Moves: "check.*_ns_per_graph"},
	{Name: "graph.edges_per_graph", Kind: kindLayer, Unit: "count", Better: exact, Moves: "graph.edges_ns_per_unique"},
	{Name: "graph.edges_ns_per_unique", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ offline-check (largest share), trace-check, campaign-arm-par; not campaign-x86"},

	{Name: "check.collective_ns_per_graph", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s @ offline-check (~27 %), campaign-arm-par (~2 %)"},
	{Name: "check.conventional_ns_per_graph", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "nothing until the default backend changes"},
	{Name: "check.incremental_ns_per_graph", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "nothing until the default backend changes"},
	{Name: "check.vectorclock_ns_per_graph", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "nothing until the default backend changes"},
	{Name: "check.constraints_ns_per_graph", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "nothing until the default backend changes"},
	{Name: "check.collective_resort_ratio", Kind: kindLayer, Unit: "ratio", Better: exact, Moves: "check.collective_ns_per_graph"},
	{Name: "check.collective_noresort_frac", Kind: kindLayer, Unit: "frac", Better: exact, Moves: "check.collective_ns_per_graph"},
	{Name: "check.backends_agree", Kind: kindLayer, Unit: "bool", Better: exact, Moves: "gate: must be 1"},
	{Name: "check.bug_detected", Kind: kindLayer, Unit: "bool", Better: exact, Moves: "gate: must be 1"},

	{Name: "corpus.open_ms", Kind: kindLayer, Unit: "ms", Better: lower, Moves: "none today (no untraced rep attaches a corpus)"},
	{Name: "corpus.contains_ns", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "none today"},
	{Name: "corpus.add_ns", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "none today"},
	{Name: "corpus.flush_ms", Kind: kindLayer, Unit: "ms", Better: lower, Moves: "none today"},
	{Name: "corpus.warm_check_speedup", Kind: kindLayer, Unit: "ratio", Better: higher, Moves: "none today; ROADMAP item 3's keep-or-demote evidence"},

	{Name: "trace.ops_per_trace", Kind: kindLayer, Unit: "count", Better: exact, Moves: "trace.check_us_per_trace"},
	{Name: "trace.parse_ns_per_op", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s, allocs_per_op @ trace-check"},
	{Name: "trace.bind_ns_per_op", Kind: kindLayer, Unit: "ns", Better: lower, Moves: "ops_per_s, allocs_per_op @ trace-check"},
	{Name: "trace.check_us_per_trace", Kind: kindLayer, Unit: "us", Better: lower, Moves: "ops_per_s @ trace-check"},
	{Name: "trace.latency_us_p50", Kind: kindLayer, Unit: "us", Better: lower, Moves: "ops_per_s @ trace-check"},
	{Name: "trace.latency_us_p99", Kind: kindLayer, Unit: "us", Better: lower, Moves: "ops_per_s @ trace-check"},

	{Name: "obs.metrics_overhead_frac", Kind: kindLayer, Unit: "frac", Better: lower, Moves: "ops_per_s @ campaign-* once past ROADMAP item 5's 2 % budget"},

	{Name: "campaign.execute_busy_s", Kind: kindLayer, Unit: "s", Better: lower, Moves: "ops_per_s @ campaign-*"},
	{Name: "campaign.merge_busy_s", Kind: kindLayer, Unit: "s", Better: lower, Moves: "ops_per_s @ campaign-*"},
	{Name: "campaign.decode_busy_s", Kind: kindLayer, Unit: "s", Better: lower, Moves: "ops_per_s @ offline-check, campaign-x86-contended"},
	{Name: "campaign.check_busy_s", Kind: kindLayer, Unit: "s", Better: lower, Moves: "ops_per_s @ offline-check, trace-check"},
	{Name: "campaign.self_s", Kind: kindLayer, Unit: "s", Better: lower, Moves: "ops_per_s @ campaign-* when ROADMAP item 3 merges the two mergers"},
	{Name: "campaign.chunk_exec_ms_p50", Kind: kindLayer, Unit: "ms", Better: lower, Moves: "ops_per_s @ campaign-*"},
	{Name: "campaign.chunk_exec_ms_p95", Kind: kindLayer, Unit: "ms", Better: lower, Moves: "campaign.parallel_efficiency @ campaign-arm-par"},
	{Name: "campaign.new_campaign_us", Kind: kindLayer, Unit: "us", Better: lower, Moves: "setup_s @ campaign-*; ops_per_s @ offline-check"},
	{Name: "campaign.parallel_efficiency", Kind: kindLayer, Unit: "frac", Better: higher, Moves: "ops_per_s, cpu_s_per_kop @ campaign-arm-par"},
	{Name: "campaign.chunk_api_ratio", Kind: kindLayer, Unit: "ratio", Better: lower, Moves: "ops_per_s @ campaign-* when ROADMAP item 3 merges the two mergers"},
	{Name: "campaign.replay_sum_frac", Kind: kindLayer, Unit: "frac", Better: info, Moves: "none; ~1 says the layer costs add up to the rep"},
	{Name: "campaign.tracing_overhead_frac", Kind: kindLayer, Unit: "frac", Better: info, Moves: "none; cost of the observer-traced rep"},

	{Name: "harness.ref_kernel_ms", Kind: kindLayer, Unit: "ms", Better: info, Moves: "none; says whether the host moved"},
	{Name: "harness.rep_spread", Kind: kindLayer, Unit: "frac", Better: info, Moves: "none; says whether the host moved"},
	{Name: "harness.reps", Kind: kindLayer, Unit: "count", Better: info, Moves: "none"},
	{Name: "harness.workers", Kind: kindLayer, Unit: "count", Better: info, Moves: "none"},
	{Name: "harness.gc_cycles_per_rep", Kind: kindLayer, Unit: "count", Better: info, Moves: "alloc_kb_per_op"},
}

var registry = func() map[string]metricDef {
	m := make(map[string]metricDef, len(metricDefs))
	for _, d := range metricDefs {
		m[d.Name] = d
	}
	return m
}()
