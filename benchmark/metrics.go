package main

import (
	"ndp"
	"ndp/scenario"
)

// metricDef names one reported metric. The catalogue below is the single
// source of the names, units, directions and regression bounds:
// BENCHMARK.json at the repo root repeats it for the driver, and
// TestCatalogueMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound, end-to-end only, is the share of the parent's value a change
	// may lose: the issue's limit, which -agree applies.
	Bound float64
	// DriverBound is the bound BENCHMARK.json carries when it is not Bound.
	// -agree can answer "unresolved" when the machine, not the program,
	// separates two timings; the driver cannot, and it refuses a benchmark
	// whose runs of one commit spread wider than a bound. The two host-time
	// metrics therefore carry in BENCHMARK.json the widest bound the driver
	// takes (README.md has the measurements); nothing else differs.
	DriverBound float64
}

// driverBound is the bound BENCHMARK.json carries for d.
func (d metricDef) driverBound() float64 {
	if d.DriverBound != 0 {
		return d.DriverBound
	}
	return d.Bound
}

// endToEnd are the metrics a user of the simulator sees. Every number is
// host time or host memory; every workload reports all of them. ops and
// ops_failed are the sixth and seventh end-to-end numbers: they are printed
// by name and travel as "attempted"/"failed" in the result line, because a
// regression bound cannot be a share of zero.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.15, DriverBound: 0.25},
	{Name: "wall_ms", Unit: "ms", Better: "lower", Bound: 0.10, DriverBound: 0.25},
	{Name: "allocs_per_iter", Unit: "count", Better: "lower", Bound: 0.01},
	{Name: "alloc_mb_per_iter", Unit: "MB", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// baselineTransports are the five non-NDP rows of the transport table; NDP's
// row is reported under the core layer, where its implementation lives.
var baselineTransports = []scenario.Transport{scenario.TCP, scenario.DCTCP, scenario.MPTCP, scenario.DCQCN, scenario.PHost}

// perLayer lists the per-layer metrics, layer by layer (layers are this
// repo's packages). Names starting scenario./fabric. that carry count or
// sim_us units are simulated quantities: deterministic for a seed and pinned
// by the output digests. Everything else is host time.
func perLayer() []metricDef {
	defs := []metricDef{
		// sim: traced replay of the workload's Spec.
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.events_per_hop", Unit: "ev/hop", Better: "lower"},
		{Name: "sim.run_ms", Unit: "ms", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "sim.mhops_per_sec", Unit: "Mhop/s", Better: "higher"},
		{Name: "sim.heap_depth_p50", Unit: "count", Better: "lower"},
		{Name: "sim.heap_depth_max", Unit: "count", Better: "lower"},
		// sim: micro-drivers.
		{Name: "sim.heap_ns_per_op", Unit: "ns", Better: "lower"},
		{Name: "sim.timer_reset_ns", Unit: "ns", Better: "lower"},
		// sim sharding: traced replay of the same Spec at Shards=2.
		{Name: "sim.shard.windows", Unit: "count", Better: "lower"},
		{Name: "sim.shard.events_per_window", Unit: "count", Better: "higher"},
		{Name: "sim.shard.exchange_ms", Unit: "ms", Better: "lower"},
		{Name: "sim.shard.imbalance_pct", Unit: "%", Better: "lower"},
		{Name: "sim.shard.cpu_ms", Unit: "ms", Better: "lower"},
		{Name: "sim.shard.speedup", Unit: "x", Better: "higher"},
		{Name: "sim.shard.window_ns", Unit: "ns", Better: "lower"},
		// fabric: model counters of the traced replay.
		{Name: "fabric.pkt_hops", Unit: "count", Better: "lower"},
		{Name: "fabric.trims", Unit: "count", Better: "lower"},
		{Name: "fabric.bounces", Unit: "count", Better: "lower"},
		{Name: "fabric.drops", Unit: "count", Better: "lower"},
		{Name: "fabric.marks", Unit: "count", Better: "lower"},
		{Name: "fabric.leaked", Unit: "count", Better: "lower"},
		// fabric: micro-drivers.
		{Name: "fabric.port_hop_ns", Unit: "ns", Better: "lower"},
		{Name: "fabric.switch_hop_ns", Unit: "ns", Better: "lower"},
		{Name: "fabric.arena_ns", Unit: "ns", Better: "lower"},
		{Name: "fabric.crossbox_ns", Unit: "ns", Better: "lower"},
		{Name: "fabric.queue_ns.fifo", Unit: "ns", Better: "lower"},
		{Name: "fabric.queue_ns.ecn", Unit: "ns", Better: "lower"},
		{Name: "fabric.queue_ns.ctrlprio", Unit: "ns", Better: "lower"},
		// topo.
		{Name: "topo.build_ms", Unit: "ms", Better: "lower"},
		{Name: "topo.paths_cold_us", Unit: "us", Better: "lower"},
		{Name: "topo.paths_warm_ns", Unit: "ns", Better: "lower"},
		{Name: "topo.collect_ms", Unit: "ms", Better: "lower"},
		// core: the NDP switch queue driver, the ladder residual, and NDP's
		// row of the transport table.
		{Name: "core.switchq_ns", Unit: "ns", Better: "lower"},
		{Name: "core.residual_ns_per_hop", Unit: "ns", Better: "lower"},
		{Name: "core.ns_per_hop", Unit: "ns", Better: "lower"},
		{Name: "core.events_per_hop", Unit: "ev/hop", Better: "lower"},
		{Name: "core.allocs_per_flow", Unit: "count", Better: "lower"},
	}
	for _, t := range baselineTransports {
		defs = append(defs,
			metricDef{Name: string(t) + ".ns_per_hop", Unit: "ns", Better: "lower"},
			metricDef{Name: string(t) + ".events_per_hop", Unit: "ev/hop", Better: "lower"},
			metricDef{Name: string(t) + ".allocs_per_flow", Unit: "count", Better: "lower"},
		)
	}
	defs = append(defs,
		metricDef{Name: "workload.generate_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "workload.flows_launched", Unit: "count", Better: "higher"},
		metricDef{Name: "workload.sample_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "stats.dist_ns_per_sample", Unit: "ns", Better: "lower"},
		metricDef{Name: "harness.build_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "harness.start_us_per_flow", Unit: "us", Better: "lower"},
		metricDef{Name: "harness.allocs_per_flow", Unit: "count", Better: "lower"},
		metricDef{Name: "harness.close_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "harness.runjobs_us_per_job", Unit: "us", Better: "lower"},
	)
	for _, id := range ndp.Experiments() {
		defs = append(defs, metricDef{Name: "harness.exp_ms." + id, Unit: "ms", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "scenario.validate_us", Unit: "us", Better: "lower"},
		metricDef{Name: "scenario.aggregate_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "scenario.overhead_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "scenario.util_pct", Unit: "%", Better: "higher"},
		metricDef{Name: "scenario.fct_p50_us", Unit: "sim_us", Better: "lower"},
		metricDef{Name: "scenario.fct_p99_us", Unit: "sim_us", Better: "lower"},
		metricDef{Name: "scenario.flows_completed", Unit: "count", Better: "higher"},
		metricDef{Name: "bench.iters", Unit: "count", Better: "higher"},
		metricDef{Name: "bench.noise_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "bench.calib_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "bench.ladder_explained_pct", Unit: "%", Better: "higher"},
	)
}
