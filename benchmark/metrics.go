// The metric catalogue. BENCHMARK.json at the repository root states the same
// names, units and bounds for the driver; the smoke test holds the two equal.
package main

// metricDef names one metric. Bound is the share of the old median by which
// an end-to-end metric may get worse before -compare calls it a regression;
// per-layer metrics have none. Lower is better for every end-to-end metric.
type metricDef struct {
	Name  string
	Unit  string
	Bound float64
}

// Every bound is the driver's maximum, and that is a measured figure, not a
// default. A bound has to exceed the shift between two back-to-back sets of
// runs of one commit, or the driver refuses the benchmark and later rejects
// changes that did nothing. On this shared 2-core VM that shift reached 18 %
// on ns_per_packet and 12–22 % on every other metric (ctl-wan, whose working
// set is the largest, twice in five pairs of sets), while the spread inside a
// set is typically 3–9 % (README, "Run-to-run spread"). The issue asked for
// 5 % on ns_per_packet and 10 % elsewhere; the resolution for a claim comes
// from alternating pairs of runs, which cancel the host's drift, not from
// this bound. Tighten the bounds on a host whose spread.py output allows it.
var endToEnd = []metricDef{
	{"ns_per_packet", "ns", 0.25},
	{"par_scr_ns_per_packet", "ns", 0.25},
	{"latency_p50_us", "us", 0.25},
	{"cold_to_packet_ms", "ms", 0.25},
	{"edit_to_packet_ms", "ms", 0.25},
	{"shift_to_packet_ms", "ms", 0.25},
	{"setup_s", "s", 0.25},
}

var perLayer = []metricDef{
	// The packet path.
	{Name: "netasm.visit_ns", Unit: "ns"},
	{Name: "netasm.instrs_per_program", Unit: "count"},
	{Name: "rules.programs_distinct", Unit: "count"},
	{Name: "rules.instrs_total", Unit: "count"},
	{Name: "dataplane.visits_per_packet", Unit: "count"},
	{Name: "dataplane.hops_per_packet", Unit: "count"},
	{Name: "dataplane.suspends_per_packet", Unit: "count"},
	{Name: "dataplane.drop_share", Unit: "share"},
	{Name: "state.entries", Unit: "count"},
	{Name: "dataplane.network_ns_per_packet", Unit: "ns"},
	{Name: "dataplane.walk_self_ns", Unit: "ns"},
	{Name: "dataplane.engine_self_ns", Unit: "ns"},
	{Name: "dataplane.batch_ns_per_packet", Unit: "ns"},
	{Name: "dataplane.collect_self_ns", Unit: "ns"},
	{Name: "dataplane.latency_p99_us", Unit: "us"},
	{Name: "dataplane.allocs_per_packet", Unit: "count"},
	{Name: "dataplane.bytes_per_packet", Unit: "B"},
	{Name: "dataplane.par_locks_ns_per_packet", Unit: "ns"},
	{Name: "dataplane.lock_suspends_per_kpkt", Unit: "count"},
	{Name: "dataplane.lock_wait_share", Unit: "share"},
	{Name: "dataplane.par_locks_speedup", Unit: "x"},
	{Name: "dataplane.par_scr_speedup", Unit: "x"},
	{Name: "dataplane.scr_linked", Unit: "count"},
	{Name: "semantics.eval_ns", Unit: "ns"},
	// Cold start, phase by phase.
	{Name: "parser.parse_ms", Unit: "ms"},
	{Name: "deps.p1_ms", Unit: "ms"},
	{Name: "xfdd.p2_ms", Unit: "ms"},
	{Name: "psmap.p3_ms", Unit: "ms"},
	{Name: "place.p4_ms", Unit: "ms"},
	{Name: "place.p5_ms", Unit: "ms"},
	{Name: "rules.p6_ms", Unit: "ms"},
	{Name: "netasm.link_ms", Unit: "ms"},
	{Name: "dataplane.engine_build_ms", Unit: "ms"},
	{Name: "xfdd.nodes", Unit: "count"},
	{Name: "xfdd.leaves", Unit: "count"},
	{Name: "psmap.pairs", Unit: "count"},
	// The live edit.
	{Name: "core.edit_compile_ms", Unit: "ms"},
	{Name: "ctrl.plan_ms", Unit: "ms"},
	{Name: "dataplane.swap_ms", Unit: "ms"},
	{Name: "dataplane.probe_us", Unit: "us"},
	{Name: "xfdd.edit_p2_ms", Unit: "ms"},
	{Name: "place.edit_p5_ms", Unit: "ms"},
	{Name: "rules.edit_p6_ms", Unit: "ms"},
	{Name: "xfdd.edit_reused_node_share", Unit: "share"},
	{Name: "place.edit_pinned_group_share", Unit: "share"},
	{Name: "rules.edit_reused_program_share", Unit: "share"},
	{Name: "rules.edit_dirty_switch_share", Unit: "share"},
	// The matrix shift.
	{Name: "place.shift_p5_ms", Unit: "ms"},
	{Name: "rules.shift_p6_ms", Unit: "ms"},
	{Name: "dataplane.shift_swap_ms", Unit: "ms"},
	{Name: "ctrl.shift_moves", Unit: "count"},
	// Tails, memory and the cost of looking.
	{Name: "ctrl.edit_to_packet_p90_ms", Unit: "ms"},
	{Name: "ctrl.cold_to_packet_p90_ms", Unit: "ms"},
	{Name: "runtime.gc_share", Unit: "share"},
	{Name: "runtime.peak_heap_mb", Unit: "MB"},
	{Name: "trace.overhead_share", Unit: "share"},
}

// exactCounts are the per-layer metrics that must repeat exactly under one
// seed: they are counts of what the compiler produced and of what one pass
// of the trace did, not timings.
var exactCounts = []string{
	"netasm.instrs_per_program", "rules.programs_distinct", "rules.instrs_total",
	"dataplane.visits_per_packet", "dataplane.hops_per_packet", "dataplane.suspends_per_packet",
	"dataplane.drop_share", "state.entries", "dataplane.scr_linked",
	"xfdd.nodes", "xfdd.leaves", "psmap.pairs",
	"xfdd.edit_reused_node_share", "place.edit_pinned_group_share",
	"rules.edit_reused_program_share", "rules.edit_dirty_switch_share", "ctrl.shift_moves",
}
