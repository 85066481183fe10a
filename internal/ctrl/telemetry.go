// Control-plane telemetry: every completed controller action (drift
// reconfiguration, failover, restore, live policy edit) is recorded on the
// engine's registry three ways — per-phase compile-duration histograms
// labeled by recompilation scenario, a swap-latency histogram, and an
// event counter — plus a bounded span in the registry's SpanLog carrying
// the full phase breakdown for /debug/vars readers.
package ctrl

import (
	"time"

	"snap/internal/core"
	"snap/internal/telemetry"
)

// ObserveCompile files one recompilation's per-phase durations under its
// scenario label ("coldstart", "delta", "topotm", "failover", ...).
// Exported because compilations also happen outside the controller — the
// Deployment records its cold start through this. Nil-registry safe;
// phases the scenario skipped (zero duration) are not observed.
func ObserveCompile(reg *telemetry.Registry, scenario string, times core.PhaseTimes) {
	if reg == nil || scenario == "" {
		return
	}
	vec := reg.HistogramVec("snap_compile_phase_seconds",
		"Recompilation phase durations by scenario; phases a scenario skips are not observed.",
		1e-9, "scenario", "phase")
	for _, p := range compilePhases(times) {
		vec.With(scenario, p.Name).Observe(int64(p.Duration))
	}
	reg.HistogramVec("snap_compile_seconds",
		"Total recompilation duration (sum of executed phases) by scenario.",
		1e-9, "scenario").With(scenario).Observe(int64(times.Total()))
}

// observeDelta files a policy edit's exact xFDD work counters beside the
// phase histograms: composition contexts minted and apply-cache lookups by
// result. A climbing miss rate or contexts-per-edit says P2 has stopped
// sharing subproblems before the p2_xfdd histogram moves.
func observeDelta(reg *telemetry.Registry, d *core.DeltaReport) {
	if reg == nil || d == nil {
		return
	}
	reg.Counter("snap_xfdd_contexts_total",
		"Composition contexts minted by policy-edit translations.").Add(int64(d.Contexts))
	lookups := reg.CounterVec("snap_xfdd_apply_lookups_total",
		"Apply-cache lookups (union, seq, seqAS) by policy-edit translations, by result.",
		"result")
	lookups.With("hit").Add(int64(d.ApplyHits))
	lookups.With("miss").Add(int64(d.ApplyMisses))
}

// compilePhases flattens the executed (non-zero) phases of a PhaseTimes
// into named span phases, P1 through P6 in order.
func compilePhases(t core.PhaseTimes) []telemetry.Phase {
	all := []telemetry.Phase{
		{Name: "p1_deps", Duration: t.P1Deps},
		{Name: "p2_xfdd", Duration: t.P2XFDD},
		{Name: "p3_map", Duration: t.P3Map},
		{Name: "p4_model", Duration: t.P4Model},
		{Name: "p5_solve", Duration: t.P5Solve},
		{Name: "p6_rules", Duration: t.P6Rules},
	}
	out := all[:0]
	for _, p := range all {
		if p.Duration > 0 {
			out = append(out, p)
		}
	}
	return out
}

// observe records one completed controller action: compile histograms,
// swap latency, the event counter, and a span whose phases are the
// executed compile phases plus the swap.
func (c *Controller) observe(event, scenario, detail string, start time.Time, times core.PhaseTimes, swap time.Duration) {
	reg := c.eng.Telemetry()
	if reg == nil {
		return
	}
	ObserveCompile(reg, scenario, times)
	reg.HistogramVec("snap_swap_seconds",
		"Engine hot-swap latency (pause, drain, migrate, publish) by scenario.",
		1e-9, "scenario").With(scenario).Observe(int64(swap))
	reg.CounterVec("snap_controller_events_total",
		"Completed controller actions by event kind.",
		"event").With(event).Inc()
	reg.Spans.Record(telemetry.Span{
		Kind:     event,
		Scenario: scenario,
		Detail:   detail,
		Start:    start,
		Duration: time.Since(start),
		Phases:   append(compilePhases(times), telemetry.Phase{Name: "swap", Duration: swap}),
	})
}
