// The engine's telemetry face: every counter the engine already keeps
// (stats.go, replication.go) is exported through scrape-time
// collectors on a per-engine telemetry.Registry, so observability costs
// the packet loop nothing — the hot path keeps bumping the same atomics
// it always did, and aggregation happens only when something scrapes
// /metrics or takes a JSON snapshot. The only live instruments are the
// per-variable lock-wait histograms, fed from the visit's already-slow
// contended path.
package dataplane

import (
	"strconv"
	"sync/atomic"

	"snap/internal/telemetry"
	"snap/internal/topo"
)

// Telemetry returns the engine's private metrics registry: engine
// counters, per-variable lock-wait histograms, replication gauges, the
// reconfiguration span log, and — when Options.TraceSampling is set —
// the sampled packet-trace ring. Serve it with telemetry.Serve, or fold
// it into a snapshot with Registry.Snapshot.
func (e *Engine) Telemetry() *telemetry.Registry { return e.tel }

// traceHop records one switch visit on a sampled packet's trace. tr is
// nil for every unsampled packet (and always, at the default
// TraceSampling of 0), so the hot-path cost of the disabled feature is
// this one branch.
func traceHop(tr *telemetry.PacketTrace, at topo.NodeID, outcome, stateVar string, egress int) {
	if tr != nil {
		tr.Hop(int(at), outcome, stateVar, egress)
	}
}

// registerMetrics wires the engine's existing atomics into scrape-time
// collectors. Called once at the end of NewEngine; the collectors read the
// per-switch counters lock-free.
func (e *Engine) registerMetrics() {
	r := e.tel
	counter := func(name, help string, v *atomic.Int64) {
		r.CounterFunc(name, help, nil, func(emit telemetry.Emit) { emit(nil, float64(v.Load())) })
	}

	r.CounterFunc("snap_packets_total",
		"Packet copies by outcome since the engine started.",
		[]string{"outcome"}, func(emit telemetry.Emit) {
			emit([]string{"injected"}, float64(e.stats.injected.Load()))
			emit([]string{"delivered"}, float64(e.stats.delivered.Load()))
			emit([]string{"dropped"}, float64(e.stats.dropped.Load()))
		})
	r.CounterFunc("snap_drops_total",
		"Dropped packet copies by reason; the reasons sum to snap_packets_total{outcome=\"dropped\"}.",
		[]string{"reason"}, func(emit telemetry.Emit) {
			for i := range e.stats.drops {
				emit([]string{dropOutcomes[i][len("drop:"):]}, float64(e.stats.drops[i].Load()))
			}
		})
	counter("snap_hops_total",
		"Inter-switch forwarding steps.", &e.stats.hops)
	counter("snap_suspends_total",
		"Evaluations suspended for remote state.", &e.stats.suspends)
	counter("snap_lock_suspends_total",
		"Visits whose switch-lock acquisition blocked.", &e.stats.lockSuspends)
	r.GaugeFunc("snap_epoch",
		"Configuration epoch: 0 at engine start, +1 per reconfiguration.",
		nil, func(emit telemetry.Emit) {
			emit(nil, float64(e.epoch.Load()))
		})
	r.GaugeFunc("snap_down_switches",
		"Switches currently failed (failure injection).",
		nil, func(emit telemetry.Emit) {
			n := 0
			for i := range e.down {
				if e.down[i].Load() {
					n++
				}
			}
			emit(nil, float64(n))
		})
	// Failure containment (containment.go): the self-healing loop's
	// observable face — rollbacks of failed swaps, panics converted to
	// quarantine, shed injections.
	counter("snap_reconfig_rollbacks_total",
		"Reconfigurations that failed mid-swap and rolled back to the prior plane (state intact, epoch unchanged).", &e.stats.rollbacks)
	counter("snap_swap_reseated_entries_total",
		"State entries reconfigurations copied one by one (shard folds, replica warm-up) instead of handing their table over; replica promotion hands its table over. 0 after a re-route or an edit that folds nothing.", &e.reseated)
	counter("snap_contained_panics_total",
		"Panics recovered at the containment sites: switch VMs and the mirror drainer.", &e.stats.containedPanics)
	r.GaugeFunc("snap_quarantined_switches",
		"Switches currently under panic quarantine (dropping and counting until the next committed reconfiguration).",
		nil, func(emit telemetry.Emit) {
			n := 0
			for i := range e.quar {
				if e.quar[i].Load() {
					n++
				}
			}
			emit(nil, float64(n))
		})
	counter("snap_shed_total",
		"Injections rejected with ErrOverload at the shed watermark (never admitted).", &e.stats.shed)

	// Replication backlog of the mirror pipeline: writes enqueued but not
	// yet applied to the replica stores.
	r.GaugeFunc("snap_replica_lag",
		"Replication backlog: mirror writes not yet applied.",
		[]string{"kind"}, func(emit telemetry.Emit) {
			enq, app := e.replicator().lag()
			emit([]string{"mirror"}, float64(enq-app))
		})
	r.GaugeFunc("snap_mirror_queue_depth",
		"Mirror writes currently queued at primary switches, awaiting the background drain.",
		nil, func(emit telemetry.Emit) {
			emit(nil, float64(e.replicator().queueDepth()))
		})
	r.CounterFunc("snap_mirror_writes_total",
		"Mirror-replication pipeline writes by stage (lost = discarded by switch failures, the bounded failover loss).",
		[]string{"stage"}, func(emit telemetry.Emit) {
			enq, app := e.replicator().lag()
			emit([]string{"enqueued"}, float64(enq))
			emit([]string{"applied"}, float64(app))
			emit([]string{"lost"}, float64(e.repLost.Load()))
		})

	// Per-switch load. The label set is fixed at engine construction
	// (the switch set never changes across epochs), so the label strings
	// are resolved once here, not per scrape.
	names := make([]string, len(e.load))
	for i := range names {
		names[i] = strconv.Itoa(i)
	}
	r.CounterFunc("snap_switch_load_total",
		"Per-switch work: packet copies that reached the switch and were served, state suspensions, copies sent onward.",
		[]string{"switch", "kind"}, func(emit telemetry.Emit) {
			for i := range e.load {
				c := &e.load[i]
				emit([]string{names[i], "processed"}, float64(c.processed.Load()))
				emit([]string{names[i], "suspends"}, float64(c.suspends.Load()))
				emit([]string{names[i], "forwarded"}, float64(c.forwarded.Load()))
			}
		})
	r.CounterFunc("snap_switch_vm_runs_total",
		"Switch-VM executions per switch; a copy forwarded in transit counts as processed and runs none.",
		[]string{"switch"}, func(emit telemetry.Emit) {
			for i := range e.load {
				emit(names[i:i+1], float64(e.load[i].ran.Load()))
			}
		})

	r.CounterFunc("snap_traces_sampled_total",
		"Sampled packet traces started (0 unless Options.TraceSampling is set).",
		nil, func(emit telemetry.Emit) {
			emit(nil, float64(e.traces.Sampled()))
		})
}
