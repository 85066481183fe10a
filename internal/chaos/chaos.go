// Package chaos is the seeded soak harness: one long replay over a Table 5
// topology while a deterministic event scheduler injects traffic-matrix
// drift, live policy edits, switch/link failures, failovers and
// recoveries — continuously audited against the invariants the system
// claims (packet conservation per port, bounded state loss across
// failover) and against a differential oracle that shadows the network's
// state through the denotational semantics. Every run is reproducible byte-for-byte from its Options:
// events fire only at chunk boundaries (quiescent points), so scheduling
// nondeterminism inside a chunk cannot leak into any audited observable.
//
// This is the part of the paper's story no single benchmark exercises: not
// whether each mechanism works in isolation, but whether the compiler +
// engine + controller composition keeps its guarantees when everything
// happens to the same network at once.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"snap/internal/core"
	"snap/internal/ctrl"
	"snap/internal/dataplane"
	"snap/internal/faultpoint"
	"snap/internal/place"
	"snap/internal/rules"
	"snap/internal/telemetry"
	"snap/internal/topo"
	"snap/internal/traffic"
)

// demandVolume is the abstract demand total every workload matrix is
// normalized to, keeping the optimizer's link-capacity terms comparable
// across drift shifts and reconfigurations.
const demandVolume = 1e6

// Churn knobs for the per-chunk flow traces: a small live ring with a
// short recycle interval keeps fresh state keys arriving every chunk.
const (
	churnActive  = 48
	churnRecycle = 6
)

// Options configures a chaos soak. The zero value of every field has a
// sensible default; Seed alone determines the run.
type Options struct {
	// Seed drives everything: workload matrices, flow churn, scenario
	// choice, probe sampling.
	Seed int64
	// Topology names the network: a Table 5 name ("Stanford", "Berkeley",
	// "Purdue", "AS1755", ...) or "campus" for the paper's running
	// example. Default "Stanford".
	Topology string
	// PortScale trims a Table 5 topology's OBS ports (topo.Named);
	// default 0.08 (Stanford → 11 ports). Ignored for "campus".
	PortScale float64
	// Packets is the soak length; default 8000 (20 chunks — enough for
	// both failure episodes). Chunk is the packets per replay chunk
	// (events fire at chunk boundaries); default 400.
	Packets int
	Chunk   int
	// Workers caps the engine's concurrent VM executions (0 =
	// GOMAXPROCS).
	Workers int
	// Replicas is the mirror-replication factor K for fault tolerance
	// (default 1 = unreplicated).
	Replicas int
	// Probes is the number of lockstep oracle probes per tracked
	// boundary; default 3.
	Probes int
	// Faults adds control-plane fault injection to the schedule: a
	// recompile failure (the controller returns it; the edit is issued
	// again), a mid-swap apply failure (engine rollback; the edit is issued
	// again), and an injected worker panic (quarantine, then healed) —
	// each with its containment asserted as an invariant. The faults are
	// armed through the process-global faultpoint registry, so at most one
	// faults-enabled soak may run at a time.
	Faults bool
	// Log receives the event timeline as it executes (nil = silent).
	Log io.Writer
	// Verbose expands policy-edit events in the timeline with the delta
	// compiler's phase-time split and reuse counters.
	Verbose bool
	// TelemetryAddr, when non-empty, serves the soak engine's telemetry
	// (/metrics, /healthz, /debug/vars, pprof) on that address for the
	// duration of the run — the live window into a long soak.
	TelemetryAddr string

	// corrupt, when set, runs at the "corrupt" event's boundary with the
	// live engine and its current configuration — the regression hook
	// that proves the oracle catches deliberately tampered state.
	corrupt   func(*dataplane.Engine, *rules.Config) error
	corruptAt int
	// net overrides Topology with an explicit network (tests hand-build
	// tiny graphs with it).
	net *topo.Topology
}

func (o Options) withDefaults() Options {
	if o.Topology == "" {
		o.Topology = "Stanford"
	}
	if o.PortScale <= 0 {
		o.PortScale = 0.08
	}
	if o.Packets <= 0 {
		o.Packets = 8000
	}
	if o.Chunk <= 0 {
		o.Chunk = 400
	}
	if o.Chunk > o.Packets/10 {
		o.Chunk = o.Packets / 10
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.Probes <= 0 {
		o.Probes = 3
	}
	return o
}

func buildTopo(o Options) (*topo.Topology, error) {
	if o.net != nil {
		return o.net, nil
	}
	if o.Topology == "campus" {
		return topo.Campus(1000), nil
	}
	return topo.Named(o.Topology, 1000, o.PortScale)
}

// harness is the mutable soak state.
type harness struct {
	o     Options
	pris  *topo.Topology // pristine topology
	eng   *dataplane.Engine
	ctl   *ctrl.Controller
	orc   oracle
	rng   *rand.Rand // probe sampling
	rep   *Report
	polID int

	// intended is the current workload matrix over the pristine
	// topology; each chunk's trace draws from it restricted to the
	// lineage topology.
	intended traffic.Matrix
	// degraded marks an open failure window: a failure was injected and
	// the failover has not run yet, so route-determined drops are
	// expected (and explained) during the next chunk.
	degraded bool

	// Per-port conservation ledger: packets injected per ingress port,
	// and the observed matrix (deliveries + attributed drops) banked
	// across the controller's observation-window resets.
	injected map[int]float64
	banked   traffic.Matrix
	lastObs  traffic.Matrix
	lastDrop int64
	probeSeq uint32
	engineNs int64
	// lastChunkLen is the trace length runChunk last injected.
	lastChunkLen int
}

func (h *harness) violate(ci int, format string, args ...interface{}) {
	v := fmt.Sprintf("chunk=%d: %s", ci, fmt.Sprintf(format, args...))
	h.rep.Violations = append(h.rep.Violations, v)
	h.logf("VIOLATION %s", v)
}

func (h *harness) logf(format string, args ...interface{}) {
	if h.o.Log != nil {
		fmt.Fprintf(h.o.Log, format+"\n", args...)
	}
}

func (h *harness) record(ci int, kind, detail string) {
	h.rep.Events = append(h.rep.Events, EventRecord{Chunk: ci, Kind: kind, Detail: detail})
	h.logf("chunk=%d event=%s %s", ci, kind, detail)
}

// bankObserved folds the engine's observed matrix growth since the last
// snapshot into the cumulative per-port ledger. Called before anything
// that may reset the observation window, and after probe injections.
func (h *harness) bankObserved() {
	cur := h.eng.ObservedMatrix()
	for k, v := range cur {
		if d := v - h.lastObs[k]; d > 0 {
			h.banked[k] += d
		}
	}
	h.lastObs = cur
}

// resnapObserved re-snapshots the observation window after controller
// actions (which may have reset it) so the next bank folds only new
// traffic.
func (h *harness) resnapObserved() { h.lastObs = h.eng.ObservedMatrix() }

func (h *harness) resync(ci int, why string) {
	h.orc.store = h.eng.GlobalState()
	h.orc.synced = true
	h.rep.OracleResyncs++
	h.logf("chunk=%d oracle resync (%s)", ci, why)
}

// Run executes one chaos soak and returns its report. The error return is
// reserved for setup failures (unknown topology, uncompilable seed
// workload); invariant breaches during the soak — including controller
// errors, which abort the remaining schedule — land in Report.Violations.
func Run(o Options) (*Report, error) {
	o = o.withDefaults()
	pris, err := buildTopo(o)
	if err != nil {
		return nil, err
	}
	ports := len(pris.PortIDs())
	variants := policyVariants(ports)
	intended := traffic.Gravity(pris, demandVolume, o.Seed)
	comp, err := core.ColdStart(variants[0], pris, intended, place.Options{Method: place.Heuristic, Replicas: o.Replicas})
	if err != nil {
		return nil, fmt.Errorf("chaos: cold start: %w", err)
	}
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: o.Workers})
	defer eng.Close()
	ctrl.ObserveCompile(eng.Telemetry(), comp.Scenario, comp.Times)
	if o.TelemetryAddr != "" {
		srv, err := telemetry.Serve(o.TelemetryAddr, eng.Telemetry())
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		defer srv.Close()
		if o.Log != nil {
			fmt.Fprintf(o.Log, "telemetry: http://%s/metrics\n", srv.Addr())
		}
	}
	ctlOpts := ctrl.Options{
		Threshold: 0.2,
		MinSample: float64(o.Chunk) / 2,
		Mode:      ctrl.RePlace,
	}
	if o.Faults {
		defer faultpoint.Reset()
	}
	ctl := ctrl.New(comp, eng, ctlOpts)

	chunks := o.Packets / o.Chunk
	schedRng := rand.New(rand.NewSource(o.Seed ^ 0x5eed))
	swScen, lnScen := pickScenarios(pris, comp, intended, schedRng)
	sched, err := buildSchedule(chunks, swScen, lnScen, o.corruptAt, o.corrupt != nil, o.Faults)
	if err != nil {
		return nil, err
	}

	h := &harness{
		o:        o,
		pris:     pris,
		eng:      eng,
		ctl:      ctl,
		rng:      rand.New(rand.NewSource(o.Seed ^ 0x0bac1e)),
		intended: intended,
		injected: map[int]float64{},
		banked:   traffic.Matrix{},
		lastObs:  traffic.Matrix{},
		orc:      oracle{policy: variants[0], store: nil, synced: true},
		rep: &Report{
			Seed:     o.Seed,
			Topology: o.Topology,
			Packets:  o.Packets,
			Chunk:    o.Chunk,
			Replicas: o.Replicas,
			Faults:   o.Faults,
		},
	}
	h.resync(-1, "initial")
	h.rep.OracleResyncs = 0 // the initial sync is not a resync

	h.logf("chaos soak: seed=%d topo=%s (%d ports) packets=%d chunk=%d workers=%d k=%d",
		o.Seed, o.Topology, ports, o.Packets, o.Chunk, o.Workers, o.Replicas)

	total := 0
loop:
	for ci := 0; ci < chunks; ci++ {
		wasDegraded := h.degraded
		if err := h.runChunk(ci); err != nil {
			h.violate(ci, "inject: %v", err)
			break
		}
		total += h.lastChunkLen
		h.audit(ci, wasDegraded)
		if h.orc.synced && !h.degraded {
			h.probeFlows(ci)
		}
		for _, ev := range sched[ci] {
			if !h.execEvent(ci, ev, variants) {
				break loop
			}
		}
		if !h.degraded {
			h.driftStep(ci)
		}
		h.resnapObserved()
	}
	h.finish(total)
	return h.rep, nil
}

// finish fills the report's engine-lifetime accounting and throughput.
func (h *harness) finish(total int) {
	st := h.eng.Stats()
	h.rep.Injected = st.Injected
	h.rep.Delivered = st.Delivered
	h.rep.Dropped = st.Dropped
	h.rep.Rollbacks = st.Rollbacks
	h.rep.ContainedPanics = st.ContainedPanics
	h.rep.EngineNs = h.engineNs
	if h.engineNs > 0 {
		h.rep.PPS = float64(total) / (float64(h.engineNs) / float64(time.Second))
	}
	if unexplained := st.Dropped - h.rep.DegradedDrops; unexplained != 0 {
		// Redundant with the per-chunk checks, but it makes the headline
		// claim auditable from the report alone.
		h.logf("final: %d drops total, %d during degraded windows", st.Dropped, h.rep.DegradedDrops)
	}
}
