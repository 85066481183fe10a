package snap

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"snap/internal/core"
	"snap/internal/ctrl"
	"snap/internal/dataplane"
	"snap/internal/fault"
	"snap/internal/place"
	"snap/internal/rules"
	"snap/internal/topo"
	"snap/internal/traffic"
)

// CompileOption tweaks compilation.
type CompileOption func(*compileConfig)

type compileConfig struct {
	opts place.Options
}

// WithExactOptimizer forces the branch-and-bound MILP engine (small
// instances only).
func WithExactOptimizer() CompileOption {
	return func(c *compileConfig) { c.opts.Method = place.Exact }
}

// WithHeuristicOptimizer forces the scalable heuristic engine.
func WithHeuristicOptimizer() CompileOption {
	return func(c *compileConfig) { c.opts.Method = place.Heuristic }
}

// WithReplication sets the state replication factor K: each state
// variable gets a primary owner plus K-1 backup owners on distinct
// switches. The engine mirrors the primary's writes to the backups
// asynchronously, and Controller.Failover promotes a backup when the
// primary switch dies — so a switch failure loses at most the writes
// still in the mirror queue (the replica lag). K ≤ 1 disables
// replication.
func WithReplication(k int) CompileOption {
	return func(c *compileConfig) { c.opts.Replicas = k }
}

// PhaseTimes re-exports the per-phase compiler timings (Table 4/6).
type PhaseTimes = core.PhaseTimes

// Delivery is a packet leaving the network at an OBS port.
type Delivery = dataplane.Delivery

// Engine is the concurrent, batched data-plane runtime: a pool of worker
// goroutines, each walking an injected packet and all its copies to
// completion, with one lock per owning switch ordering the visits that
// touch its state.
type Engine = dataplane.Engine

// EngineOptions configures an Engine (worker count, admission window,
// trace sampling).
type EngineOptions = dataplane.Options

// Ingress is one packet entering the network at an OBS port.
type Ingress = dataplane.Ingress

// PlaneStats is a snapshot of data-plane activity counters.
type PlaneStats = dataplane.Stats

// SwitchLoad is one switch's share of the engine's work.
type SwitchLoad = dataplane.SwitchLoad

// VarContention is one state variable's share of lock contention
// (Engine.LockContention): the observable "which variable is hot" signal
// for choosing sharding.
type VarContention = dataplane.VarContention

// StateRewrite transforms the global state during Engine.ApplyConfig
// (e.g. folding shard variables); nil migrates entries unchanged.
type StateRewrite = dataplane.StateRewrite

// Controller is the drift-driven control loop (internal/ctrl): it watches
// an Engine's observed traffic matrix, recompiles incrementally when the
// matrix drifts, and hot-swaps the result with state migration.
type Controller = ctrl.Controller

// ControllerOptions configures a Controller (drift threshold, minimum
// sample, re-route vs re-place mode, shard plans).
type ControllerOptions = ctrl.Options

// ReconfigEvent records one completed live reconfiguration.
type ReconfigEvent = ctrl.Reconfig

// MigrationPlan is the state-migration side of a reconfiguration.
type MigrationPlan = ctrl.Plan

// StateMove is one state variable changing owner switch.
type StateMove = ctrl.Move

// ReconfigMode selects the controller's re-optimization depth.
type ReconfigMode = ctrl.Mode

// Controller modes: ReRoute keeps placement (P5-TE); RePlace re-solves
// placement jointly (P5-ST) so state may migrate to new owners.
const (
	ReRoute = ctrl.ReRoute
	RePlace = ctrl.RePlace
)

// FailureEvent is one failure scenario: switches and/or undirected links
// going down together (internal/fault).
type FailureEvent = fault.Scenario

// FailureImpact is the assessed cost of a failure scenario: surviving
// topology, partitioning, lost ports, orphaned state variables.
type FailureImpact = fault.Impact

// FailoverEvent records one completed controller-driven failover:
// promotions, recovered and lost state, and latency.
type FailoverEvent = ctrl.FailoverReport

// ReplicaStats reports the engine's asynchronous state-replication
// pipeline: writes enqueued/applied, the replica lag, and writes lost to
// switch failures.
type ReplicaStats = dataplane.ReplicaStats

// SwitchFailure builds the single-switch failure event.
func SwitchFailure(n NodeID) FailureEvent { return fault.SwitchDown(n) }

// LinkFailure builds the single-link failure event (both directions).
func LinkFailure(a, b NodeID) FailureEvent { return fault.LinkDown(a, b) }

// FailureScenarios enumerates the failure scenarios of a topology: every
// single switch, every single undirected link, plus `correlated` random
// correlated switch pairs (0 = none).
func FailureScenarios(t *Topology, correlated int, seed int64) []FailureEvent {
	return fault.Enumerate(t, fault.Options{Correlated: correlated, Seed: seed})
}

// Deployment is a compiled SNAP program running on a simulated network.
type Deployment struct {
	comp  *core.Compilation
	plane *dataplane.Network
}

// Compile runs the full pipeline (§4, Figure 5) and instantiates the data
// plane: dependency analysis, xFDD generation, packet-state mapping,
// placement and routing optimization, and per-switch rule generation.
func Compile(p Policy, t *Topology, tm TrafficMatrix, options ...CompileOption) (*Deployment, error) {
	var cfg compileConfig
	for _, o := range options {
		o(&cfg)
	}
	return deploy(core.ColdStart(p, t, tm, cfg.opts))
}

// deploy instantiates the sequential data plane of a compilation that
// succeeded: the tail of Compile and of every recompilation scenario.
func deploy(comp *core.Compilation, err error) (*Deployment, error) {
	if err != nil {
		return nil, err
	}
	return &Deployment{comp: comp, plane: dataplane.New(comp.Config)}, nil
}

// Inject sends a packet into the running data plane at an OBS ingress port
// and returns the deliveries at egress ports (multicast may produce
// several; stateful drops produce none).
func (d *Deployment) Inject(port int, p Packet) ([]Delivery, error) {
	return d.plane.Inject(port, p)
}

// Engine builds the concurrent data-plane runtime for this deployment:
// batched/streamed ingress served by a pool of worker goroutines, with
// state protected by one lock per owning switch so disjoint flows proceed
// in parallel. The engine starts with fresh (empty) state tables, independent
// of the deployment's sequential plane; call Close when done.
func (d *Deployment) Engine(opts EngineOptions) *Engine {
	eng := dataplane.NewEngine(d.comp.Config, opts)
	// Seed the engine's registry with the cold-start compile so the phase
	// histograms cover the whole lineage, not just live reconfigurations.
	ctrl.ObserveCompile(eng.Telemetry(), d.comp.Scenario, d.comp.Times)
	return eng
}

// Placement reports where each state variable was placed.
func (d *Deployment) Placement() map[string]NodeID {
	out := make(map[string]NodeID, len(d.comp.Result.Placement))
	for k, v := range d.comp.Result.Placement {
		out[k] = v
	}
	return out
}

// Route returns the optimizer-selected switch path for an OBS port pair.
func (d *Deployment) Route(u, v int) ([]NodeID, bool) {
	r, ok := d.comp.Result.Routes[[2]int{u, v}]
	if !ok {
		return nil, false
	}
	return append([]NodeID(nil), r.Nodes...), true
}

// Congestion is the optimizer's objective value: the sum of link
// utilizations.
func (d *Deployment) Congestion() float64 { return d.comp.Result.Congestion }

// Times returns the per-phase compile-time breakdown.
func (d *Deployment) Times() PhaseTimes { return d.comp.Times }

// GlobalState unions the per-switch state tables into the one-big-switch
// view.
func (d *Deployment) GlobalState() *Store { return d.plane.GlobalState() }

// XFDD renders the program's intermediate representation (Figure 3).
func (d *Deployment) XFDD() string { return d.comp.Diagram.String() }

// XFDDSize is the node count of the intermediate representation.
func (d *Deployment) XFDDSize() int { return d.comp.Diagram.Size() }

// Recompile compiles a new policy on the same network, reusing the
// optimization model (the paper's "policy change" scenario).
func (d *Deployment) Recompile(p Policy) (*Deployment, error) {
	return deploy(d.comp.PolicyChange(p))
}

// Reroute re-optimizes routing for a new traffic matrix with placement
// kept (the paper's "topology/TM change" scenario). State table contents
// are not carried over; the returned deployment starts fresh.
func (d *Deployment) Reroute(tm TrafficMatrix) (*Deployment, error) {
	return deploy(d.comp.TopoTMChange(tm))
}

// Replace re-optimizes placement AND routing jointly for a new traffic
// matrix on the incrementally refreshed model — the deep variant of
// Reroute for drift large enough that the old placement wastes the
// optimizer's freedom. State table contents are not carried over; to
// reconfigure a live engine without losing state, use Controller /
// Engine.ApplyConfig instead.
func (d *Deployment) Replace(tm TrafficMatrix) (*Deployment, error) {
	return deploy(d.comp.TopoTMReplace(tm))
}

// Failover recompiles this deployment for the surviving network after a
// failure event: the degraded topology is derived, demand on lost ports is
// restricted away, and placement and routing re-solve on the alive
// switches (replicas included, under WithReplication). Like Reroute and
// Replace this is the *compile-side* scenario — the returned deployment
// starts with fresh state; to recover a live engine with its state
// (replica promotion, bounded loss), use Controller.Failover instead.
func (d *Deployment) Failover(ev FailureEvent) (*Deployment, error) {
	degraded, err := d.comp.Topo.Degrade(ev.Switches, ev.Links)
	if err != nil {
		return nil, err
	}
	return deploy(d.comp.TopoFailover(degraded, d.comp.Demands))
}

// AssessFailure reports what a failure event would cost this deployment:
// the surviving topology, whether it is partitioned, the external ports
// lost, the orphaned state variables, and which of them no surviving
// replica covers.
func (d *Deployment) AssessFailure(ev FailureEvent) (FailureImpact, error) {
	return fault.Assess(d.comp.Topo, d.comp.Result.Placement, d.comp.Result.Replicas, ev)
}

// Replicas reports each state variable's backup owner switches in
// promotion-preference order (empty without WithReplication).
func (d *Deployment) Replicas() map[string][]NodeID {
	out := make(map[string][]NodeID, len(d.comp.Result.Replicas))
	for v, rs := range d.comp.Result.Replicas {
		out[v] = append([]NodeID(nil), rs...)
	}
	return out
}

// Controller builds the drift-driven control loop for an engine running
// this deployment's configuration. The controller owns the compilation
// lineage from here on: each reconfiguration advances
// Controller.Compilation(), while the Deployment keeps describing the
// original configuration.
func (d *Deployment) Controller(eng *Engine, opts ControllerOptions) *Controller {
	return ctrl.New(d.comp, eng, opts)
}

// Summary renders a human-readable deployment report: placement, sample
// routes, congestion and phase times.
func (d *Deployment) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "topology %s: %d switches, %d links, %d ports\n",
		d.comp.Topo.Name, d.comp.Topo.Switches, len(d.comp.Topo.Links), len(d.comp.Topo.Ports))
	fmt.Fprintf(&b, "xFDD: %d nodes; optimizer: %s; congestion Σutil = %.4f\n",
		d.XFDDSize(), d.comp.Result.Method, d.Congestion())

	vars := make([]string, 0, len(d.comp.Result.Placement))
	for v := range d.comp.Result.Placement {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		n := d.comp.Result.Placement[v]
		name := fmt.Sprintf("switch %d", n)
		if d.comp.Topo.Name == "campus" {
			name = topo.CampusSwitchName(n)
		}
		fmt.Fprintf(&b, "  state %-14s -> %s\n", v, name)
	}
	t := d.comp.Times
	fmt.Fprintf(&b, "phases: P1=%s P2=%s P3=%s P4=%s P5=%s P6=%s (total %s)\n",
		round(t.P1Deps), round(t.P2XFDD), round(t.P3Map), round(t.P4Model),
		round(t.P5Solve), round(t.P6Rules), round(t.Total()))
	return b.String()
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }

// Config exposes the per-switch configurations (rule counts, programs) for
// inspection.
func (d *Deployment) Config() *rules.Config { return d.comp.Config }

// Demands returns the traffic matrix the deployment was optimized for.
func (d *Deployment) Demands() TrafficMatrix {
	out := make(traffic.Matrix, len(d.comp.Demands))
	for k, v := range d.comp.Demands {
		out[k] = v
	}
	return out
}
