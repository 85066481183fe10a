// Package core orchestrates the compiler pipeline of Figure 5 and
// Table 4 of the paper. The six phases are
//
//	P1  state dependency analysis          (internal/deps)
//	P2  xFDD generation                    (internal/xfdd)
//	P3  packet-state mapping               (internal/psmap)
//	P4  optimization model creation        (internal/place.NewModel)
//	P5  solving — ST (placement+routing) or TE (routing only)
//	P6  data-plane rule generation         (internal/rules)
//
// and the three scenarios the evaluation measures are: cold start
// (P1–P6), policy change (P1, P2, P3, P5-ST, P6 — the model is reused),
// and topology/traffic-matrix change (P5-TE, P6).
package core

import (
	"time"

	"snap/internal/deps"
	"snap/internal/place"
	"snap/internal/psmap"
	"snap/internal/rules"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/xfdd"
)

// PhaseTimes records per-phase wall-clock durations. P5 holds whichever
// solve ran (ST or TE); unexecuted phases stay zero.
type PhaseTimes struct {
	P1Deps  time.Duration
	P2XFDD  time.Duration
	P3Map   time.Duration
	P4Model time.Duration
	P5Solve time.Duration
	P6Rules time.Duration
}

// Total sums the executed phases.
func (t PhaseTimes) Total() time.Duration {
	return t.P1Deps + t.P2XFDD + t.P3Map + t.P4Model + t.P5Solve + t.P6Rules
}

// Compilation is the output of a pipeline run: every intermediate artifact
// plus the phase timings. A ColdStart and every compilation derived from it
// form a lineage that shares one set of caches, none of them safe for
// concurrent use: derive from a lineage on one goroutine at a time.
type Compilation struct {
	Policy  syntax.Policy
	Topo    *topo.Topology
	Demands traffic.Matrix
	Opts    place.Options

	Order   *deps.Order
	Diagram *xfdd.Diagram
	Mapping *psmap.Mapping
	Model   *place.Model
	Result  *place.Result
	Config  *rules.Config

	Times PhaseTimes
	// Scenario names the recompilation path that produced this
	// compilation ("coldstart", "noop", "delta", "policy_cold", "topotm",
	// "replace", "failover") — the label telemetry files phase durations
	// under. Empty on hand-built Compilations.
	Scenario string
	// Delta describes how a PolicyChange was compiled (nil for other
	// scenarios): the path taken and the reuse counters.
	Delta *DeltaReport

	// delta is the lineage's persistent cache bundle (see delta.go), which
	// every recompilation scenario compiles through and hands on.
	delta *deltaState
}

// ColdStart runs the full pipeline P1–P6 (the first compilation on a
// network).
func ColdStart(p syntax.Policy, t *topo.Topology, demands traffic.Matrix, opts place.Options) (*Compilation, error) {
	// The cold start instantiates the lineage's delta caches and compiles
	// through them with everything empty — same work as the one-shot
	// entry points, but the fragment memo, mapping recall and program
	// cache come out primed for the first PolicyChange.
	seed := &Compilation{Opts: opts, delta: newDeltaState()}
	return seed.derive(change{scenario: "coldstart", policy: p, topo: t, demands: demands, solve: solveST})
}

// PolicyChange compiles a new policy against an existing deployment. The
// optimization model is always reused (P4 is skipped; the paper reports
// incremental model updates take milliseconds), and on lineages started
// with ColdStart every other phase runs in delta mode: a structurally
// identical policy short-circuits to the existing artifacts, and an edit
// recompiles only the changed fragments, warm-starts placement from the
// previous result, and recalls cached per-switch programs. The compiled
// artifacts are equivalent to a ColdPolicy run on the same inputs (the
// fuzz suite asserts this); only the time to produce them differs.
func (c *Compilation) PolicyChange(p syntax.Policy) (*Compilation, error) {
	if c.delta == nil || c.Result == nil || c.Config == nil {
		// Not a delta-capable lineage (hand-built Compilation): fall back.
		return c.ColdPolicy(p)
	}

	// No-op short-circuit: a structurally identical policy compiles to
	// identical artifacts, so reuse them wholesale with zero phase times.
	if syntax.Equal(c.Policy, p) {
		n := *c
		n.Policy = p
		n.Times = PhaseTimes{}
		n.Scenario = "noop"
		n.Delta = &DeltaReport{Scenario: "noop"}
		return &n, nil
	}
	return c.derive(change{scenario: "delta", policy: p, solve: solveSTWarm})
}

// ColdPolicy is the non-incremental policy-change path, kept as the
// fallback for non-delta lineages and as the equivalence oracle the delta
// path is fuzz-tested against. It reuses only the optimization model; every
// program-analysis phase runs from scratch, on a fresh translator, mapping
// walk and generator, never the lineage's.
func (c *Compilation) ColdPolicy(p syntax.Policy) (*Compilation, error) {
	return c.derive(change{scenario: "policy_cold", policy: p, solve: solveST, cold: true})
}

// TopoTMChange reacts to a network event (failure, traffic shift): state
// placement is kept, only routing re-optimizes (TE) and rules regenerate.
func (c *Compilation) TopoTMChange(demands traffic.Matrix) (*Compilation, error) {
	return c.derive(change{scenario: "topotm", demands: demands, solve: solveTE})
}

// TopoTMReplace reacts to a traffic shift large enough that keeping the
// old placement would squander the optimizer's freedom: like TopoTMChange
// it reuses every program-analysis artifact (P1–P3) and refreshes the
// model incrementally (P4), but re-runs the joint placement-and-routing
// solve (P5-ST), so state variables may move to new owner switches. The
// control loop (internal/ctrl) pairs it with Engine.ApplyConfig, which
// migrates the live state tables to the new owners during the swap.
func (c *Compilation) TopoTMReplace(demands traffic.Matrix) (*Compilation, error) {
	return c.derive(change{scenario: "replace", demands: demands, solve: solveST})
}

// TopoFailover recompiles onto a degraded topology after a failure: the
// program-analysis artifacts (P1, P2) are reused — the policy did not
// change — but the packet-state mapping is rebuilt for the surviving port
// set (P3), the optimization model is rebuilt because shortest paths
// changed (P4), and the joint solve (P5-ST) re-places state on alive
// switches and re-routes the surviving demand pairs. Demands on lost ports
// are restricted away; the caller (ctrl.Controller.Failover) pairs the
// result with Engine.Failover to promote replica state owners.
func (c *Compilation) TopoFailover(degraded *topo.Topology, demands traffic.Matrix) (*Compilation, error) {
	return c.derive(change{scenario: "failover", topo: degraded, demands: demands.Restrict(degraded), solve: solveST})
}

// solver names the P5 variant a derivation runs.
type solver uint8

const (
	// solveST is the joint placement-and-routing solve.
	solveST solver = iota
	// solveSTWarm is solveST warm-started from the parent's placement, with
	// only the variables an edit can have touched free to move.
	solveSTWarm
	// solveTE keeps the parent's placement and re-optimizes routing only.
	solveTE
)

// change says in what a derivation's inputs differ from its parent's and
// how it runs; an input left zero did not change.
type change struct {
	scenario string
	// policy, when set, runs P1–P3 on it.
	policy syntax.Policy
	// topo, when set, reruns P3 over its port set and rebuilds the model
	// (P4): shortest paths changed.
	topo *topo.Topology
	// demands, when set on an unchanged topology, refreshes the model
	// incrementally inside P5.
	demands traffic.Matrix
	solve   solver
	// cold runs P2, P3 and P6 on a fresh translator, mapping walk and
	// generator instead of the lineage's deltaState.
	cold bool
}

// timed adds one phase's wall-clock time to its PhaseTimes field; every
// phase that runs is timed here and nowhere else.
func timed(into *time.Duration, phase func()) {
	start := time.Now()
	phase()
	*into += time.Since(start)
}

// derive is the pipeline, written once: Table 4's scenarios are the subsets
// of P1–P6 that a change to the parent's inputs makes necessary. Every
// artifact whose inputs did not change is carried by pointer, and P2, P3
// and P6 go through the lineage's caches unless the change asks for the
// cold function set.
func (c *Compilation) derive(ch change) (*Compilation, error) {
	n := *c
	n.Scenario, n.Times, n.Delta = ch.scenario, PhaseTimes{}, nil
	ds := c.delta
	cold := ch.cold || ds == nil
	if ch.topo != nil {
		n.Topo = ch.topo
	}
	if ch.demands != nil {
		n.Demands = ch.demands
	}

	var err error
	var rep *DeltaReport
	var dirty map[string]bool
	if ch.policy != nil {
		n.Policy = ch.policy
		if c.Policy != nil {
			rep = &DeltaReport{Scenario: ch.scenario}
			n.Delta = rep
		}
		timed(&n.Times.P1Deps, func() {
			n.Order = deps.OrderOf(n.Policy)
			if ch.solve == solveSTWarm {
				rep.DirtyVars, dirty = dirtyVars(syntax.DiffPolicies(c.Policy, n.Policy))
			}
		})
		timed(&n.Times.P2XFDD, func() {
			if cold {
				n.Diagram, err = xfdd.TranslateWithOrder(n.Policy, n.Order)
			} else {
				n.Diagram, err = ds.translate(n.Policy, n.Order, rep)
			}
		})
		if err != nil {
			return nil, err
		}
	}

	if ch.policy != nil || ch.topo != nil {
		timed(&n.Times.P3Map, func() {
			if cold {
				n.Mapping = psmap.Build(n.Diagram, n.Topo.PortIDs())
			} else {
				n.Mapping = ds.mapping(n.Diagram, n.Topo.PortIDs())
			}
		})
	}

	if ch.topo != nil {
		timed(&n.Times.P4Model, func() { n.Model = place.NewModel(n.Topo, n.Demands, n.Opts) })
	}

	timed(&n.Times.P5Solve, func() {
		if ch.topo == nil && ch.demands != nil {
			// Refresh reuses the topology-dependent precomputation (shortest
			// paths, port structure) and swaps only the demand-dependent terms —
			// the "few milliseconds of incremental updates" of §6.2, accounted
			// inside P5.
			n.Model = c.Model.Refresh(n.Demands)
		}
		switch ch.solve {
		case solveTE:
			n.Result, err = n.Model.SolveTE(n.Mapping, n.Order, c.Result.Placement)
		case solveSTWarm:
			n.Result, err = n.Model.SolveSTWarm(n.Mapping, n.Order, c.Result.Placement, dirty)
		default:
			n.Result, err = n.Model.SolveST(n.Mapping, n.Order)
		}
	})
	if err != nil {
		return nil, err
	}

	timed(&n.Times.P6Rules, func() {
		r, gen := n.Result, rules.NewGenerator()
		if !cold {
			gen = ds.gen
		}
		n.Config, err = gen.Generate(n.Diagram, n.Topo, n.Model.Forest(), r.Placement, r.Replicas, r.Routes)
		if err != nil || rep == nil {
			return
		}
		rep.PinnedGroups, rep.MovedGroups = r.PinnedGroups, r.MovedGroups
		if !cold {
			rep.ReusedPrograms, rep.CompiledPrograms = ds.gen.ReusedPrograms, ds.gen.CompiledPrograms
		}
		if c.Config != nil {
			rep.DirtySwitches = rules.DiffSwitches(c.Config, n.Config)
		}
	})
	if err != nil {
		return nil, err
	}
	return &n, nil
}
