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
// plus the phase timings.
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

	// delta is the lineage's persistent cache bundle (see delta.go),
	// propagated through every recompilation scenario.
	delta *deltaState
}

// ColdStart runs the full pipeline P1–P6 (the first compilation on a
// network).
func ColdStart(p syntax.Policy, t *topo.Topology, demands traffic.Matrix, opts place.Options) (*Compilation, error) {
	// The cold start instantiates the lineage's delta caches and compiles
	// through them with everything empty — same work as the one-shot
	// entry points, but the fragment memo, mapping caches and program
	// cache come out primed for the first PolicyChange.
	ds := newDeltaState()
	c := &Compilation{Policy: p, Topo: t, Demands: demands, Opts: opts, Scenario: "coldstart", delta: ds}

	start := time.Now()
	c.Order = deps.OrderOf(p)
	c.Times.P1Deps = time.Since(start)

	start = time.Now()
	d, err := ds.translator(c.Order).TranslateMemo(p)
	if err != nil {
		return nil, err
	}
	c.Diagram = d
	c.Times.P2XFDD = time.Since(start)

	start = time.Now()
	c.Mapping = ds.builder.Build(d, t.PortIDs())
	c.Times.P3Map = time.Since(start)

	start = time.Now()
	c.Model = place.NewModel(t, demands, opts)
	c.Times.P4Model = time.Since(start)

	start = time.Now()
	c.Result, err = c.Model.SolveST(c.Mapping, c.Order)
	if err != nil {
		return nil, err
	}
	c.Times.P5Solve = time.Since(start)

	start = time.Now()
	c.Config, err = ds.gen.Generate(d, t, c.Result.Placement, c.Result.Replicas, c.Result.Routes)
	if err != nil {
		return nil, err
	}
	c.Times.P6Rules = time.Since(start)
	return c, nil
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

	ds := c.delta
	n := &Compilation{
		Policy:   p,
		Topo:     c.Topo,
		Demands:  c.Demands,
		Opts:     c.Opts,
		Model:    c.Model,
		Scenario: "delta",
		delta:    ds,
	}
	rep := &DeltaReport{Scenario: "delta"}
	n.Delta = rep

	start := time.Now()
	n.Order = deps.OrderOf(p)
	diff := syntax.DiffPolicies(c.Policy, p)
	var dirty map[string]bool
	rep.DirtyVars, dirty = dirtyVars(diff)
	n.Times.P1Deps = time.Since(start)

	start = time.Now()
	tr := ds.translator(n.Order)
	mark, before := tr.Store().Watermark(), tr.Store().ApplyStats()
	d, err := tr.TranslateMemo(p)
	if err != nil {
		return nil, err
	}
	n.Diagram = d
	rep.ReusedNodes, rep.FreshNodes = xfdd.ReuseOf(d, mark)
	after := tr.Store().ApplyStats()
	rep.Contexts = after.Contexts - before.Contexts
	rep.ApplyHits, rep.ApplyMisses = after.Hits-before.Hits, after.Misses-before.Misses
	n.Times.P2XFDD = time.Since(start)

	start = time.Now()
	n.Mapping = ds.builder.Build(d, c.Topo.PortIDs())
	n.Times.P3Map = time.Since(start)

	start = time.Now()
	n.Result, err = n.Model.SolveSTWarm(n.Mapping, n.Order, c.Result.Placement, dirty)
	if err != nil {
		return nil, err
	}
	rep.PinnedGroups, rep.MovedGroups = n.Result.PinnedGroups, n.Result.MovedGroups
	n.Times.P5Solve = time.Since(start)

	start = time.Now()
	n.Config, err = ds.gen.Generate(d, c.Topo, n.Result.Placement, n.Result.Replicas, n.Result.Routes)
	if err != nil {
		return nil, err
	}
	rep.ReusedPrograms, rep.CompiledPrograms = ds.gen.ReusedPrograms, ds.gen.CompiledPrograms
	rep.DirtySwitches = rules.DiffSwitches(c.Config, n.Config)
	n.Times.P6Rules = time.Since(start)
	return n, nil
}

// ColdPolicy is the non-incremental policy-change path: the previous
// PolicyChange body, kept as the fallback for non-delta lineages and as
// the equivalence oracle the delta path is fuzz-tested against. It reuses
// only the optimization model; every program-analysis phase runs from
// scratch.
func (c *Compilation) ColdPolicy(p syntax.Policy) (*Compilation, error) {
	n := &Compilation{
		Policy:   p,
		Topo:     c.Topo,
		Demands:  c.Demands,
		Opts:     c.Opts,
		Model:    c.Model,
		Scenario: "policy_cold",
		delta:    c.delta,
		Delta:    &DeltaReport{Scenario: "cold"},
	}

	start := time.Now()
	n.Order = deps.OrderOf(p)
	n.Times.P1Deps = time.Since(start)

	start = time.Now()
	d, err := xfdd.TranslateWithOrder(p, n.Order)
	if err != nil {
		return nil, err
	}
	n.Diagram = d
	n.Times.P2XFDD = time.Since(start)

	start = time.Now()
	n.Mapping = psmap.Build(d, c.Topo.PortIDs())
	n.Times.P3Map = time.Since(start)

	start = time.Now()
	n.Result, err = n.Model.SolveST(n.Mapping, n.Order)
	if err != nil {
		return nil, err
	}
	n.Times.P5Solve = time.Since(start)

	start = time.Now()
	n.Config, err = rules.GenerateReplicated(d, c.Topo, n.Result.Placement, n.Result.Replicas, n.Result.Routes)
	if err != nil {
		return nil, err
	}
	n.Times.P6Rules = time.Since(start)
	if c.Config != nil {
		n.Delta.DirtySwitches = rules.DiffSwitches(c.Config, n.Config)
	}
	return n, nil
}

// TopoTMChange reacts to a network event (failure, traffic shift): state
// placement is kept, only routing re-optimizes (TE) and rules regenerate.
func (c *Compilation) TopoTMChange(demands traffic.Matrix) (*Compilation, error) {
	n, err := c.topoTMRecompile(demands, func(m *place.Model) (*place.Result, error) {
		return m.SolveTE(c.Mapping, c.Order, c.Result.Placement)
	})
	if err != nil {
		return nil, err
	}
	n.Scenario = "topotm"
	return n, nil
}

// TopoTMReplace reacts to a traffic shift large enough that keeping the
// old placement would squander the optimizer's freedom: like TopoTMChange
// it reuses every program-analysis artifact (P1–P3) and refreshes the
// model incrementally (P4), but re-runs the joint placement-and-routing
// solve (P5-ST), so state variables may move to new owner switches. The
// control loop (internal/ctrl) pairs it with Engine.ApplyConfig, which
// migrates the live state tables to the new owners during the swap.
func (c *Compilation) TopoTMReplace(demands traffic.Matrix) (*Compilation, error) {
	n, err := c.topoTMRecompile(demands, func(m *place.Model) (*place.Result, error) {
		return m.SolveST(c.Mapping, c.Order)
	})
	if err != nil {
		return nil, err
	}
	n.Scenario = "replace"
	return n, nil
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
	demands = demands.Restrict(degraded)
	n := &Compilation{
		Policy:   c.Policy,
		Topo:     degraded,
		Demands:  demands,
		Opts:     c.Opts,
		Order:    c.Order,
		Diagram:  c.Diagram,
		Scenario: "failover",
		delta:    c.delta,
	}

	start := time.Now()
	n.Mapping = psmap.Build(c.Diagram, degraded.PortIDs())
	n.Times.P3Map = time.Since(start)

	start = time.Now()
	n.Model = place.NewModel(degraded, demands, c.Opts)
	n.Times.P4Model = time.Since(start)

	start = time.Now()
	var err error
	n.Result, err = n.Model.SolveST(n.Mapping, n.Order)
	if err != nil {
		return nil, err
	}
	n.Times.P5Solve = time.Since(start)

	start = time.Now()
	n.Config, err = rules.GenerateReplicated(c.Diagram, degraded, n.Result.Placement, n.Result.Replicas, n.Result.Routes)
	if err != nil {
		return nil, err
	}
	n.Times.P6Rules = time.Since(start)
	return n, nil
}

// topoTMRecompile is the shared Topo/TM-change sequence: reuse the
// program-analysis artifacts, refresh the model incrementally, run the
// scenario's solve, regenerate rules.
func (c *Compilation) topoTMRecompile(demands traffic.Matrix, solve func(*place.Model) (*place.Result, error)) (*Compilation, error) {
	n := &Compilation{
		Policy:  c.Policy,
		Topo:    c.Topo,
		Demands: demands,
		Opts:    c.Opts,
		Order:   c.Order,
		Diagram: c.Diagram,
		Mapping: c.Mapping,
		delta:   c.delta,
	}

	start := time.Now()
	n.Model = c.Model.Refresh(demands)
	modelTime := time.Since(start)
	// Refresh reuses the topology-dependent precomputation (shortest paths,
	// port structure) and swaps only the demand-dependent terms — the "few
	// milliseconds of incremental updates" of §6.2, accounted inside P5.

	start = time.Now()
	var err error
	n.Result, err = solve(n.Model)
	if err != nil {
		return nil, err
	}
	n.Times.P5Solve = time.Since(start) + modelTime

	start = time.Now()
	n.Config, err = rules.GenerateReplicated(c.Diagram, c.Topo, n.Result.Placement, n.Result.Replicas, n.Result.Routes)
	if err != nil {
		return nil, err
	}
	n.Times.P6Rules = time.Since(start)
	return n, nil
}
