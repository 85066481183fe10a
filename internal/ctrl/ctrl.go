// Package ctrl closes SNAP's control loop: it watches the live data-plane
// engine's empirical traffic matrix, detects when it has drifted from the
// matrix the running configuration was optimized for, recompiles
// incrementally (the §6.2 Topo/TM-change scenario, via the PR-1
// place.Model.Refresh fast path), plans which state variables must move to
// new owner switches, and hot-swaps the result onto the engine with
// Engine.ApplyConfig — without dropping in-flight packets or losing a
// single state entry.
//
// The paper treats traffic-matrix change as a recompilation scenario
// (Table 4: P5-TE + P6) but stops at producing new rules; what makes the
// closed loop non-trivial is exactly the part the paper's runtime leaves
// implicit — network-wide state such as a firewall's established table
// must survive the re-route, and under re-placement it must *move*.
// Systems like State-Compute Replication (Xu et al., 2023) and OPP
// (Bianchi et al., 2016) identify this state relocation/consistency
// problem as the central difficulty of stateful data planes; here the
// engine's admission gate provides the quiescent point that makes the
// migration atomic.
//
// Layers:
//
//	observation  Engine.ObservedMatrix  →  Monitor.Drift (TV distance)
//	decision     Compilation.TopoTMChange / TopoTMReplace + PlanMigration
//	actuation    Engine.ApplyConfig (pause → drain → migrate → swap)
//
// Controller.Step runs one iteration; callers decide the cadence (the
// snapsim -drift demo checks between replay chunks). Step, Failover,
// Restore and ApplyPolicy differ in their preconditions, in which core
// scenario recompiles and in which engine entry point installs; the
// decision and actuation layers between are one transaction, reconfigure.
package ctrl

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"snap/internal/core"
	"snap/internal/dataplane"
	"snap/internal/fault"
	"snap/internal/faultpoint"
	"snap/internal/rules"
	"snap/internal/shard"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/telemetry"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// Mode selects how the controller re-optimizes after drift.
type Mode uint8

const (
	// ReRoute keeps the state placement and re-optimizes routing only
	// (P5-TE) — the paper's Topo/TM-change scenario. State stays put, so
	// the migration plan is empty and the swap is cheapest.
	ReRoute Mode = iota
	// RePlace re-runs the joint placement-and-routing solve (P5-ST) on
	// the refreshed model, so heavily drifted traffic can pull state
	// variables to better owner switches; their entries migrate during
	// the swap.
	RePlace
)

func (m Mode) String() string {
	if m == RePlace {
		return "re-place"
	}
	return "re-route"
}

// Monitor decides whether an observed matrix has drifted from the
// reference matrix the running configuration was optimized for.
type Monitor struct {
	// Ref is the reference matrix (the deployment's optimization input).
	Ref traffic.Matrix
	// Threshold is the total-variation distance that triggers
	// reconfiguration; traffic.Divergence normalizes volumes away, so
	// 0.25 means a quarter of the demand mass sits on different pairs.
	Threshold float64
	// MinSample is the observed volume (delivered packets) required
	// before drift is judged at all — early small samples of a bursty
	// trace diverge spuriously.
	MinSample float64
}

// Drift reports the divergence of obs from the reference and whether it
// crosses the threshold (never before MinSample observations).
func (m *Monitor) Drift(obs traffic.Matrix) (float64, bool) {
	d := traffic.Divergence(m.Ref, obs)
	if obs.Total() < m.MinSample {
		return d, false
	}
	return d, d >= m.Threshold
}

// Move is one state variable changing owner switch.
type Move struct {
	Var      string
	From, To topo.NodeID
}

// Plan is the state-migration side of a reconfiguration: which variables
// move between switches with their names preserved, and which shard
// families must first be folded back into their base variable
// (shard.Merge) because the new configuration no longer knows the shard
// names — e.g. after swapping a sharded program for an unsharded one.
type Plan struct {
	Moves []Move
	Folds []shard.Plan
	// Combine resolves index collisions while folding shards (sum for
	// counters, or for flags); nil makes collisions an error, the right
	// default when shards are provably disjoint per index.
	Combine func(a, b values.Value) values.Value
}

// Empty reports whether the plan migrates nothing (routing-only swap).
func (p Plan) Empty() bool { return len(p.Moves) == 0 && len(p.Folds) == 0 }

// String renders the plan compactly for logs.
func (p Plan) String() string {
	if p.Empty() {
		return "no state moves"
	}
	var parts []string
	for _, mv := range p.Moves {
		parts = append(parts, fmt.Sprintf("%s: S%d→S%d", mv.Var, mv.From, mv.To))
	}
	for _, f := range p.Folds {
		parts = append(parts, fmt.Sprintf("fold %s@*→%s", f.Var, f.Var))
	}
	return strings.Join(parts, ", ")
}

// PlanMigration diffs two configurations' placements into a migration
// plan. shards lists the sharding plans active under the old
// configuration: a family whose shard names all disappear from the new
// placement while its base variable appears is folded (re-merged via
// shard.Merge with combine) before moving; families whose shard names
// survive migrate shard by shard like any other variable, since shards
// are ordinary variables to the placement.
func PlanMigration(old, next *rules.Config, shards []shard.Plan, combine func(a, b values.Value) values.Value) Plan {
	p := Plan{Combine: combine}
	folded := map[string]bool{}
	for _, sp := range shards {
		anyOld, anyNew := false, false
		for _, n := range sp.Names() {
			if _, ok := old.Placement[n]; ok {
				anyOld = true
			}
			if _, ok := next.Placement[n]; ok {
				anyNew = true
			}
		}
		_, baseNew := next.Placement[sp.Var]
		if anyOld && !anyNew && baseNew {
			p.Folds = append(p.Folds, sp)
			for _, n := range sp.Names() {
				folded[n] = true
			}
		}
	}
	vars := make([]string, 0, len(old.Placement))
	for v := range old.Placement {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		if folded[v] {
			continue
		}
		to, ok := next.Placement[v]
		if !ok {
			// Orphan: no owner and no fold. ApplyConfig rejects it if the
			// variable holds entries, which is the safe default.
			continue
		}
		if from := old.Placement[v]; from != to {
			p.Moves = append(p.Moves, Move{Var: v, From: from, To: to})
		}
	}
	return p
}

// Rewrite returns the state transform ApplyConfig should run for this
// plan: folding each shard family into its base variable. A plan without
// folds needs no rewrite (nil) — plain moves are handled by re-seating.
func (p Plan) Rewrite() dataplane.StateRewrite {
	if len(p.Folds) == 0 {
		return nil
	}
	folds, combine := p.Folds, p.Combine
	return func(st *state.Store) (*state.Store, error) {
		var err error
		for _, fp := range folds {
			if st, err = shard.Merge(st, fp, combine); err != nil {
				return nil, err
			}
		}
		return st, nil
	}
}

// Applied is what every completed operation reports: the result of the one
// transaction (reconfigure) they all run.
type Applied struct {
	// Epoch is the engine epoch after the swap.
	Epoch int64
	// Plan is the migration diff old→new placement: the variables the new
	// solve re-placed. Empty after a re-route; after a failover, moves
	// leaving a dead switch are the promotions.
	Plan Plan
	// Compile is the recompilation time, the sum of the phases the
	// operation's scenario runs (Table 4); Times has the per-phase breakdown.
	Compile time.Duration
	Times   core.PhaseTimes
	// Swap is the engine install latency (ApplyConfig, Failover or Recover):
	// drain to quiescence, migrate state, publish the new plane.
	Swap time.Duration
}

// Reconfig records one completed drift reconfiguration. Compile is the
// incremental recompilation (P5 + P6 on reused artifacts).
type Reconfig struct {
	Applied
	// Divergence is the drift that triggered it.
	Divergence float64
	Mode       Mode
}

// Options configures a Controller.
type Options struct {
	// Threshold is the Monitor trigger; 0 → 0.25.
	Threshold float64
	// MinSample is the Monitor minimum observed volume; 0 → 500.
	MinSample float64
	// Mode picks ReRoute (default) or RePlace.
	Mode Mode
	// Shards lists the sharding plans applied to the running policy, so
	// migration plans can fold families if a future configuration drops
	// them; harmless to omit when the policy never changes shape.
	Shards []shard.Plan
	// Combine resolves shard-fold collisions (see Plan.Combine).
	Combine func(a, b values.Value) values.Value
}

// Controller owns the closed loop for one engine. It tracks the current
// compilation lineage: each successful Step replaces it with the
// incremental recompilation, exactly as the engine's plane epochs advance.
// Not safe for concurrent Step calls; drive it from one goroutine (traffic
// may flow concurrently — the engine's gate handles that).
type Controller struct {
	eng  *dataplane.Engine
	comp *core.Compilation
	mon  Monitor
	// volume is the reference matrix's total demand, set with the
	// reference: every Step scales its matrix to it.
	volume  float64
	opts    Options
	history []Reconfig
}

// New builds a controller for an engine currently running comp.Config.
func New(comp *core.Compilation, eng *dataplane.Engine, opts Options) *Controller {
	if opts.Threshold <= 0 {
		opts.Threshold = 0.25
	}
	if opts.MinSample <= 0 {
		opts.MinSample = 500
	}
	return &Controller{
		eng:    eng,
		comp:   comp,
		mon:    Monitor{Ref: comp.Demands, Threshold: opts.Threshold, MinSample: opts.MinSample},
		volume: volume(comp.Demands),
		opts:   opts,
	}
}

// volume sums m's demands in Pairs() order. A sum over the map in its
// iteration order differs in the last bit from run to run, and with it
// every matrix a Step scales to it.
func volume(m traffic.Matrix) float64 {
	var v float64
	for _, pr := range m.Pairs() {
		v += m[pr]
	}
	return v
}

// Drift reports the current divergence between the engine's observed
// matrix and the reference, and whether it crosses the threshold.
func (c *Controller) Drift() (float64, bool) {
	return c.mon.Drift(c.eng.ObservedMatrix())
}

// reconfigure is the one transaction every operation runs, and the one
// home of state relocation: it recompiles, plans the migration from the
// running configuration to the new one and installs it on the engine,
// timing the install. It runs once. The engine's commit of the swap is the
// commit point: only after it does the controller's lineage advance and
// the action reach telemetry. A failure returns "ctrl: <op> recompile: …"
// or "ctrl: <op> apply: …" with nothing the controller holds advanced and
// the engine on its prior epoch with state intact, so the caller may issue
// the operation again. detail says what triggered the operation, for the
// span log.
func (c *Controller) reconfigure(op, detail string, recompile func() (*core.Compilation, error), install func(*rules.Config, dataplane.StateRewrite) error) (*core.Compilation, Applied, error) {
	began := time.Now()
	err := faultpoint.Hit(faultpoint.CtrlRecompile)
	var next *core.Compilation
	if err == nil {
		next, err = recompile()
	}
	if err != nil {
		return nil, Applied{}, fmt.Errorf("ctrl: %s recompile: %w", op, err)
	}
	out := Applied{Plan: PlanMigration(c.comp.Config, next.Config, c.opts.Shards, c.opts.Combine)}
	start := time.Now()
	if err := install(next.Config, out.Plan.Rewrite()); err != nil {
		return nil, Applied{}, fmt.Errorf("ctrl: %s apply: %w", op, err)
	}
	out.Swap = time.Since(start)
	c.comp = next
	out.Epoch, out.Compile, out.Times = c.eng.Epoch(), next.Times.Total(), next.Times
	scenario := next.Scenario
	if op == "restore" {
		// The recompile ran core's failover scenario, but filing restores
		// under their own label keeps the two recovery directions separable.
		scenario = op
	}
	if detail != "" {
		detail += "; "
	}
	c.observe(op, scenario, detail+out.Plan.String(), began, out.Times, out.Swap)
	return next, out, nil
}

// containPanic is the deferred panic envelope of every controller
// operation: a panic in compile, planning or apply code becomes a returned
// error, with the stack captured in the span log — the control loop caller
// survives and decides whether to issue the operation again.
func (c *Controller) containPanic(op string, err *error) {
	v := recover()
	if v == nil {
		return
	}
	*err = fmt.Errorf("ctrl: contained panic in %s: %v", op, v)
	if reg := c.eng.Telemetry(); reg != nil {
		reg.Spans.Record(telemetry.Span{
			Kind:     "panic",
			Scenario: op,
			Detail:   fmt.Sprintf("%v\n%s", v, debug.Stack()),
			Start:    time.Now(),
		})
	}
}

// rebase adopts a committed compilation's demands, whose total is vol, as
// the drift reference and starts a fresh observation window.
func (c *Controller) rebase(next *core.Compilation, vol float64) {
	c.mon.Ref, c.volume = next.Demands, vol
	c.eng.ResetObserved()
}

// Step runs one control-loop iteration: observe, and if drift crosses the
// threshold, recompile for the observed matrix, plan the migration and
// hot-swap the engine. Returns nil without error when no reconfiguration
// was needed. After a swap the observation window resets and the observed
// matrix (scaled to the reference volume) becomes the new reference.
//
// Failure atomicity: the controller's own state — compilation lineage,
// reference matrix, observation window, history — advances only after the
// engine commits the swap. A failed Step returns its error and is a clean
// no-op: the same drift evidence is still in the window and the next Step
// fires on it again.
func (c *Controller) Step() (rec *Reconfig, err error) {
	defer c.containPanic("reconfig", &err)
	obs := c.eng.ObservedMatrix()
	div, drifted := c.mon.Drift(obs)
	if !drifted {
		return nil, nil
	}
	demands, vol := routable(obs, c.comp.Topo, c.volume)
	if demands == nil {
		// Everything observed was unattributable drops; there is no
		// routable demand to re-optimize for.
		return nil, nil
	}
	next, done, err := c.reconfigure("reconfig", fmt.Sprintf("%s divergence=%.3f", c.opts.Mode, div),
		func() (*core.Compilation, error) {
			if c.opts.Mode == RePlace {
				return c.comp.TopoTMReplace(demands)
			}
			return c.comp.TopoTMChange(demands)
		}, c.eng.ApplyConfig)
	if err != nil {
		return nil, err
	}
	c.rebase(next, vol)
	r := Reconfig{Applied: done, Divergence: div, Mode: c.opts.Mode}
	c.history = append(c.history, r)
	return &r, nil
}

// routable returns the demand a Step optimizes for, in one copy of obs:
// the pairs between ports of t, their packet counts scaled to the
// reference volume so that link-capacity terms stay comparable across
// reconfigurations, and that volume (the counts' own total when the
// reference has none). The observed matrix folds drops in, keyed under
// egress -1 when the intended egress was never known: right for the drift
// signal, but not routable demand. The counts are integers, so their sum
// is exact in any order. It returns nil when no count is routable.
func routable(obs traffic.Matrix, t *topo.Topology, vol float64) (traffic.Matrix, float64) {
	hi := -1
	for _, p := range t.Ports {
		hi = max(hi, p.ID)
	}
	port := make([]bool, hi+1)
	for _, p := range t.Ports {
		if p.ID >= 0 {
			port[p.ID] = true
		}
	}
	known := func(pr [2]int) bool {
		return uint(pr[0]) < uint(len(port)) && port[pr[0]] && uint(pr[1]) < uint(len(port)) && port[pr[1]]
	}
	n, total := 0, 0.0
	for pr, v := range obs {
		if known(pr) {
			n++
			total += v
		}
	}
	if total <= 0 {
		return nil, 0
	}
	if vol <= 0 {
		vol = total
	}
	f := vol / total
	out := make(traffic.Matrix, n)
	for pr, v := range obs {
		if known(pr) {
			out[pr] = v * f
		}
	}
	return out, vol
}

// FailoverReport records one completed controller-driven failover. Compile
// is the degraded-topology recompilation (P3–P6), Swap the Engine.Failover
// drain-recover-publish latency.
type FailoverReport struct {
	Applied
	// Scenario is the failure handled.
	Scenario fault.Scenario
	// Promoted maps each orphaned state variable recovered from a replica
	// to its new primary owner; Recovered counts the entries restored.
	Promoted  map[string]topo.NodeID
	Recovered int
	// LostVars/LostEntries are orphans with no surviving replica;
	// LostWrites counts replica-lag writes discarded at failure time. The
	// total state loss is bounded by the lag plus unreplicated variables —
	// zero when every variable had a quiescent surviving replica.
	LostVars    []string
	LostEntries int
	LostWrites  int64
	// LostPorts are external ports that died with their switch; their
	// demand is no longer served (or accepted).
	LostPorts []int
}

// Failover recovers from a failure event: it injects the failure into the
// engine (idempotent — the event may already have been injected by whoever
// detected it), derives the degraded topology, recompiles placement and
// routing on the surviving graph with the reference demand restricted to
// surviving ports (core.TopoFailover), plans the migration — promotions
// included — and installs the result with Engine.Failover, which sources
// orphaned state from the replicas the replication-aware placement put in
// place. The controller's lineage, reference matrix and observation window
// advance to the degraded network, so subsequent Step calls keep watching
// drift on the surviving topology.
//
// A failure that partitions the surviving switches is refused: demand
// across partitions cannot be routed, so recovery needs operator intent
// (e.g. a second scenario failing the minority side).
//
// A failed recompile or apply returns its error with the lineage where it
// was; the failure stays injected in the engine. Issuing Failover again
// re-injects it, which is idempotent, and recompiles against the same
// degraded topology.
func (c *Controller) Failover(s fault.Scenario) (rep *FailoverReport, err error) {
	defer c.containPanic("failover", &err)
	degraded, err := c.comp.Topo.Degrade(s.Switches, s.Links)
	if err != nil {
		return nil, fmt.Errorf("ctrl: failover: %w", err)
	}
	if !degraded.UpConnected() {
		return nil, fmt.Errorf("ctrl: failover %s would partition the surviving switches; refusing automatic recovery", s)
	}
	for _, sw := range s.Switches {
		if err := c.eng.FailSwitch(sw); err != nil {
			return nil, fmt.Errorf("ctrl: failover: %w", err)
		}
	}
	for _, l := range s.Links {
		if err := c.eng.FailLink(l[0], l[1]); err != nil {
			return nil, fmt.Errorf("ctrl: failover: %w", err)
		}
	}
	demands := c.mon.Ref.Restrict(degraded)
	if len(demands) == 0 {
		return nil, fmt.Errorf("ctrl: failover %s leaves no surviving demand pairs", s)
	}
	lostPorts := portsMissing(c.comp.Topo, degraded)
	var fs *dataplane.FailoverStats
	next, done, err := c.reconfigure("failover", s.String(),
		func() (*core.Compilation, error) { return c.comp.TopoFailover(degraded, demands) },
		func(cfg *rules.Config, rewrite dataplane.StateRewrite) (err error) {
			fs, err = c.eng.Failover(cfg, rewrite)
			return err
		})
	if err != nil {
		return nil, err
	}
	c.rebase(next, volume(demands))
	return &FailoverReport{
		Applied:     done,
		Scenario:    s,
		Promoted:    fs.Promoted,
		Recovered:   fs.Recovered,
		LostVars:    fs.LostVars,
		LostEntries: fs.LostEntries,
		LostWrites:  fs.LostWrites,
		LostPorts:   lostPorts,
	}, nil
}

// portsMissing lists, sorted, the external ports of a that b lacks.
func portsMissing(a, b *topo.Topology) []int {
	var out []int
	for _, p := range a.Ports {
		if _, ok := b.PortByID(p.ID); !ok {
			out = append(out, p.ID)
		}
	}
	sort.Ints(out)
	return out
}

// RestoreReport records one completed controller-driven recovery. Plan may
// move state back onto the revived switches; Compile is the
// restored-topology recompilation (P3–P6), Swap the Engine.Recover
// drain-reseat-publish latency.
type RestoreReport struct {
	Applied
	// Scenario is the failure being recovered.
	Scenario fault.Scenario
	// RestoredPorts are the external ports that came back with their switch.
	RestoredPorts []int
}

// Restore is Failover's inverse: the scenario's failed switches and links
// come back into service. The restored topology is re-derived from the
// pristine graph with the remaining failures still applied
// (topo.Recover — so recovering the last failure restores the original
// topology exactly), placement and routing recompile on it with the given
// demand matrix (nil = the current reference) restricted to its ports, and
// Engine.Recover installs the result, clearing the failure flags at the
// epoch-swap commit point. Revived switches return with empty state tables
// — their memory died with the failure; whatever a failover promoted to
// surviving owners migrates per the new placement like any other
// reconfiguration. The controller's lineage, reference matrix and
// observation window advance to the restored network.
func (c *Controller) Restore(s fault.Scenario, demands traffic.Matrix) (rep *RestoreReport, err error) {
	defer c.containPanic("restore", &err)
	restored, err := c.comp.Topo.Recover(s.Switches, s.Links)
	if err != nil {
		return nil, fmt.Errorf("ctrl: restore: %w", err)
	}
	if demands == nil {
		demands = c.mon.Ref
	}
	dem := demands.Restrict(restored)
	if len(dem) == 0 {
		return nil, fmt.Errorf("ctrl: restore %s leaves no demand pairs", s)
	}
	restoredPorts := portsMissing(restored, c.comp.Topo)
	next, done, err := c.reconfigure("restore", s.String(),
		func() (*core.Compilation, error) { return c.comp.TopoFailover(restored, dem) },
		func(cfg *rules.Config, rewrite dataplane.StateRewrite) error {
			_, err := c.eng.Recover(cfg, rewrite, s.Switches, s.Links)
			return err
		})
	if err != nil {
		return nil, err
	}
	c.rebase(next, volume(dem))
	return &RestoreReport{Applied: done, Scenario: s, RestoredPorts: restoredPorts}, nil
}

// PolicyReport records one completed live policy edit. Compile is the
// incremental policy recompilation (P1–P3, P5-ST, P6 on the reused model).
type PolicyReport struct {
	Applied
	// Delta describes how the recompilation reused prior work: the
	// scenario it took (noop/delta/policy_cold), the per-phase reuse
	// counters and the switches whose configuration changed.
	Delta *core.DeltaReport
}

// ApplyPolicy hot-swaps a new policy onto the running deployment: the
// §6.2 policy-change scenario driven through the live engine instead of a
// cold restart. The optimization model is reused (core.PolicyChange), the
// migration plan reconciles any re-placement the fresh solve chose, and
// every state entry survives the swap — a state variable the new policy no
// longer declares must be folded or dropped via Options.Shards/Combine
// like any reconfiguration. The reference matrix and observation window
// are untouched: editing the policy says nothing about demand, so drift
// detection keeps its evidence.
func (c *Controller) ApplyPolicy(p syntax.Policy) (rep *PolicyReport, err error) {
	defer c.containPanic("policy", &err)
	next, done, err := c.reconfigure("policy", "",
		func() (*core.Compilation, error) { return c.comp.PolicyChange(p) }, c.eng.ApplyConfig)
	if err != nil {
		return nil, err
	}
	observeDelta(c.eng.Telemetry(), next.Delta)
	return &PolicyReport{Applied: done, Delta: next.Delta}, nil
}

// Compilation returns the controller's current compilation (the lineage
// head the engine is running).
func (c *Controller) Compilation() *core.Compilation { return c.comp }

// History lists completed reconfigurations in order.
func (c *Controller) History() []Reconfig {
	return append([]Reconfig(nil), c.history...)
}
