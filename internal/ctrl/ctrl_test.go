package ctrl_test

import (
	"fmt"
	"strings"
	"testing"

	"snap/internal/apps"
	"snap/internal/bench"
	"snap/internal/core"
	"snap/internal/ctrl"
	"snap/internal/dataplane"
	"snap/internal/fault"
	"snap/internal/pkt"
	"snap/internal/place"
	"snap/internal/rules"
	"snap/internal/shard"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// TestMonitorDrift: the monitor judges total-variation drift, but never
// before the minimum sample volume.
func TestMonitorDrift(t *testing.T) {
	ref := traffic.Matrix{{1, 2}: 50, {2, 1}: 50}
	m := ctrl.Monitor{Ref: ref, Threshold: 0.25, MinSample: 100}

	if d, fired := m.Drift(traffic.Matrix{{2, 1}: 10}); fired {
		t.Fatalf("fired below MinSample (d=%.2f)", d)
	}
	if d, fired := m.Drift(traffic.Matrix{{1, 2}: 200, {2, 1}: 200}); fired || d != 0 {
		t.Fatalf("identical distribution: d=%.2f fired=%v", d, fired)
	}
	d, fired := m.Drift(traffic.Matrix{{3, 4}: 500})
	if !fired || d != 1 {
		t.Fatalf("disjoint distribution: d=%.2f fired=%v, want 1.00 fired", d, fired)
	}
}

// TestPlanMigrationMoves: a placement diff yields one move per variable
// that changed owner; vars that stayed, or vanished without a fold,
// contribute nothing.
func TestPlanMigrationMoves(t *testing.T) {
	old := &rules.Config{Placement: map[string]topo.NodeID{"a": 1, "b": 2, "gone": 3}}
	next := &rules.Config{Placement: map[string]topo.NodeID{"a": 5, "b": 2}}
	p := ctrl.PlanMigration(old, next, nil, nil)
	if len(p.Folds) != 0 {
		t.Fatalf("unexpected folds: %v", p.Folds)
	}
	if len(p.Moves) != 1 || p.Moves[0] != (ctrl.Move{Var: "a", From: 1, To: 5}) {
		t.Fatalf("moves = %v, want [a: 1->5]", p.Moves)
	}
	if p.Rewrite() != nil {
		t.Fatal("move-only plan should need no rewrite")
	}
}

// TestPlanMigrationShardFold: when every shard name of a family disappears
// from the new placement while the base variable appears, the plan folds
// the family — the rewrite re-merges the shard stores (via shard.Merge)
// before ApplyConfig re-seats the base variable at its owner. Shards whose
// names survive migrate individually like ordinary variables.
func TestPlanMigrationShardFold(t *testing.T) {
	plan := shard.PortsPlan("count", []int{1, 2})

	t.Run("folded", func(t *testing.T) {
		old := &rules.Config{Placement: map[string]topo.NodeID{
			"count@1": 1, "count@2": 2, "count@rest": 3, "other": 4,
		}}
		next := &rules.Config{Placement: map[string]topo.NodeID{"count": 7, "other": 4}}
		p := ctrl.PlanMigration(old, next, []shard.Plan{plan}, func(a, b values.Value) values.Value {
			return values.Int(a.AsInt() + b.AsInt())
		})
		if len(p.Folds) != 1 || p.Folds[0].Var != "count" {
			t.Fatalf("folds = %v, want [count]", p.Folds)
		}
		if len(p.Moves) != 0 {
			t.Fatalf("moves = %v, want none (shards fold, other stays)", p.Moves)
		}

		// The rewrite must fold the shard entries into the base variable,
		// combining collisions.
		st := state.NewStore()
		st.Set("count@1", values.Tuple{values.Int(1)}, values.Int(10))
		st.Set("count@2", values.Tuple{values.Int(2)}, values.Int(5))
		st.Set("count@rest", values.Tuple{values.Int(2)}, values.Int(3)) // collision with count@2
		st.Set("other", values.Tuple{values.Int(9)}, values.Bool(true))
		rw := p.Rewrite()
		if rw == nil {
			t.Fatal("fold plan must produce a rewrite")
		}
		out, err := rw(st)
		if err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		if got := out.Get("count", values.Tuple{values.Int(1)}); got.AsInt() != 10 {
			t.Fatalf("count[1] = %v, want 10", got)
		}
		if got := out.Get("count", values.Tuple{values.Int(2)}); got.AsInt() != 8 {
			t.Fatalf("count[2] = %v, want 5+3", got)
		}
		for _, v := range out.Vars() {
			if v != "count" && v != "other" {
				t.Fatalf("unexpected variable %s after fold", v)
			}
		}
	})

	t.Run("shards-survive", func(t *testing.T) {
		old := &rules.Config{Placement: map[string]topo.NodeID{
			"count@1": 1, "count@2": 2, "count@rest": 3,
		}}
		next := &rules.Config{Placement: map[string]topo.NodeID{
			"count@1": 4, "count@2": 2, "count@rest": 5,
		}}
		p := ctrl.PlanMigration(old, next, []shard.Plan{plan}, nil)
		if len(p.Folds) != 0 {
			t.Fatalf("folds = %v, want none (shard names survive)", p.Folds)
		}
		want := []ctrl.Move{
			{Var: "count@1", From: 1, To: 4},
			{Var: "count@rest", From: 3, To: 5},
		}
		if fmt.Sprint(p.Moves) != fmt.Sprint(want) {
			t.Fatalf("moves = %v, want %v", p.Moves, want)
		}
	})
}

// TestControllerSequentialEquivalence is the reconfiguration
// end-to-end property: a trace whose matrix shifts halfway, replayed
// through the controller (which re-places state and hot-swaps the engine
// mid-replay), must leave the same global state as the identical trace
// replayed on a single engine compiled once for the final matrix — the
// monitor counters are placement-independent, so any divergence means a
// packet or a state entry was lost in a swap. The sharded variant checks
// the same property through shard.Merge.
func TestControllerSequentialEquivalence(t *testing.T) {
	netw := topo.Campus(1000)
	tmA := traffic.Gravity(netw, 100, 1)
	tmB := traffic.Gravity(netw, 100, 2)
	traceA := bench.ReplayIngress(tmA.Replay(3000, 7))
	traceB := bench.ReplayIngress(tmB.Replay(3000, 8))
	trace := make([]dataplane.Ingress, 0, len(traceA)+len(traceB))
	trace = append(trace, traceA...)
	trace = append(trace, traceB...)
	opts := dataplane.Options{Workers: 4, Window: 64}

	for _, sharded := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharded=%v", sharded), func(t *testing.T) {
			policy, err := bench.MonitorWorkload(sharded, 6)
			if err != nil {
				t.Fatal(err)
			}
			var shards []shard.Plan
			if sharded {
				shards = append(shards, shard.PortsPlan("count", []int{1, 2, 3, 4, 5, 6}))
			}
			comp, err := core.ColdStart(policy, netw, tmA, place.Options{Method: place.Heuristic})
			if err != nil {
				t.Fatal(err)
			}
			eng := dataplane.NewEngine(comp.Config, opts)
			defer eng.Close()
			ctl := ctrl.New(comp, eng, ctrl.Options{
				Threshold: 0.15,
				MinSample: 500,
				Mode:      ctrl.RePlace,
				Shards:    shards,
			})

			for off := 0; off < len(trace); off += 500 {
				end := off + 500
				if end > len(trace) {
					end = len(trace)
				}
				if err := eng.InjectReplay(trace[off:end]); err != nil {
					t.Fatalf("replay chunk at %d: %v", off, err)
				}
				if _, err := ctl.Step(); err != nil {
					t.Fatalf("controller step at %d: %v", off, err)
				}
			}
			if len(ctl.History()) == 0 {
				t.Fatal("controller never reconfigured on a shifted matrix")
			}
			if st := eng.Stats(); st.Injected != int64(len(trace)) || st.Injected != st.Delivered+st.Dropped {
				t.Fatalf("packet accounting broken across swaps: %+v", st)
			}

			// Reference: one engine compiled for the final matrix, same trace.
			refComp, err := core.ColdStart(policy, netw, tmB, place.Options{Method: place.Heuristic})
			if err != nil {
				t.Fatal(err)
			}
			ref := dataplane.NewEngine(refComp.Config, opts)
			defer ref.Close()
			if err := ref.InjectReplay(trace); err != nil {
				t.Fatal(err)
			}
			got, want := eng.GlobalState(), ref.GlobalState()
			if sharded {
				plan := shards[0]
				if got, err = shard.Merge(got, plan, nil); err != nil {
					t.Fatalf("merge controller state: %v", err)
				}
				if want, err = shard.Merge(want, plan, nil); err != nil {
					t.Fatalf("merge reference state: %v", err)
				}
			}
			if !got.Equal(want) {
				t.Fatalf("state diverges from single-config run\ncontroller:\n%s\nreference:\n%s", got, want)
			}
		})
	}
}

// TestFailoverSequentialEquivalence is the fault-tolerance end-to-end
// property: a replay interrupted by a switch kill and controller-driven
// failover must end in the same surviving global state — and deliver the
// same packet count — as the identical replay on an engine compiled
// directly for the degraded topology, modulo the reported lost entries
// (zero here: replicas are quiescent at the kill).
func TestFailoverSequentialEquivalence(t *testing.T) {
	netw := topo.Campus(1000)
	tm := traffic.Gravity(netw, 100, 1)
	policy, err := bench.MonitorWorkload(false, 6)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.ColdStart(policy, netw, tm, place.Options{Method: place.Heuristic, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	victim := comp.Config.Placement["count"]
	degraded, err := netw.Degrade([]topo.NodeID{victim}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both runs process exactly the surviving traffic, so the comparison
	// is not muddied by packets the reference cannot accept.
	tmD := tm.Restrict(degraded)
	trace := bench.ReplayIngress(tmD.Replay(4000, 7))
	opts := dataplane.Options{Workers: 4, Window: 64}

	eng := dataplane.NewEngine(comp.Config, opts)
	defer eng.Close()
	ctl := ctrl.New(comp, eng, ctrl.Options{})
	if err := eng.InjectReplay(trace[:2000]); err != nil {
		t.Fatal(err)
	}
	eng.FlushReplication()
	rep, err := ctl.Failover(fault.SwitchDown(victim))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostEntries != 0 || rep.LostWrites != 0 {
		t.Fatalf("lost state despite quiescent replicas: %+v", rep)
	}
	if _, ok := rep.Promoted["count"]; !ok {
		t.Fatalf("count not promoted: %+v", rep.Promoted)
	}
	if eng.Epoch() != rep.Epoch || rep.Epoch == 0 {
		t.Fatalf("epoch bookkeeping: engine %d, report %d", eng.Epoch(), rep.Epoch)
	}
	if err := eng.InjectReplay(trace[2000:]); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Injected != int64(len(trace)) || st.Delivered != st.Injected {
		t.Fatalf("surviving traffic not fully delivered: %+v", st)
	}
	// The drift loop keeps running on the degraded network.
	if _, err := ctl.Step(); err != nil {
		t.Fatalf("control loop broken after failover: %v", err)
	}

	// Reference: an engine born on the degraded network, same trace.
	refComp, err := core.ColdStart(policy, degraded, tmD, place.Options{Method: place.Heuristic, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := dataplane.NewEngine(refComp.Config, opts)
	defer ref.Close()
	if err := ref.InjectReplay(trace); err != nil {
		t.Fatal(err)
	}
	got, want := eng.GlobalState(), ref.GlobalState()
	if !got.Equal(want) {
		t.Fatalf("kill-and-failover state diverges from degraded-born engine\nfailover:\n%s\nreference:\n%s", got, want)
	}
}

// TestFailoverRefusesPartition: a failure that splits the survivors cannot
// be recovered automatically.
func TestFailoverRefusesPartition(t *testing.T) {
	netw := topo.Campus(1000)
	tm := traffic.Gravity(netw, 100, 1)
	policy, err := bench.MonitorWorkload(false, 6)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.ColdStart(policy, netw, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{})
	defer eng.Close()
	ctl := ctrl.New(comp, eng, ctrl.Options{})
	// Cutting both of D3's links strands it.
	ev := fault.Scenario{Name: "strand-D3", Links: [][2]topo.NodeID{{4, 10}, {4, 8}}}
	if _, err := ctl.Failover(ev); err == nil {
		t.Fatal("partitioning failure accepted")
	}
	// The refusal must leave the engine untouched: epoch 0, traffic flows.
	if eng.Epoch() != 0 {
		t.Fatalf("refused failover advanced the epoch to %d", eng.Epoch())
	}
}

// TestStepSanitizesDroppedDemand: the observed matrix folds drops in under
// egress -1; when drift fires, those unroutable keys must not reach the
// optimizer or become the new reference — only real port pairs do.
func TestStepSanitizesDroppedDemand(t *testing.T) {
	netw := topo.Campus(1000)
	tmA := traffic.Gravity(netw, 100, 1)
	tmB := traffic.Gravity(netw, 100, 2)
	// Drop everything entering at port 1; deliver the rest.
	policy := syntax.Then(apps.Assumption(6), syntax.Then(
		syntax.Cond(syntax.FieldEq(pkt.Inport, values.Int(1)), syntax.Nothing(), syntax.Id()),
		apps.AssignEgress(6)))
	comp, err := core.ColdStart(policy, netw, tmA, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
	defer eng.Close()
	ctl := ctrl.New(comp, eng, ctrl.Options{Threshold: 0.15, MinSample: 500})
	if err := eng.InjectReplay(bench.ReplayIngress(tmB.Replay(3000, 3))); err != nil {
		t.Fatal(err)
	}
	rec, err := ctl.Step()
	if err != nil {
		t.Fatalf("step on a drop-heavy observed matrix: %v", err)
	}
	if rec == nil {
		t.Fatal("shifted drop-heavy matrix did not trigger reconfiguration")
	}
	for pr := range ctl.Compilation().Demands {
		if _, ok := netw.PortByID(pr[0]); !ok {
			t.Fatalf("adopted demand pair %v has a phantom ingress", pr)
		}
		if _, ok := netw.PortByID(pr[1]); !ok {
			t.Fatalf("adopted demand pair %v has a phantom egress (drop key leaked)", pr)
		}
	}
}

// TestReRouteRelinksNothing: a drift re-route changes routes, not programs
// or placement, so the recompilation hands the engine the linked images it
// already runs and the swap reads no state entry.
func TestReRouteRelinksNothing(t *testing.T) {
	netw := topo.Campus(1000)
	policy, err := bench.MonitorWorkload(false, 6)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.ColdStart(policy, netw, traffic.Gravity(netw, 100, 1), place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
	defer eng.Close()
	ctl := ctrl.New(comp, eng, ctrl.Options{Threshold: 0.15, MinSample: 500, Mode: ctrl.ReRoute})
	if err := eng.InjectReplay(bench.ReplayIngress(traffic.Gravity(netw, 100, 2).Replay(3000, 3))); err != nil {
		t.Fatal(err)
	}
	before := eng.Config()
	rec, err := ctl.Step()
	if err != nil || rec == nil {
		t.Fatalf("shifted matrix did not reconfigure: %v, %v", rec, err)
	}
	if eng.Config() == before {
		t.Fatal("re-route did not swap the engine's configuration")
	}
	for id, sc := range eng.Config().Switches {
		if sc.Linked != before.Switches[id].Linked {
			t.Fatalf("switch %d: re-route linked a new program image", id)
		}
	}
	var scrape strings.Builder
	if err := eng.Telemetry().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape.String(), "\nsnap_swap_reseated_entries_total 0\n") {
		t.Fatal("re-route copied state entries, want every table handed over")
	}
}

// TestApplyPolicyDeltaRotation: live policy edits ride the delta path end
// to end. Rotating A -> B -> A preserves state at each swap, reports the
// delta scenario with its reuse counters, and on the return to A — whose
// diagram the translator memo resolves to the original root pointer — the
// rule generator recompiles and relinks nothing: the engine runs A's
// images again.
func TestApplyPolicyDeltaRotation(t *testing.T) {
	netw := topo.Campus(1000)
	tm := traffic.Gravity(netw, 100, 1)
	varA := syntax.Then(apps.Assumption(6), syntax.Then(apps.DNSTunnelDetect(), apps.AssignEgress(6)))
	varB := syntax.Then(apps.Assumption(6), syntax.Then(apps.DNSTunnelDetect(), syntax.Then(
		syntax.Cond(syntax.FieldEq(pkt.SrcPort, values.Int(7777)), syntax.Nothing(), syntax.Id()),
		apps.AssignEgress(6))))

	comp, err := core.ColdStart(varA, netw, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
	defer eng.Close()
	ctl := ctrl.New(comp, eng, ctrl.Options{})
	if err := eng.InjectReplay(bench.ReplayIngress(tm.Replay(2000, 5))); err != nil {
		t.Fatal(err)
	}
	cfgA := eng.Config()

	before := eng.GlobalState()
	prB, err := ctl.ApplyPolicy(varB)
	if err != nil {
		t.Fatal(err)
	}
	if prB.Delta == nil || prB.Delta.Scenario != "delta" {
		t.Fatalf("edit A->B Delta = %+v, want delta scenario", prB.Delta)
	}
	if len(prB.Delta.DirtyVars) != 0 {
		t.Fatalf("stateless edit dirtied vars %v", prB.Delta.DirtyVars)
	}
	if !eng.GlobalState().Equal(before) {
		t.Fatal("edit A->B lost state across the swap")
	}

	prA, err := ctl.ApplyPolicy(varA)
	if err != nil {
		t.Fatal(err)
	}
	if prA.Delta == nil || prA.Delta.Scenario != "delta" {
		t.Fatalf("edit B->A Delta = %+v, want delta scenario", prA.Delta)
	}
	// Returning to A: the fragment memo yields the original diagram root,
	// so every per-switch program is recalled, not recompiled …
	if prA.Delta.CompiledPrograms != 0 || prA.Delta.ReusedPrograms == 0 {
		t.Fatalf("edit B->A programs: compiled=%d reused=%d, want 0/>0",
			prA.Delta.CompiledPrograms, prA.Delta.ReusedPrograms)
	}
	// … and every image with it: the swap back to A links nothing new.
	for id, sc := range eng.Config().Switches {
		if sc.Linked != cfgA.Switches[id].Linked {
			t.Fatalf("switch %d: B->A swap linked a new image", id)
		}
	}
	if !eng.GlobalState().Equal(before) {
		t.Fatal("rotation lost state")
	}

	// The edits' exact xFDD work counters are on the engine's registry:
	// B was composed (contexts, misses); the return to A is a fragment-memo
	// hit that composes nothing.
	if prB.Delta.Contexts == 0 || prB.Delta.ApplyMisses == 0 || prA.Delta.Contexts != 0 {
		t.Fatalf("work counters: A->B contexts=%d misses=%d, B->A contexts=%d",
			prB.Delta.Contexts, prB.Delta.ApplyMisses, prA.Delta.Contexts)
	}
	reg := eng.Telemetry()
	if got := reg.Counter("snap_xfdd_contexts_total", "").Value(); got != int64(prB.Delta.Contexts) {
		t.Fatalf("snap_xfdd_contexts_total = %d, want %d", got, prB.Delta.Contexts)
	}
	lookups := reg.CounterVec("snap_xfdd_apply_lookups_total", "", "result")
	if hit, miss := lookups.With("hit").Value(), lookups.With("miss").Value(); hit != int64(prB.Delta.ApplyHits+prA.Delta.ApplyHits) || miss != int64(prB.Delta.ApplyMisses+prA.Delta.ApplyMisses) {
		t.Fatalf("snap_xfdd_apply_lookups_total hit=%d miss=%d, want the two reports' sums", hit, miss)
	}
}
