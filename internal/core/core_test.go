package core_test

import (
	"testing"

	"snap/internal/apps"
	"snap/internal/core"
	"snap/internal/place"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

func pipelineInputs() (syntax.Policy, *topo.Topology, traffic.Matrix) {
	t := topo.Campus(1000)
	p := syntax.Then(
		apps.Assumption(6),
		syntax.Then(apps.DNSTunnelDetect(), apps.AssignEgress(6)),
	)
	return p, t, traffic.Gravity(t, 100, 1)
}

func TestColdStartRunsAllPhases(t *testing.T) {
	p, net, tm := pipelineInputs()
	c, err := core.ColdStart(p, net, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	ts := c.Times
	for name, d := range map[string]int64{
		"P1": int64(ts.P1Deps), "P2": int64(ts.P2XFDD), "P3": int64(ts.P3Map),
		"P4": int64(ts.P4Model), "P5": int64(ts.P5Solve), "P6": int64(ts.P6Rules),
	} {
		if d <= 0 {
			t.Errorf("cold start: phase %s not executed", name)
		}
	}
	if c.Diagram == nil || c.Mapping == nil || c.Result == nil || c.Config == nil {
		t.Fatal("missing artifacts")
	}
	if got := len(c.Config.Switches); got != net.Switches {
		t.Fatalf("per-switch configs: %d, want %d", got, net.Switches)
	}
}

func TestPolicyChangeSkipsModelCreation(t *testing.T) {
	p, net, tm := pipelineInputs()
	cold, err := core.ColdStart(p, net, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	fw, _ := apps.ByName("stateful-firewall")
	newPolicy := syntax.Then(
		apps.Assumption(6),
		syntax.Then(fw.MustPolicy(), apps.AssignEgress(6)),
	)
	next, err := cold.PolicyChange(newPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if next.Times.P4Model != 0 {
		t.Error("policy change must reuse the optimization model (P4 = 0)")
	}
	if next.Times.P2XFDD <= 0 || next.Times.P5Solve <= 0 || next.Times.P6Rules <= 0 {
		t.Error("policy change must re-run analysis, solve and rule generation")
	}
	if next.Model != cold.Model {
		t.Error("model instance must be shared")
	}
	if _, ok := next.Result.Placement["established"]; !ok {
		t.Error("new policy's variable must be placed")
	}
}

// TestRulesReadTheModelsForest: P6 runs no all-pairs pass of its own. After
// a cold start, a policy edit and its cold twin, a demand change, a
// failover and a restore, every switch's fallback next hops are that
// switch's row of the model's shortest-path forest, the same slice.
func TestRulesReadTheModelsForest(t *testing.T) {
	p, net, tm := pipelineInputs()
	cold, err := core.ColdStart(p, net, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	fw, _ := apps.ByName("stateful-firewall")
	edited := syntax.Then(apps.Assumption(6), syntax.Then(fw.MustPolicy(), apps.AssignEgress(6)))
	degraded, err := net.Degrade([]topo.NodeID{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	comps := map[string]*core.Compilation{"cold": cold}
	for name, derive := range map[string]func() (*core.Compilation, error){
		"policy":      func() (*core.Compilation, error) { return cold.PolicyChange(edited) },
		"policy_cold": func() (*core.Compilation, error) { return cold.ColdPolicy(edited) },
		"topotm":      func() (*core.Compilation, error) { return cold.TopoTMChange(traffic.Gravity(net, 200, 2)) },
		"failover":    func() (*core.Compilation, error) { return cold.TopoFailover(degraded, tm) },
	} {
		if comps[name], err = derive(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if comps["restore"], err = comps["failover"].TopoFailover(net, tm); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for name, c := range comps {
		next := c.Model.Forest().Next
		for n, sc := range c.Config.Switches {
			if len(sc.SPNext) != net.Switches || &sc.SPNext[0] != &next[n][0] {
				t.Fatalf("%s: switch %d's SPNext is not its row of the model's forest", name, n)
			}
		}
	}
}

func TestTopoTMChangeKeepsPlacement(t *testing.T) {
	p, net, tm := pipelineInputs()
	cold, err := core.ColdStart(p, net, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := cold.TopoTMChange(traffic.Gravity(net, 400, 17))
	if err != nil {
		t.Fatal(err)
	}
	if shifted.Times.P1Deps != 0 || shifted.Times.P2XFDD != 0 || shifted.Times.P3Map != 0 {
		t.Error("TM change must not re-run program analysis")
	}
	if shifted.Times.P5Solve <= 0 || shifted.Times.P6Rules <= 0 {
		t.Error("TM change must re-solve routing and regenerate rules")
	}
	for v, n := range cold.Result.Placement {
		if shifted.Result.Placement[v] != n {
			t.Errorf("placement of %s moved: %d -> %d", v, n, shifted.Result.Placement[v])
		}
	}
	// Routes exist for every demand pair in the new matrix.
	for pair := range shifted.Demands {
		if _, ok := shifted.Result.Routes[pair]; !ok {
			t.Fatalf("missing route for %v", pair)
		}
	}
}

func TestTopoTMReplaceReusesAnalysisAndMayMoveState(t *testing.T) {
	p, net, tm := pipelineInputs()
	cold, err := core.ColdStart(p, net, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := cold.TopoTMReplace(traffic.Gravity(net, 400, 17))
	if err != nil {
		t.Fatal(err)
	}
	if shifted.Times.P1Deps != 0 || shifted.Times.P2XFDD != 0 || shifted.Times.P3Map != 0 {
		t.Error("TM re-place must not re-run program analysis")
	}
	if shifted.Times.P5Solve <= 0 || shifted.Times.P6Rules <= 0 {
		t.Error("TM re-place must re-solve and regenerate rules")
	}
	if shifted.Diagram != cold.Diagram || shifted.Mapping != cold.Mapping || shifted.Order != cold.Order {
		t.Error("TM re-place must share the program-analysis artifacts")
	}
	// The solve is unconstrained (ST): every variable must have an owner,
	// and the owner set must cover exactly the cold-start variables —
	// locations are free to differ, which is the point of re-placing.
	if len(shifted.Result.Placement) != len(cold.Result.Placement) {
		t.Fatalf("placement has %d vars, want %d", len(shifted.Result.Placement), len(cold.Result.Placement))
	}
	for v := range cold.Result.Placement {
		if _, ok := shifted.Result.Placement[v]; !ok {
			t.Errorf("variable %s lost its owner", v)
		}
	}
	for pair := range shifted.Demands {
		if _, ok := shifted.Result.Routes[pair]; !ok {
			t.Fatalf("missing route for %v", pair)
		}
	}
}

func TestCompileErrorsPropagate(t *testing.T) {
	_, net, tm := pipelineInputs()
	// A statically racy program fails in P2.
	racy := syntax.Par(
		syntax.WriteState("s", syntax.V(intVal(0)), syntax.V(intVal(1))),
		syntax.WriteState("s", syntax.V(intVal(0)), syntax.V(intVal(2))),
	)
	if _, err := core.ColdStart(racy, net, tm, place.Options{}); err == nil {
		t.Fatal("racy program must fail compilation")
	}
}

func intVal(n int64) values.Value { return values.Int(n) }
