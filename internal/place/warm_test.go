package place_test

import (
	"reflect"
	"testing"

	"snap/internal/apps"
	"snap/internal/pkt"
	"snap/internal/place"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
)

// warmInputs compiles a two-variable policy (monitor counter + a guarded
// second counter) over line4 so the warm solve has one group to pin and
// one to treat as dirty.
func warmInputs(t *testing.T) (place.Inputs, *topo.Topology) {
	t.Helper()
	net := line4(10)
	p := syntax.Then(
		apps.Monitor(),
		syntax.IncrState("edits", syntax.Vec(syntax.F(pkt.DstIP))),
		apps.AssignEgress(2),
	)
	in := compile(t, p, net)
	in.Demands = traffic.Matrix{{1, 2}: 2, {2, 1}: 1}
	return in, net
}

func TestSolveSTWarmPinsCleanGroups(t *testing.T) {
	in, net := warmInputs(t)
	m := place.NewModel(net, in.Demands, place.Options{Method: place.Heuristic})
	cold, err := m.SolveST(in.Mapping, in.Order)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}

	warm, err := m.SolveSTWarm(in.Mapping, in.Order, cold.Placement, map[string]bool{"edits": true})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warm.Method != "heuristic-warm" {
		t.Fatalf("Method = %q, want heuristic-warm", warm.Method)
	}
	if warm.PinnedGroups == 0 || warm.MovedGroups == 0 {
		t.Fatalf("expected a pinned and a moved group, got pinned=%d moved=%d",
			warm.PinnedGroups, warm.MovedGroups)
	}
	if warm.Placement["count"] != cold.Placement["count"] {
		t.Fatalf("clean variable moved: %v -> %v", cold.Placement["count"], warm.Placement["count"])
	}
	if _, ok := warm.Placement["edits"]; !ok {
		t.Fatal("dirty variable not placed")
	}
	for pair := range in.Demands {
		if _, ok := warm.Routes[pair]; !ok {
			t.Fatalf("pair %v not routed", pair)
		}
	}
}

func TestSolveSTWarmNoDirtyPinsEverything(t *testing.T) {
	in, net := warmInputs(t)
	m := place.NewModel(net, in.Demands, place.Options{Method: place.Heuristic})
	cold, err := m.SolveST(in.Mapping, in.Order)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	warm, err := m.SolveSTWarm(in.Mapping, in.Order, cold.Placement, nil)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warm.MovedGroups != 0 {
		t.Fatalf("no dirty vars but MovedGroups = %d", warm.MovedGroups)
	}
	for v, n := range cold.Placement {
		if warm.Placement[v] != n {
			t.Fatalf("variable %s moved without being dirty: %v -> %v", v, n, warm.Placement[v])
		}
	}
	// A fully pinned warm solve is a TE solve on the same placement.
	te, err := m.SolveTE(in.Mapping, in.Order, warm.Placement)
	if err != nil {
		t.Fatalf("te: %v", err)
	}
	if !reflect.DeepEqual(warm.Routes, te.Routes) || warm.Congestion != te.Congestion {
		t.Fatalf("pinned warm solve routes differently from TE: congestion %v vs %v", warm.Congestion, te.Congestion)
	}
}

func TestSolveSTWarmFallsBack(t *testing.T) {
	in, net := warmInputs(t)
	m := place.NewModel(net, in.Demands, place.Options{Method: place.Heuristic})
	cold, err := m.SolveST(in.Mapping, in.Order)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	// All variables dirty: the warm path must hand over to the full solve.
	res, err := m.SolveSTWarm(in.Mapping, in.Order, cold.Placement,
		map[string]bool{"count": true, "edits": true})
	if err != nil {
		t.Fatalf("warm-all-dirty: %v", err)
	}
	if res.Method == "heuristic-warm" {
		t.Fatal("all-dirty edit still took the warm path")
	}
	// No previous placement: same.
	res, err = m.SolveSTWarm(in.Mapping, in.Order, nil, nil)
	if err != nil {
		t.Fatalf("warm-no-prev: %v", err)
	}
	if res.Method == "heuristic-warm" {
		t.Fatal("warm path ran without a previous placement")
	}
}
