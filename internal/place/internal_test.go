package place

import (
	"testing"

	"snap/internal/deps"
	"snap/internal/psmap"
	"snap/internal/topo"
	"snap/internal/traffic"
)

// ring6 is a 6-switch ring with ports at 0 and 3.
func ring6() *topo.Topology {
	var links []topo.Link
	for i := 0; i < 6; i++ {
		j := (i + 1) % 6
		links = append(links,
			topo.Link{From: topo.NodeID(i), To: topo.NodeID(j), Capacity: 10},
			topo.Link{From: topo.NodeID(j), To: topo.NodeID(i), Capacity: 10})
	}
	return topo.MustNew("ring6", 6, links, []topo.Port{{ID: 1, Switch: 0}, {ID: 2, Switch: 3}})
}

func mapping(vars map[[2]int][]string) *psmap.Mapping {
	m := &psmap.Mapping{Vars: map[[2]int]map[string]bool{}, All: map[string]bool{}}
	for pair, vs := range vars {
		set := map[string]bool{}
		for _, v := range vs {
			set[v] = true
			m.All[v] = true
		}
		m.Vars[pair] = set
	}
	return m
}

func orderFor(vars []string, dep [][2]string) *deps.Order {
	o := &deps.Order{Pos: map[string]int{}, SCC: map[string]int{}}
	for i, v := range vars {
		o.Pos[v] = i
		o.SCC[v] = i
		o.Vars = append(o.Vars, v)
	}
	o.Dep = dep
	return o
}

// mustSolver is Model.newSolver for inputs the test knows to be valid.
func mustSolver(t testing.TB, m *Model, in Inputs) *solver {
	t.Helper()
	s, err := m.newSolver(in)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBuildRouteVisitsWaypointsInOrder: a route through two ordered states
// placed on opposite sides of the ring visits them in dependency order,
// even when that forces a longer walk.
func TestBuildRouteVisitsWaypointsInOrder(t *testing.T) {
	net := ring6()
	m := mapping(map[[2]int][]string{{1, 2}: {"a", "b"}})
	ord := orderFor([]string{"a", "b"}, [][2]string{{"a", "b"}})

	model := NewModel(net, traffic.Matrix{{1, 2}: 1}, Options{Method: Heuristic})
	s := mustSolver(t, model, model.inputs(m, ord))
	loc := map[string]topo.NodeID{"a": 5, "b": 1} // a behind, b ahead

	routes, _, _ := s.route(loc)
	r := routes[[2]int{1, 2}]
	if len(r.Waypoints) != 2 || r.Waypoints[0] != "a" || r.Waypoints[1] != "b" {
		t.Fatalf("waypoints: %v", r.Waypoints)
	}
	aAt, bAt := -1, -1
	for i, n := range r.Nodes {
		if n == 5 && aAt < 0 {
			aAt = i
		}
		if n == 1 && aAt >= 0 && bAt < 0 {
			bAt = i
		}
	}
	if aAt < 0 || bAt < 0 || aAt > bAt {
		t.Fatalf("route %v does not visit a@5 before b@1", r.Nodes)
	}
	// Path is link-contiguous.
	at := r.Nodes[0]
	for i, li := range r.Links {
		if net.Links[li].From != at {
			t.Fatalf("discontiguous at hop %d", i)
		}
		at = net.Links[li].To
	}
	if at != 3 {
		t.Fatalf("route ends at %d, want 3", at)
	}
}

// TestRemoveCyclesPreservesWaypoints: cycles without waypoints are cut;
// cycles containing waypoints survive.
func TestRemoveCyclesPreservesWaypoints(t *testing.T) {
	// Path 0-1-2-1-3 with a pointless 1-2-1 detour (no waypoint inside).
	nodes := []topo.NodeID{0, 1, 2, 1, 3}
	links := []int{100, 101, 102, 103} // link ids are opaque here
	wp := make([]bool, len(nodes))
	c := newCycleCutter(4)
	outN, outL, outW := c.removeCycles(nodes, links, wp)
	if len(outN) != 3 || outN[0] != 0 || outN[1] != 1 || outN[2] != 3 {
		t.Fatalf("cycle not removed: %v", outN)
	}
	if len(outL) != 2 || outL[0] != 100 || outL[1] != 103 {
		t.Fatalf("links mis-spliced: %v", outL)
	}
	if len(outW) != 3 {
		t.Fatalf("waypoint marks mis-spliced: %v", outW)
	}

	// Same path, but node 2 is a waypoint: the detour must stay.
	wp = []bool{false, false, true, false, false}
	outN, _, outW = c.removeCycles([]topo.NodeID{0, 1, 2, 1, 3}, []int{100, 101, 102, 103}, wp)
	if len(outN) != 5 || !outW[2] {
		t.Fatalf("waypoint cycle removed: %v %v", outN, outW)
	}
}

// TestSeedPlacementPicksCoverage: with one state needed by both directions
// between ports 0 and 3 on the ring, the 1-median seed picks a switch on
// a shortest path between them.
func TestSeedPlacementPicksCoverage(t *testing.T) {
	net := ring6()
	m := mapping(map[[2]int][]string{
		{1, 2}: {"s"},
		{2, 1}: {"s"},
	})
	ord := orderFor([]string{"s"}, nil)
	model := NewModel(net, traffic.Matrix{{1, 2}: 1, {2, 1}: 1}, Options{Method: Heuristic})
	s := mustSolver(t, model, model.inputs(m, ord))

	groups := buildGroups(s.in)
	loc := map[string]topo.NodeID{}
	s.indexPairs(groups)
	s.seedPlacement(groups, loc, []int{0})
	// Without both pairs in the index every switch costs 0 and the seed
	// falls on switch 0, which the distance check below cannot tell apart.
	if len(s.gpairs) != 1 || len(s.gpairs[0]) != 2 {
		t.Fatalf("placement index %v: want both directions on the one group", s.gpairs)
	}
	n := loc["s"]
	cost := 0.0
	for _, pi := range s.gpairs[0] {
		p := &s.pinfos[pi]
		cost += p.demand * (s.dist[p.su][n] + s.dist[n][p.sv])
	}
	if cost <= 0 {
		t.Fatalf("seed %d costs %f: the index priced no pair", n, cost)
	}
	// Any node on the ring is at distance ≤ 3 from both ports; the seed
	// must not pick a node farther than the direct path allows (total
	// path cost u→n→v ≤ 6 hops means n ∈ {0..3} one way or {3..0} other).
	du := s.dist[0][n] + s.dist[n][3]
	if du > s.dist[0][3]+1e-9 {
		t.Fatalf("seed %d off every shortest 1→2 path (detour %f vs %f)", n, du, s.dist[0][3])
	}
}

// TestBuildGroupsTies: tied variables form one group, placed jointly.
func TestBuildGroupsTies(t *testing.T) {
	m := mapping(map[[2]int][]string{{1, 2}: {"a", "b", "c"}})
	ord := orderFor([]string{"a", "b", "c"}, nil)
	ord.Tied = [][2]string{{"a", "b"}}
	in := Inputs{Mapping: m, Order: ord}
	gs := buildGroups(in)
	if len(gs) != 2 {
		t.Fatalf("groups: %d, want 2 (ab, c)", len(gs))
	}
	var sizes []int
	for _, g := range gs {
		sizes = append(sizes, len(g.vars))
	}
	if !(sizes[0] == 2 && sizes[1] == 1 || sizes[0] == 1 && sizes[1] == 2) {
		t.Fatalf("group sizes: %v", sizes)
	}
}

// TestExactColumnsEstimate: the Auto threshold estimator counts routing and
// passed-flow columns.
func TestExactColumnsEstimate(t *testing.T) {
	net := ring6()
	m := mapping(map[[2]int][]string{{1, 2}: {"s"}})
	ord := orderFor([]string{"s"}, nil)
	in := Inputs{Topo: net, Demands: traffic.Matrix{{1, 2}: 1}, Mapping: m, Order: ord}
	links := len(net.Links) + 2*len(net.Ports) // 12 + 4
	want := 1*links + 1*links + 1*net.Switches
	if got := exactColumns(in); got != want {
		t.Fatalf("exactColumns = %d, want %d", got, want)
	}
}
