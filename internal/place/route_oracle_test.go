package place

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"snap/internal/deps"
	"snap/internal/psmap"
	"snap/internal/topo"
	"snap/internal/traffic"
)

// The reference router: the map-based route builder that the dense index
// and the tree-path routes replaced, kept verbatim as the oracle the solver's
// routes must equal, route for route.

// refRoute is the penalty-round loop over the reference builder. It also
// returns how many rounds it routed.
func refRoute(s *solver, loc map[string]topo.NodeID) (map[[2]int]Route, float64, float64, int) {
	routes := make(map[[2]int]Route, len(s.in.Demands))
	for round := 0; ; round++ {
		load := make([]float64, len(s.in.Topo.Links))
		for _, pr := range s.in.Demands.Pairs() {
			r := refBuildRoute(s, pr[0], pr[1], loc)
			routes[pr] = r
			for _, li := range r.Links {
				load[li] += s.in.Demands[pr]
			}
		}
		congestion, maxUtil := 0.0, 0.0
		overloaded := false
		for i, l := range s.in.Topo.Links {
			if l.Capacity <= 0 {
				continue
			}
			u := load[i] / l.Capacity
			congestion += u
			if u > maxUtil {
				maxUtil = u
			}
			if u > 1+1e-9 {
				overloaded = true
			}
		}
		if !overloaded || round >= s.opts.PenaltyRounds {
			return routes, congestion, maxUtil, round + 1
		}
		// Penalize overloaded links and recompute distances.
		for i, l := range s.in.Topo.Links {
			if l.Capacity > 0 && load[i] > l.Capacity {
				s.weights[i] *= 1 + 2*(load[i]/l.Capacity-1)
			}
		}
		s.computeAllDists()
	}
}

// refBuildRoute threads pair uv through its placed waypoints and strips any
// cycles that do not contain a waypoint visit.
func refBuildRoute(s *solver, u, v int, loc map[string]topo.NodeID) Route {
	pu, _ := s.in.Topo.PortByID(u)
	pv, _ := s.in.Topo.PortByID(v)
	su, sv := pu.Switch, pv.Switch
	seq := s.in.Mapping.StateSeq(u, v, s.in.Order)

	nodes := []topo.NodeID{su}
	var links []int
	waypointAt := map[int]bool{0: false}
	cur := su

	hop := func(to topo.NodeID) {
		if to == cur {
			return
		}
		path := refPathLinks(s.in.Topo, s.prev[cur], to)
		for _, li := range path {
			links = append(links, li)
			nodes = append(nodes, s.in.Topo.Links[li].To)
		}
		cur = to
	}
	for _, sv := range seq {
		hop(loc[sv])
		waypointAt[len(nodes)-1] = true
	}
	hop(sv)

	nodes, links = refRemoveCycles(nodes, links, waypointAt)
	return Route{Nodes: nodes, Links: links, Waypoints: seq}
}

// refPathLinks reconstructs the src→dst link sequence from a Dijkstra run.
func refPathLinks(t *topo.Topology, prevLink []int, dst topo.NodeID) []int {
	var rev []int
	for n := dst; prevLink[n] >= 0; n = t.Links[prevLink[n]].From {
		rev = append(rev, prevLink[n])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// refRemoveCycles deletes revisit loops that contain no waypoint, preserving
// the waypoint visit order.
func refRemoveCycles(nodes []topo.NodeID, links []int, waypointAt map[int]bool) ([]topo.NodeID, []int) {
	for {
		last := map[topo.NodeID]int{}
		cut := false
		for i, n := range nodes {
			if j, seen := last[n]; seen {
				// Candidate cycle nodes j..i; removable if no waypoint
				// strictly inside (j exclusive, i inclusive).
				ok := true
				for k := j + 1; k <= i; k++ {
					if waypointAt[k] {
						ok = false
						break
					}
				}
				if ok {
					// Splice out nodes j+1..i and links j..i-1.
					newNodes := append(append([]topo.NodeID{}, nodes[:j+1]...), nodes[i+1:]...)
					newLinks := append(append([]int{}, links[:j]...), links[i:]...)
					// Re-key waypoint positions after the splice.
					newWp := map[int]bool{}
					for k, w := range waypointAt {
						switch {
						case k <= j:
							newWp[k] = newWp[k] || w
						case k > i:
							newWp[k-(i-j)] = newWp[k-(i-j)] || w
						}
					}
					nodes, links, waypointAt = newNodes, newLinks, newWp
					cut = true
					break
				}
			}
			last[n] = i
		}
		if !cut {
			return nodes, links
		}
	}
}

// checkAgainstReference routes res's placement with the reference builder
// on a fresh solver and requires the same routes, congestion and maximum
// utilisation. It returns the reference's round count.
func checkAgainstReference(t *testing.T, label string, m *Model, mapping *psmap.Mapping, order *deps.Order, res *Result) int {
	t.Helper()
	s := m.newSolver(m.inputs(mapping, order))
	routes, congestion, maxUtil, rounds := refRoute(s, res.Placement)
	if len(routes) != len(res.Routes) {
		t.Fatalf("%s: %d routes, reference %d", label, len(res.Routes), len(routes))
	}
	for pr, want := range routes {
		got, ok := res.Routes[pr]
		if !ok {
			t.Fatalf("%s: no route for %v", label, pr)
		}
		if !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Links, want.Links) || !slices.Equal(got.Waypoints, want.Waypoints) {
			t.Fatalf("%s: route %v\n got  %v %v %v\n want %v %v %v", label, pr,
				got.Nodes, got.Links, got.Waypoints, want.Nodes, want.Links, want.Waypoints)
		}
	}
	if res.Congestion != congestion || res.MaxUtil != maxUtil {
		t.Fatalf("%s: congestion %v max util %v, reference %v %v", label, res.Congestion, res.MaxUtil, congestion, maxUtil)
	}
	return rounds
}

// randomStateful gives a random share of the port pairs a random waypoint
// set drawn from nvars variables (two of them tied), in a random dependency
// order.
func randomStateful(rng *rand.Rand, tp *topo.Topology, nvars int, share float64) (*psmap.Mapping, *deps.Order) {
	names := make([]string, nvars)
	for i, p := range rng.Perm(nvars) {
		names[i] = fmt.Sprintf("v%d", p)
	}
	vars := map[[2]int][]string{}
	ids := tp.PortIDs()
	for _, u := range ids {
		for _, v := range ids {
			if u == v || rng.Float64() >= share {
				continue
			}
			set := make([]string, 1+rng.Intn(4))
			for i := range set {
				set[i] = names[rng.Intn(nvars)]
			}
			vars[[2]int{u, v}] = set
		}
	}
	ord := orderFor(names, nil)
	ord.Tied = [][2]string{{names[0], names[1]}}
	return mapping(vars), ord
}

// randomPlacement puts every variable on one of a few alive switches, so
// waypoints share switches and sequences revisit them.
func randomPlacement(rng *rand.Rand, tp *topo.Topology, order *deps.Order) map[string]topo.NodeID {
	var alive []topo.NodeID
	for n := 0; n < tp.Switches; n++ {
		if tp.Up(topo.NodeID(n)) {
			alive = append(alive, topo.NodeID(n))
		}
	}
	rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	few := alive[:min(3, len(alive))]
	out := map[string]topo.NodeID{}
	for _, v := range order.Vars {
		out[v] = few[rng.Intn(len(few))]
	}
	// Tied variables share a switch.
	for _, tie := range order.Tied {
		out[tie[1]] = out[tie[0]]
	}
	return out
}

// solveAll runs SolveST, SolveTE on a random placement and SolveSTWarm from
// a random placement with a random dirty set, each checked against the
// reference. It returns the most rounds the reference routed.
func solveAll(t *testing.T, label string, rng *rand.Rand, m *Model, mapping *psmap.Mapping, order *deps.Order) int {
	t.Helper()
	rounds := 0
	st, err := m.SolveST(mapping, order)
	if err != nil {
		t.Fatalf("%s: SolveST: %v", label, err)
	}
	rounds = max(rounds, checkAgainstReference(t, label+"/ST", m, mapping, order, st))

	fixed := randomPlacement(rng, m.topo, order)
	te, err := m.SolveTE(mapping, order, fixed)
	if err != nil {
		t.Fatalf("%s: SolveTE: %v", label, err)
	}
	rounds = max(rounds, checkAgainstReference(t, label+"/TE", m, mapping, order, te))

	dirty := map[string]bool{}
	for _, v := range order.Vars {
		if rng.Intn(4) == 0 {
			dirty[v] = true
		}
	}
	warm, err := m.SolveSTWarm(mapping, order, randomPlacement(rng, m.topo, order), dirty)
	if err != nil {
		t.Fatalf("%s: SolveSTWarm: %v", label, err)
	}
	rounds = max(rounds, checkAgainstReference(t, label+"/warm", m, mapping, order, warm))
	return rounds
}

// TestRoutesMatchReference: the solver's routes, congestion and maximum
// utilisation equal the reference builder's under SolveST, SolveTE and
// SolveSTWarm, on every Table 5 topology and three IGen sizes with random
// waypoint sequences and placements, and on matrices that overload links
// for at least two penalty rounds.
func TestRoutesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opts := Options{Method: Heuristic}
	var nets []*topo.Topology
	for _, spec := range topo.Table5() {
		tp, err := topo.Named(spec.Name, 1000, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, tp)
	}
	for _, n := range []int{16, 40, 120} {
		tp, err := topo.NewIGen(n, 1000)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, tp)
	}
	for i, tp := range nets {
		mapping, order := randomStateful(rng, tp, 6, 0.1)
		m := NewModel(tp, traffic.Gravity(tp, 100, int64(i+1)), opts)
		solveAll(t, tp.Name, rng, m, mapping, order)
	}

	// On a connected network every leg is a simple tree path that starts
	// where the last waypoint was visited, so no cycle is free of waypoints.
	// Two disjoint rings make some waypoints unreachable: the leg after one
	// starts elsewhere, routes can revisit their ingress switch, and the
	// cycle cutter has work.
	var rings []topo.Link
	var ports []topo.Port
	for r := 0; r < 2; r++ {
		for i := 0; i < 6; i++ {
			a, b := topo.NodeID(6*r+i), topo.NodeID(6*r+(i+1)%6)
			rings = append(rings, topo.Link{From: a, To: b, Capacity: 10}, topo.Link{From: b, To: a, Capacity: 10})
			ports = append(ports, topo.Port{ID: 6*r + i + 1, Switch: a})
		}
	}
	split := topo.MustNew("two-rings", 12, rings, ports)
	for i := 0; i < 20; i++ {
		smap, sord := randomStateful(rng, split, 4, 0.5)
		m := NewModel(split, traffic.Gravity(split, 10, int64(i+1)), opts)
		solveAll(t, split.Name, rng, m, smap, sord)
	}

	// Overload: a tight IGen network, and the diamond of TestCapacityPenalty
	// whose one pair exceeds either path.
	tight, err := topo.NewIGen(16, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tmap, tord := randomStateful(rng, tight, 4, 0.3)
	m := NewModel(tight, traffic.Gravity(tight, 100, 3), Options{Method: Heuristic, PenaltyRounds: 4})
	if rounds := solveAll(t, "tight-igen", rng, m, tmap, tord); rounds < 3 {
		t.Errorf("tight-igen: reference routed %d rounds, want at least 3 (two penalty rounds)", rounds)
	}

	var links []topo.Link
	add := func(a, b topo.NodeID, c float64) {
		links = append(links, topo.Link{From: a, To: b, Capacity: c}, topo.Link{From: b, To: a, Capacity: c})
	}
	add(0, 1, 2)
	add(1, 2, 2)
	add(0, 3, 1)
	add(3, 2, 1)
	diamond := topo.MustNew("diamond", 4, links, []topo.Port{{ID: 1, Switch: 0}, {ID: 2, Switch: 2}})
	dmap := mapping(map[[2]int][]string{{1, 2}: {"a"}})
	dord := orderFor([]string{"a"}, nil)
	m = NewModel(diamond, traffic.Matrix{{1, 2}: 3, {2, 1}: 1}, Options{Method: Heuristic, PenaltyRounds: 5})
	if rounds := solveAll(t, "diamond", rng, m, dmap, dord); rounds < 3 {
		t.Errorf("diamond: reference routed %d rounds, want at least 3 (two penalty rounds)", rounds)
	}
}

// TestRouteAllocs: routing a mostly stateless mapping on IGen-120 costs at
// most three allocations per pair — the route's two slices, plus the map
// and the per-call slices amortised over the pairs.
func TestRouteAllocs(t *testing.T) {
	tp, err := topo.NewIGen(120, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	mapping, order := randomStateful(rng, tp, 4, 0.02)
	m := NewModel(tp, traffic.Gravity(tp, 100, 1), Options{Method: Heuristic})
	s := m.newSolver(m.inputs(mapping, order))
	loc := randomPlacement(rng, tp, order)
	allocs := testing.AllocsPerRun(5, func() { s.route(loc) })
	perPair := allocs / float64(len(s.pairs))
	t.Logf("%d pairs, %.0f allocations per route call, %.2f per pair", len(s.pairs), allocs, perPair)
	if perPair > 3 {
		t.Errorf("route allocates %.2f objects per pair, want at most 3", perPair)
	}
}

// TestRemoveCyclesMatchesReference: on random switch sequences with random
// waypoint marks, including repeated and adjacent revisits, the in-place
// cycle cutter keeps exactly the nodes, links and marks the reference keeps.
func TestRemoveCyclesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := newCycleCutter(5)
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(16)
		nodes := make([]topo.NodeID, n)
		wp := make([]bool, n)
		wpAt := map[int]bool{}
		for i := range nodes {
			nodes[i] = topo.NodeID(rng.Intn(5))
			if rng.Intn(5) == 0 {
				wp[i], wpAt[i] = true, true
			}
		}
		links := make([]int, n-1)
		for i := range links {
			links[i] = 100 + i
		}
		wantN, wantL := refRemoveCycles(slices.Clone(nodes), slices.Clone(links), wpAt)
		gotN, gotL, gotW := c.removeCycles(slices.Clone(nodes), slices.Clone(links), slices.Clone(wp))
		if !slices.Equal(gotN, wantN) || !slices.Equal(gotL, wantL) {
			t.Fatalf("%v %v marks %v:\n got  %v %v\n want %v %v", nodes, links, wp, gotN, gotL, wantN, wantL)
		}
		// Every mark survives a cut: only waypoint-free stretches go.
		if marks := len(slices.DeleteFunc(slices.Clone(gotW), func(w bool) bool { return !w })); marks != len(wpAt) || len(gotW) != len(gotN) {
			t.Fatalf("%v marks %v: kept marks %v for nodes %v", nodes, wp, gotW, gotN)
		}
	}
}
