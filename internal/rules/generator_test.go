package rules_test

import (
	"maps"
	"slices"
	"testing"

	"snap/internal/apps"
	"snap/internal/place"
	"snap/internal/psmap"
	"snap/internal/rules"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/xfdd"
)

func solveFor(t *testing.T, p syntax.Policy, net *topo.Topology) (*xfdd.Diagram, *place.Result) {
	t.Helper()
	d, order, err := xfdd.Translate(p)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	in := place.Inputs{
		Topo:    net,
		Demands: traffic.Gravity(net, 100, 1),
		Mapping: psmap.Build(d, net.PortIDs()),
		Order:   order,
	}
	res, err := place.Solve(in, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	return d, res
}

// forest is the shortest-path forest P4 hands P6 for net.
func forest(net *topo.Topology) *topo.Forest { return net.Forest(net.CapacityWeights()) }

// TestGeneratorReusesPrograms: regenerating with the same diagram keeps
// programs pointer-stable, so DiffSwitches reports nothing dirty.
func TestGeneratorReusesPrograms(t *testing.T) {
	net := topo.Campus(1000)
	p := syntax.Then(apps.Assumption(6), syntax.Then(apps.DNSTunnelDetect(), apps.AssignEgress(6)))
	d, res := solveFor(t, p, net)

	g := rules.NewGenerator()
	cfg1, err := g.Generate(d, net, forest(net), res.Placement, nil, res.Routes)
	if err != nil {
		t.Fatal(err)
	}
	if g.CompiledPrograms == 0 {
		t.Fatal("first generation compiled nothing")
	}
	cfg2, err := g.Generate(d, net, forest(net), res.Placement, nil, res.Routes)
	if err != nil {
		t.Fatal(err)
	}
	if g.CompiledPrograms != 0 {
		t.Fatalf("second generation recompiled %d programs", g.CompiledPrograms)
	}
	if g.ReusedPrograms == 0 {
		t.Fatal("second generation reused nothing")
	}
	for n, sc := range cfg1.Switches {
		if cfg2.Switches[n].Prog != sc.Prog {
			t.Fatalf("switch %d program not pointer-stable", n)
		}
		if cfg2.Switches[n].Linked != sc.Linked {
			t.Fatalf("switch %d linked image not pointer-stable", n)
		}
	}
	if dirty := rules.DiffSwitches(cfg1, cfg2); len(dirty) != 0 {
		t.Fatalf("identical configs diff as dirty: %v", dirty)
	}
}

// TestGeneratorRelinksOnNewVarSpace: a cached image bakes in variable ids,
// so when the same diagram is generated under a placement with one more
// name, every switch — also those whose program is recalled — runs an
// image linked against the new configuration's variable space.
func TestGeneratorRelinksOnNewVarSpace(t *testing.T) {
	net := topo.Campus(1000)
	p := syntax.Then(apps.Assumption(6), syntax.Then(apps.DNSTunnelDetect(), apps.AssignEgress(6)))
	d, res := solveFor(t, p, net)
	wider := maps.Clone(res.Placement)
	wider["extra"] = 0

	g := rules.NewGenerator()
	for i, placement := range []map[string]topo.NodeID{res.Placement, wider, res.Placement} {
		cfg, err := g.Generate(d, net, forest(net), placement, nil, res.Routes)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && g.ReusedPrograms == 0 {
			t.Fatalf("generation %d reused no program: the signature check was never exercised", i)
		}
		want := cfg.VarSpace().Signature()
		for n, sc := range cfg.Switches {
			if got := sc.Linked.VarSpace().Signature(); got != want {
				t.Fatalf("generation %d, switch %d: image linked against %q, configuration space is %q", i, n, got, want)
			}
		}
	}
}

// TestDiffSwitchesDetectsMove: moving one variable dirties exactly the
// switches whose programs or routes changed — and at minimum the old and
// new owner.
func TestDiffSwitchesDetectsMove(t *testing.T) {
	net := topo.Campus(1000)
	p := syntax.Then(apps.Assumption(6), syntax.Then(apps.DNSTunnelDetect(), apps.AssignEgress(6)))
	d, res := solveFor(t, p, net)

	g := rules.NewGenerator()
	cfg1, err := g.Generate(d, net, forest(net), res.Placement, nil, res.Routes)
	if err != nil {
		t.Fatal(err)
	}

	// Move every placed variable to a different switch.
	moved := map[string]topo.NodeID{}
	var oldOwner, newOwner topo.NodeID
	for v, n := range res.Placement {
		oldOwner = n
		newOwner = topo.NodeID((int(n) + 1) % net.Switches)
		moved[v] = newOwner
	}
	cfg2, err := g.Generate(d, net, forest(net), moved, nil, res.Routes)
	if err != nil {
		t.Fatal(err)
	}
	dirty := rules.DiffSwitches(cfg1, cfg2)
	if len(dirty) == 0 {
		t.Fatal("ownership move produced no dirty switches")
	}
	has := func(n topo.NodeID) bool {
		for _, id := range dirty {
			if id == n {
				return true
			}
		}
		return false
	}
	if !has(oldOwner) || !has(newOwner) {
		t.Fatalf("dirty set %v misses old owner %d or new owner %d", dirty, oldOwner, newOwner)
	}
}

// lastOccurrence is the reference for the route table, built from the
// optimizer's routes alone: per pair, the link each switch of the route
// forwards on, a later occurrence of a switch replacing an earlier one.
func lastOccurrence(net *topo.Topology, routes map[[2]int]place.Route) map[[2]int]map[topo.NodeID]int {
	want := map[[2]int]map[topo.NodeID]int{}
	for pair, r := range routes {
		want[pair] = map[topo.NodeID]int{}
		for _, li := range r.Links {
			want[pair][net.Links[li].From] = li
		}
	}
	return want
}

// checkRouteTable compares the flat table with the reference at every
// (pair, switch), and the per-switch ForwardRules with the entries counted.
func checkRouteTable(t *testing.T, cfg *rules.Config, routes map[[2]int]place.Route) {
	t.Helper()
	if len(routes) == 0 {
		t.Fatal("no route to check the table against")
	}
	want := lastOccurrence(cfg.Topo, routes)
	installed := map[topo.NodeID]int{}
	for _, u := range cfg.Topo.PortIDs() {
		for _, v := range cfg.Topo.PortIDs() {
			entries := cfg.Routes.Pair(u, v)
			if len(entries) != len(want[[2]int{u, v}]) {
				t.Fatalf("pair (%d,%d): %d entries %v, want %v", u, v, len(entries), entries, want[[2]int{u, v}])
			}
			for s := 0; s < cfg.Topo.Switches; s++ {
				wli, ok := want[[2]int{u, v}][topo.NodeID(s)]
				if !ok {
					wli = -1
				}
				if li := rules.NextLink(entries, topo.NodeID(s)); li != wli {
					t.Fatalf("pair (%d,%d) at switch %d: link %d, want %d", u, v, s, li, wli)
				}
				if ok {
					installed[topo.NodeID(s)]++
				}
			}
		}
	}
	for id, sc := range cfg.Switches {
		if sc.Stats.ForwardRules != installed[id] {
			t.Fatalf("switch %d: ForwardRules %d, table holds %d entries there", id, sc.Stats.ForwardRules, installed[id])
		}
	}
}

// TestRouteTableMatchesRoutes: the one flat table answers, for every
// application of the catalogue on the campus (the topology of the
// equivalence suites), for forwarding on a 40-switch WAN, and for a
// hand-built route that passes one switch twice, exactly what a
// last-occurrence map built from the routes answers.
func TestRouteTableMatchesRoutes(t *testing.T) {
	campus := topo.Campus(1000)
	for _, app := range apps.All() {
		p := syntax.Then(apps.Assumption(6), syntax.Then(app.MustPolicy(), apps.AssignEgress(6)))
		d, res := solveFor(t, p, campus)
		cfg, err := rules.GenerateReplicated(d, campus, res.Placement, res.Replicas, res.Routes)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		checkRouteTable(t, cfg, res.Routes)
	}

	wan := topo.IGen(40, 1000)
	ports := len(wan.Ports)
	d, res := solveFor(t, syntax.Then(apps.Assumption(ports), apps.AssignEgress(ports)), wan)
	cfg, err := rules.Generate(d, wan, res.Placement, res.Routes)
	if err != nil {
		t.Fatal(err)
	}
	checkRouteTable(t, cfg, res.Routes)

	// 0 → 1 → 2 → 1 → 3: the waypoint at 2 brings the route back through 1,
	// whose entry must be the link to 3, not the link to 2.
	net, d := diamond(t)
	loop := map[[2]int]place.Route{{1, 2}: {Links: []int{
		net.LinkBetween(0, 1), net.LinkBetween(1, 2), net.LinkBetween(2, 1), net.LinkBetween(1, 3),
	}}}
	cfg, err = rules.Generate(d, net, nil, loop)
	if err != nil {
		t.Fatal(err)
	}
	checkRouteTable(t, cfg, loop)
	if li := rules.NextLink(cfg.Routes.Pair(1, 2), 1); li != net.LinkBetween(1, 3) {
		t.Fatalf("revisited switch 1 forwards on link %d, want its last occurrence %d", li, net.LinkBetween(1, 3))
	}
	if got := cfg.Switches[1].Stats.ForwardRules; got != 1 {
		t.Fatalf("revisited switch 1 counts %d forwarding rules, want 1", got)
	}
}

// diamond is four switches, 0 and 3 joined through 1 and through 2, with 1
// and 2 joined as well; port 1 hangs off switch 0 and port 2 off switch 3.
func diamond(t *testing.T) (*topo.Topology, *xfdd.Diagram) {
	t.Helper()
	var links []topo.Link
	for _, l := range [][2]topo.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 2}} {
		links = append(links, topo.Link{From: l[0], To: l[1], Capacity: 1000}, topo.Link{From: l[1], To: l[0], Capacity: 1000})
	}
	net, err := topo.New("diamond", 4, links, []topo.Port{{ID: 1, Switch: 0}, {ID: 2, Switch: 3}})
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := xfdd.Translate(apps.AssignEgress(2))
	if err != nil {
		t.Fatal(err)
	}
	return net, d
}

// TestDiffSwitchesNamesReroutedSwitches: two configurations that differ in
// one pair's route differ at the switch whose entry changed link (0), the
// one that lost its entry (1) and the one that gained one (2), and nowhere
// else: not at the egress switch, not for the pair routed the same.
func TestDiffSwitchesNamesReroutedSwitches(t *testing.T) {
	net, d := diamond(t)
	via := func(mid topo.NodeID) place.Route {
		return place.Route{Links: []int{net.LinkBetween(0, mid), net.LinkBetween(mid, 3)}}
	}
	back := place.Route{Links: []int{net.LinkBetween(3, 2), net.LinkBetween(2, 0)}}
	g := rules.NewGenerator()
	a, err := g.Generate(d, net, forest(net), nil, nil, map[[2]int]place.Route{{1, 2}: via(1), {2, 1}: back})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Generate(d, net, forest(net), nil, nil, map[[2]int]place.Route{{1, 2}: via(2), {2, 1}: back})
	if err != nil {
		t.Fatal(err)
	}
	if dirty := rules.DiffSwitches(a, a); len(dirty) != 0 {
		t.Fatalf("a configuration differs from itself at %v", dirty)
	}
	for _, pair := range [][2]*rules.Config{{a, b}, {b, a}} {
		dirty := rules.DiffSwitches(pair[0], pair[1])
		if want := []topo.NodeID{0, 1, 2}; !slices.Equal(dirty, want) {
			t.Fatalf("dirty switches %v, want %v", dirty, want)
		}
	}
}

// TestGenerateRejectsUnknownOwners: a variable placed, or replicated, on a
// switch outside the topology, a replica for an unplaced variable and a
// backup equal to its primary are refused before any program is built; an
// unknown primary once passed and crashed the walk at its first fallback
// hop toward the owner.
func TestGenerateRejectsUnknownOwners(t *testing.T) {
	net, d := diamond(t)
	for _, c := range []struct {
		placement map[string]topo.NodeID
		replicas  map[string][]topo.NodeID
		want      string
	}{
		{map[string]topo.NodeID{"s": 99}, nil, "rules: state variable s placed on unknown switch 99"},
		{map[string]topo.NodeID{"s": -1}, nil, "rules: state variable s placed on unknown switch -1"},
		{map[string]topo.NodeID{"s": 1}, map[string][]topo.NodeID{"s": {4}}, "rules: state variable s replicated onto unknown switch 4"},
		{map[string]topo.NodeID{"s": 1}, map[string][]topo.NodeID{"s": {1}}, "rules: state variable s replicated onto its own primary switch 1"},
		{nil, map[string][]topo.NodeID{"s": {1}}, "rules: replica assignment for unplaced state variable s"},
	} {
		_, err := rules.NewGenerator().Generate(d, net, forest(net), c.placement, c.replicas, nil)
		if err == nil || err.Error() != c.want {
			t.Errorf("placement %v, replicas %v: error %v, want %q", c.placement, c.replicas, err, c.want)
		}
	}
}
