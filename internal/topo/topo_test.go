package topo

import (
	"testing"
)

func TestCampusStructure(t *testing.T) {
	c := Campus(100)
	if c.Switches != 12 {
		t.Fatalf("switches = %d", c.Switches)
	}
	if len(c.Ports) != 6 {
		t.Fatalf("ports = %d", len(c.Ports))
	}
	if !c.Connected() {
		t.Fatal("campus must be connected")
	}
	// Port 6 attaches to D4 (node 5) per Figure 2.
	p, ok := c.PortByID(6)
	if !ok || p.Switch != 5 {
		t.Fatalf("port 6 on %v", p)
	}
	// Every link has its reverse.
	for _, l := range c.Links {
		if c.LinkBetween(l.To, l.From) < 0 {
			t.Fatalf("missing reverse of %d->%d", l.From, l.To)
		}
	}
	// The §2.2 path wiring exists: I1–C1, C1–C5, C5–D4.
	for _, e := range [][2]NodeID{{0, 6}, {6, 10}, {10, 5}} {
		if c.LinkBetween(e[0], e[1]) < 0 {
			t.Errorf("missing §2.2 link %s–%s", CampusSwitchName(e[0]), CampusSwitchName(e[1]))
		}
	}
}

func TestNamedTopologiesMatchTable5(t *testing.T) {
	for _, spec := range Table5() {
		tp, err := Named(spec.Name, 100, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if tp.Switches != spec.Switches {
			t.Errorf("%s: switches %d, want %d", spec.Name, tp.Switches, spec.Switches)
		}
		if len(tp.Links) != spec.Edges {
			t.Errorf("%s: directed edges %d, want %d", spec.Name, len(tp.Links), spec.Edges)
		}
		if len(tp.Ports) != spec.Ports {
			t.Errorf("%s: ports %d, want %d", spec.Name, len(tp.Ports), spec.Ports)
		}
		if !tp.Connected() {
			t.Errorf("%s: not connected", spec.Name)
		}
	}
}

func TestNamedDeterministic(t *testing.T) {
	a, _ := Named("AS1755", 100, 1.0)
	b, _ := Named("AS1755", 100, 1.0)
	if len(a.Links) != len(b.Links) {
		t.Fatal("link counts differ across runs")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("link %d differs: %v vs %v", i, a.Links[i], b.Links[i])
		}
	}
}

func TestPortScaling(t *testing.T) {
	tp, err := Named("Stanford", 100, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tp.Ports); got != 36 {
		t.Fatalf("scaled ports = %d, want 36", got)
	}
	if _, err := Named("Nowhere", 100, 1); err == nil {
		t.Fatal("unknown topology must error")
	}
}

// TestEdgePortsOnLowDegree: ports live on the 70% lowest-degree switches
// (§6.2), so no port switch may have a degree above the 70th-percentile
// boundary.
func TestEdgePortsOnLowDegree(t *testing.T) {
	tp, _ := Named("AS6461", 100, 1.0)
	deg := tp.Degree()
	sorted := append([]int(nil), deg...)
	sortInts(sorted)
	nEdge := (tp.Switches*7 + 9) / 10
	boundary := sorted[nEdge-1]
	for _, p := range tp.Ports {
		if deg[p.Switch] > boundary {
			t.Fatalf("port %d on switch %d with degree %d > boundary %d",
				p.ID, p.Switch, deg[p.Switch], boundary)
		}
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestIGenProperties(t *testing.T) {
	for _, n := range []int{10, 50, 180} {
		tp := IGen(n, 100)
		if tp.Switches != n {
			t.Fatalf("igen-%d: switches %d", n, tp.Switches)
		}
		if !tp.Connected() {
			t.Fatalf("igen-%d: not connected", n)
		}
		wantPorts := (n*7 + 9) / 10
		if len(tp.Ports) != wantPorts {
			t.Fatalf("igen-%d: ports %d, want %d", n, len(tp.Ports), wantPorts)
		}
	}
}

func TestShortestPaths(t *testing.T) {
	// Line 0-1-2-3 with a shortcut 0-3 of high cost.
	links := []Link{
		{From: 0, To: 1, Capacity: 10}, {From: 1, To: 0, Capacity: 10},
		{From: 1, To: 2, Capacity: 10}, {From: 2, To: 1, Capacity: 10},
		{From: 2, To: 3, Capacity: 10}, {From: 3, To: 2, Capacity: 10},
		{From: 0, To: 3, Capacity: 1}, {From: 3, To: 0, Capacity: 1},
	}
	tp := MustNew("t", 4, links, nil)
	// Unit weights: direct hop wins.
	dist, prev := tp.ShortestDists(0, nil)
	if dist[3] != 1 {
		t.Fatalf("unit-weight dist to 3 = %f", dist[3])
	}
	// 1/capacity weights: the three-hop path (0.3) beats the shortcut (1.0).
	w := make([]float64, len(links))
	for i, l := range links {
		w[i] = 1 / l.Capacity
	}
	dist, prev = tp.ShortestDists(0, w)
	if dist[3] >= 0.5 {
		t.Fatalf("capacity-weight dist to 3 = %f", dist[3])
	}
	hops := tp.TreeHops(prev, 3)
	if hops != 3 {
		t.Fatalf("path length %d, want 3 hops", hops)
	}
	nodes, path := make([]NodeID, hops), make([]int, hops)
	tp.TreePath(prev, 3, nodes, path)
	// Path is contiguous from 0 to 3, and nodes[i] is where link i ends.
	at := NodeID(0)
	for i, li := range path {
		if tp.Links[li].From != at {
			t.Fatalf("discontiguous path at link %d", li)
		}
		at = tp.Links[li].To
		if nodes[i] != at {
			t.Fatalf("node %d is %d, link %d enters %d", i, nodes[i], li, at)
		}
	}
	if at != 3 {
		t.Fatalf("path ends at %d", at)
	}
	if tp.TreeHops(prev, 0) != 0 {
		t.Fatal("the source has a path to itself")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("bad", 2, []Link{{From: 0, To: 5}}, nil); err == nil {
		t.Error("out-of-range link accepted")
	}
	if _, err := New("bad", 2, []Link{{From: 0, To: 1}, {From: 0, To: 1}}, nil); err == nil {
		t.Error("duplicate link accepted")
	}
	if _, err := New("bad", 2, nil, []Port{{ID: 1, Switch: 9}}); err == nil {
		t.Error("port on unknown switch accepted")
	}
	if _, err := New("bad", 2, nil, []Port{{ID: 1, Switch: 0}, {ID: 1, Switch: 1}}); err == nil {
		t.Error("duplicate port id accepted")
	}
}

func TestPortIDsSorted(t *testing.T) {
	tp := MustNew("p", 2, nil, []Port{{ID: 3, Switch: 0}, {ID: 1, Switch: 1}, {ID: 2, Switch: 0}})
	ids := tp.PortIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("unsorted port ids: %v", ids)
		}
	}
}

// TestDegradeSwitch: failing a switch keeps the NodeID space intact but
// removes every incident link and attached port; failures compose.
func TestDegradeSwitch(t *testing.T) {
	c := Campus(100)
	// Node 4 is D3 (port 5), linked to C5 and C3.
	d, err := c.Degrade([]NodeID{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Switches != c.Switches {
		t.Fatalf("degraded switch count %d, want %d (IDs must stay stable)", d.Switches, c.Switches)
	}
	if d.Up(4) {
		t.Fatal("failed switch still up")
	}
	if d.UpSwitches() != c.Switches-1 {
		t.Fatalf("UpSwitches = %d", d.UpSwitches())
	}
	if _, ok := d.PortByID(5); ok {
		t.Fatal("port 5 survived its switch")
	}
	if len(d.Ports) != len(c.Ports)-1 {
		t.Fatalf("ports = %d", len(d.Ports))
	}
	if len(d.OutLinks(4)) != 0 {
		t.Fatal("failed switch kept outgoing links")
	}
	for _, l := range d.Links {
		if l.From == 4 || l.To == 4 {
			t.Fatalf("link %d->%d touches the failed switch", l.From, l.To)
		}
	}
	if !d.UpConnected() {
		t.Fatal("campus minus one edge switch must stay connected")
	}
	// The original is untouched.
	if !c.Up(4) || len(c.Links) == 0 {
		t.Fatal("Degrade mutated the receiver")
	}
	// Compose a second failure on the degraded topology.
	d2, err := d.Degrade([]NodeID{5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Up(4) || d2.Up(5) {
		t.Fatal("down-states must accumulate")
	}
}

// TestDegradeLink: failing an undirected link removes both directions and
// nothing else; failing enough links partitions, which UpConnected reports.
func TestDegradeLink(t *testing.T) {
	c := Campus(100)
	d, err := c.Degrade(nil, [][2]NodeID{{4, 10}}) // D3–C5
	if err != nil {
		t.Fatal(err)
	}
	if d.LinkBetween(4, 10) >= 0 || d.LinkBetween(10, 4) >= 0 {
		t.Fatal("failed link survived")
	}
	if len(d.Links) != len(c.Links)-2 {
		t.Fatalf("links = %d, want %d", len(d.Links), len(c.Links)-2)
	}
	if !d.UpConnected() {
		t.Fatal("campus minus one link must stay connected (D3 still reaches C3)")
	}
	// Cutting both of D3's links strands it: partitioned.
	p, err := c.Degrade(nil, [][2]NodeID{{4, 10}, {4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if p.UpConnected() {
		t.Fatal("stranded switch not reported as partition")
	}
	if _, ok := p.PortByID(5); !ok {
		t.Fatal("link failures must not remove ports")
	}
}

// TestDegradeValidation: unknown elements are rejected.
func TestDegradeValidation(t *testing.T) {
	c := Campus(100)
	if _, err := c.Degrade([]NodeID{99}, nil); err == nil {
		t.Error("unknown switch accepted")
	}
	if _, err := c.Degrade(nil, [][2]NodeID{{0, 5}}); err == nil {
		t.Error("unknown link accepted")
	}
}
