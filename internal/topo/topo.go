// Package topo models the physical network topologies SNAP compiles onto:
// switches, directed capacitated links and external (one-big-switch) ports.
//
// Besides the paper's running-example campus network (Figure 2), the package
// synthesizes the evaluation topologies of Table 5 (three campus networks
// and four RocketFuel ISP backbones) and IGen-style networks of arbitrary
// size (§6.2). The production datasets themselves are not distributable, so
// generators reproduce the *published* switch/edge/port counts with a
// deterministic seed; compiler phase costs depend on those counts, which is
// what the evaluation measures (see DESIGN.md, substitution #2).
package topo

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// NodeID identifies a switch.
type NodeID int

// Port is an external OBS port attached to an edge switch. Ports are
// numbered from 1 as in the paper's examples.
type Port struct {
	ID     int
	Switch NodeID
}

// Link is a directed link with capacity in abstract volume units.
type Link struct {
	From, To NodeID
	Capacity float64
}

// Topology is a switch graph with external ports.
//
// A topology may be *degraded*: switches can be marked down (Down), in
// which case they keep their NodeID — so identifiers stay stable across a
// failure — but carry no links and no ports. Degrade derives the surviving
// topology after a failure; the compiler pipeline and the data-plane
// runtimes treat down switches as unreachable islands.
type Topology struct {
	Name     string
	Switches int
	Links    []Link
	Ports    []Port
	// Down marks failed switches (nil = all up). Down switches retain
	// their NodeID but have no links and no ports.
	Down []bool

	// base is the pristine topology a degraded instance descends from and
	// cut the cumulative set of individually-failed links (both
	// directions), so Recover can compose failures upward: a recovery is
	// re-derived from base with the surviving failure set, never patched
	// onto the degraded instance (whose dead links and ports are gone).
	base *Topology
	cut  map[[2]NodeID]bool

	out       [][]int // adjacency: out[n] lists indices into Links
	linkIndex map[[2]NodeID]int
	portBy    map[int]Port
}

// New builds a topology and freezes its adjacency indexes. Links must not
// repeat.
func New(name string, switches int, links []Link, ports []Port) (*Topology, error) {
	t := &Topology{
		Name:      name,
		Switches:  switches,
		Links:     links,
		Ports:     ports,
		out:       make([][]int, switches),
		linkIndex: make(map[[2]NodeID]int, len(links)),
		portBy:    make(map[int]Port, len(ports)),
	}
	for i, l := range links {
		if l.From < 0 || int(l.From) >= switches || l.To < 0 || int(l.To) >= switches {
			return nil, fmt.Errorf("topology %s: link %d endpoints out of range", name, i)
		}
		key := [2]NodeID{l.From, l.To}
		if _, dup := t.linkIndex[key]; dup {
			return nil, fmt.Errorf("topology %s: duplicate link %d->%d", name, l.From, l.To)
		}
		t.linkIndex[key] = i
		t.out[l.From] = append(t.out[l.From], i)
	}
	for _, p := range ports {
		if int(p.Switch) >= switches {
			return nil, fmt.Errorf("topology %s: port %d on unknown switch %d", name, p.ID, p.Switch)
		}
		if _, dup := t.portBy[p.ID]; dup {
			return nil, fmt.Errorf("topology %s: duplicate port id %d", name, p.ID)
		}
		t.portBy[p.ID] = p
	}
	return t, nil
}

// MustNew builds a topology or panics; used by the deterministic generators.
func MustNew(name string, switches int, links []Link, ports []Port) *Topology {
	t, err := New(name, switches, links, ports)
	if err != nil {
		panic(err)
	}
	return t
}

// OutLinks returns the indices of links leaving n.
func (t *Topology) OutLinks(n NodeID) []int { return t.out[n] }

// LinkBetween returns the index of the n→m link, or -1.
func (t *Topology) LinkBetween(n, m NodeID) int {
	if i, ok := t.linkIndex[[2]NodeID{n, m}]; ok {
		return i
	}
	return -1
}

// PortByID resolves an external port.
func (t *Topology) PortByID(id int) (Port, bool) {
	p, ok := t.portBy[id]
	return p, ok
}

// PortIDs returns all external port ids, sorted.
func (t *Topology) PortIDs() []int {
	ids := make([]int, 0, len(t.Ports))
	for _, p := range t.Ports {
		ids = append(ids, p.ID)
	}
	sort.Ints(ids)
	return ids
}

// Degree returns the out-degree of each switch.
func (t *Topology) Degree() []int {
	deg := make([]int, t.Switches)
	for _, l := range t.Links {
		deg[l.From]++
	}
	return deg
}

// unreachable is the distance ShortestDists and Forest report for a switch
// that no path reaches.
const unreachable = 1e30

// CapacityWeights returns the routing weight of every link (indexed like
// Links): 1/capacity, or 1 for a link without capacity. Under these
// weights per-pair shortest paths minimise the sum of link utilisation
// whenever capacities are slack (§4.4), so P5 routes and P6's fallback
// next hops both follow them.
func (t *Topology) CapacityWeights() []float64 {
	w := make([]float64, len(t.Links))
	for i, l := range t.Links {
		w[i] = 1
		if l.Capacity > 0 {
			w[i] = 1 / l.Capacity
		}
	}
	return w
}

// Forest is the shortest-path tree of every source switch under one weight
// vector. Row s is the tree from s: Dist[s][d] its distance to d (1e30 when
// unreachable), Prev[s][d] the link entering d on it (-1 at s and where d
// is unreachable), and Next[s][d] the first link of its path to d (-1 at s
// and where d is unreachable). The rows are read-only.
type Forest struct {
	Dist [][]float64
	Prev [][]int
	Next [][]int
}

// Forest computes the shortest-path tree of every switch under weight
// (indexed like Links; nil means unit weights): the one all-pairs
// computation the compiler runs per topology and weight vector.
func (t *Topology) Forest(weight []float64) *Forest {
	n := t.Switches
	f := &Forest{Dist: make([][]float64, n), Prev: make([][]int, n), Next: make([][]int, n)}
	dist, prev, next := make([]float64, n*n), make([]int, n*n), make([]int, n*n)
	for s := 0; s < n; s++ {
		lo, hi := s*n, (s+1)*n
		f.Dist[s], f.Prev[s], f.Next[s] = dist[lo:hi:hi], prev[lo:hi:hi], next[lo:hi:hi]
		t.tree(NodeID(s), weight, f.Dist[s], f.Prev[s], f.Next[s])
	}
	return f
}

// ShortestDists runs Dijkstra from src with the given per-link weights
// (indexed like Links; nil means unit weights), returning distance and
// predecessor-link arrays. Unreachable nodes have distance +Inf (1e30).
func (t *Topology) ShortestDists(src NodeID, weight []float64) (dist []float64, prevLink []int) {
	n := t.Switches
	dist, prevLink = make([]float64, n), make([]int, n)
	t.tree(src, weight, dist, prevLink, make([]int, n))
	return dist, prevLink
}

// tree is Dijkstra from src, the module's one shortest-path loop: it
// fills dist, prev and next as Forest's row for src. A switch is finalised
// after its tree parent, so its first hop is known when it is: its entering
// link when the parent is src, else the parent's first hop.
func (t *Topology) tree(src NodeID, weight []float64, dist []float64, prev, next []int) {
	done := make([]bool, len(dist))
	for i := range dist {
		dist[i], prev[i], next[i] = unreachable, -1, -1
	}
	dist[src] = 0
	for {
		// Linear-scan extract-min: topologies stay in the hundreds of
		// switches, where a heap buys little.
		best, bestD := -1, unreachable
		for n := range dist {
			if !done[n] && dist[n] < bestD {
				best, bestD = n, dist[n]
			}
		}
		if best < 0 {
			return
		}
		done[best] = true
		if li := prev[best]; li >= 0 {
			if p := t.Links[li].From; p == src {
				next[best] = li
			} else {
				next[best] = next[p]
			}
		}
		for _, li := range t.out[best] {
			l := t.Links[li]
			w := 1.0
			if weight != nil {
				w = weight[li]
			}
			if nd := bestD + w; nd < dist[l.To] {
				dist[l.To] = nd
				prev[l.To] = li
			}
		}
	}
}

// TreeHops returns the number of links on the path that a predecessor
// tree from ShortestDists holds from its source to dst: 0 when dst is the
// source or unreachable.
func (t *Topology) TreeHops(prevLink []int, dst NodeID) int {
	k := 0
	for n := dst; prevLink[n] >= 0; n = t.Links[prevLink[n]].From {
		k++
	}
	return k
}

// TreePath writes that path, filling backwards from dst: links[i] is its
// i-th link and nodes[i] the switch that link enters. Both slices must hold
// exactly TreeHops(prevLink, dst) elements.
func (t *Topology) TreePath(prevLink []int, dst NodeID, nodes []NodeID, links []int) {
	n := dst
	for i := len(links) - 1; i >= 0; i-- {
		li := prevLink[n]
		links[i], nodes[i] = li, n
		n = t.Links[li].From
	}
}

// Connected reports whether every switch is reachable from switch 0.
func (t *Topology) Connected() bool {
	if t.Switches == 0 {
		return true
	}
	dist, _ := t.ShortestDists(0, nil)
	for _, d := range dist {
		if d >= unreachable {
			return false
		}
	}
	return true
}

// Up reports whether switch n is alive.
func (t *Topology) Up(n NodeID) bool {
	return t.Down == nil || int(n) >= len(t.Down) || !t.Down[n]
}

// UpSwitches counts the alive switches.
func (t *Topology) UpSwitches() int {
	n := t.Switches
	for _, d := range t.Down {
		if d {
			n--
		}
	}
	return n
}

// Degrade derives the surviving topology after a failure: the listed
// switches go down (keeping their NodeID but losing every incident link
// and attached port) and the listed undirected link pairs vanish in both
// directions. Down-states compose: degrading an already-degraded topology
// accumulates failures. The receiver is not modified.
func (t *Topology) Degrade(switches []NodeID, links [][2]NodeID) (*Topology, error) {
	down := make([]bool, t.Switches)
	copy(down, t.Down)
	for _, s := range switches {
		if s < 0 || int(s) >= t.Switches {
			return nil, fmt.Errorf("topology %s: cannot fail unknown switch %d", t.Name, s)
		}
		down[s] = true
	}
	cutLink := make(map[[2]NodeID]bool, 2*len(links))
	for _, l := range links {
		if t.LinkBetween(l[0], l[1]) < 0 && t.LinkBetween(l[1], l[0]) < 0 {
			return nil, fmt.Errorf("topology %s: cannot fail unknown link %d-%d", t.Name, l[0], l[1])
		}
		cutLink[[2]NodeID{l[0], l[1]}] = true
		cutLink[[2]NodeID{l[1], l[0]}] = true
	}
	var surviving []Link
	for _, l := range t.Links {
		if down[l.From] || down[l.To] || cutLink[[2]NodeID{l.From, l.To}] {
			continue
		}
		surviving = append(surviving, l)
	}
	var ports []Port
	for _, p := range t.Ports {
		if !down[p.Switch] {
			ports = append(ports, p)
		}
	}
	name := t.Name
	if !strings.HasSuffix(name, "-degraded") {
		name += "-degraded"
	}
	d, err := New(name, t.Switches, surviving, ports)
	if err != nil {
		return nil, err
	}
	d.Down = down
	d.base = t.Pristine()
	d.cut = make(map[[2]NodeID]bool, len(t.cut)+len(cutLink))
	for k := range t.cut {
		d.cut[k] = true
	}
	for k := range cutLink {
		d.cut[k] = true
	}
	return d, nil
}

// Pristine returns the undegraded topology this one descends from (itself
// when no failure has been applied).
func (t *Topology) Pristine() *Topology {
	if t.base != nil {
		return t.base
	}
	return t
}

// Recover composes failures upward: the listed switches come back up and
// the listed undirected links are repaired, restoring their original
// capacities, ports and attachments from the pristine topology. Recovering
// an element that is not currently failed is an error. When the last
// failure is recovered the result is the pristine topology itself, so a
// failure followed by recovery of the same element is exactly the
// identity — the inverse Degrade lacked, which only composed downward.
// The receiver is not modified.
func (t *Topology) Recover(switches []NodeID, links [][2]NodeID) (*Topology, error) {
	stillDown := make(map[NodeID]bool)
	for n, d := range t.Down {
		if d {
			stillDown[NodeID(n)] = true
		}
	}
	for _, s := range switches {
		if !stillDown[s] {
			return nil, fmt.Errorf("topology %s: cannot recover switch %d: not failed", t.Name, s)
		}
		delete(stillDown, s)
	}
	stillCut := make(map[[2]NodeID]bool, len(t.cut))
	for k := range t.cut {
		stillCut[k] = true
	}
	for _, l := range links {
		if !stillCut[[2]NodeID{l[0], l[1]}] && !stillCut[[2]NodeID{l[1], l[0]}] {
			return nil, fmt.Errorf("topology %s: cannot recover link %d-%d: not failed", t.Name, l[0], l[1])
		}
		delete(stillCut, [2]NodeID{l[0], l[1]})
		delete(stillCut, [2]NodeID{l[1], l[0]})
	}
	var remSwitches []NodeID
	for n := 0; n < t.Switches; n++ {
		if stillDown[NodeID(n)] {
			remSwitches = append(remSwitches, NodeID(n))
		}
	}
	var remLinks [][2]NodeID
	for k := range stillCut {
		if k[0] < k[1] {
			remLinks = append(remLinks, k)
		}
	}
	sort.Slice(remLinks, func(i, j int) bool {
		if remLinks[i][0] != remLinks[j][0] {
			return remLinks[i][0] < remLinks[j][0]
		}
		return remLinks[i][1] < remLinks[j][1]
	})
	base := t.Pristine()
	if len(remSwitches) == 0 && len(remLinks) == 0 {
		return base, nil
	}
	return base.Degrade(remSwitches, remLinks)
}

// UpConnected reports whether the alive switches form one connected
// component (every up switch reachable from the lowest-numbered up
// switch). A degraded topology that fails this check is partitioned: some
// surviving traffic pairs cannot communicate and recompilation on it will
// be unable to route them.
func (t *Topology) UpConnected() bool {
	src := NodeID(-1)
	for n := 0; n < t.Switches; n++ {
		if t.Up(NodeID(n)) {
			src = NodeID(n)
			break
		}
	}
	if src < 0 {
		return true // no survivors: vacuously connected
	}
	dist, _ := t.ShortestDists(src, nil)
	for n := 0; n < t.Switches; n++ {
		if t.Up(NodeID(n)) && dist[n] >= unreachable {
			return false
		}
	}
	return true
}

// Campus builds the running-example network or panics; the wiring is a
// compile-time constant, so a failure is a programming error. Library
// callers that prefer an error use NewCampus.
func Campus(capacity float64) *Topology {
	t, err := NewCampus(capacity)
	if err != nil {
		panic(err)
	}
	return t
}

// NewCampus returns the running-example network of Figure 2: ingress
// routers I1–I2 and department edges D1–D4 (D4 = the CS building, port 6)
// over a six-router core. Wiring follows the §2.2 path descriptions: I1/D1
// reach D4 via C1–C5, I2/D2 via C2–C6, D3 via C5.
func NewCampus(capacity float64) (*Topology, error) {
	// Node ids: 0..5 edge (I1, I2, D1, D2, D3, D4), 6..11 core (C1..C6).
	const (
		I1 = iota
		I2
		D1
		D2
		D3
		D4
		C1
		C2
		C3
		C4
		C5
		C6
	)
	undirected := [][2]NodeID{
		{I1, C1}, {I1, C3},
		{I2, C2}, {I2, C4},
		{D1, C1}, {D1, C3},
		{D2, C2}, {D2, C4},
		{D3, C5}, {D3, C3},
		{D4, C5}, {D4, C6},
		{C1, C5}, {C2, C6}, {C3, C5}, {C4, C6}, {C1, C2}, {C3, C4},
	}
	var links []Link
	for _, e := range undirected {
		links = append(links,
			Link{From: e[0], To: e[1], Capacity: capacity},
			Link{From: e[1], To: e[0], Capacity: capacity})
	}
	ports := []Port{
		{ID: 1, Switch: I1},
		{ID: 2, Switch: I2},
		{ID: 3, Switch: D1},
		{ID: 4, Switch: D2},
		{ID: 5, Switch: D3},
		{ID: 6, Switch: D4},
	}
	return New("campus", 12, links, ports)
}

// CampusSwitchName names the campus switches for diagnostics.
func CampusSwitchName(n NodeID) string {
	names := []string{"I1", "I2", "D1", "D2", "D3", "D4", "C1", "C2", "C3", "C4", "C5", "C6"}
	if int(n) < len(names) {
		return names[n]
	}
	return fmt.Sprintf("S%d", n)
}

// Spec describes a Table 5 evaluation topology: the published switch count,
// directed-edge count and external-port count (#Demands = ports²).
type Spec struct {
	Name     string
	Switches int
	Edges    int // directed links
	Ports    int
	Kind     string // "campus" or "isp"
}

// Table5 lists the seven evaluation topologies with the counts published in
// Table 5 of the paper (port counts are derived from the demand counts:
// #Demands = ports²).
func Table5() []Spec {
	return []Spec{
		{Name: "Stanford", Switches: 26, Edges: 92, Ports: 144, Kind: "campus"},
		{Name: "Berkeley", Switches: 25, Edges: 96, Ports: 185, Kind: "campus"},
		{Name: "Purdue", Switches: 98, Edges: 232, Ports: 156, Kind: "campus"},
		{Name: "AS1755", Switches: 87, Edges: 322, Ports: 60, Kind: "isp"},
		{Name: "AS1221", Switches: 104, Edges: 302, Ports: 72, Kind: "isp"},
		{Name: "AS6461", Switches: 138, Edges: 744, Ports: 96, Kind: "isp"},
		{Name: "AS3257", Switches: 161, Edges: 656, Ports: 112, Kind: "isp"},
	}
}

// Named synthesizes a Table 5 topology (optionally scaling the port count
// by portScale in (0,1] to trim demand counts for CI-sized runs).
func Named(name string, capacity, portScale float64) (*Topology, error) {
	for _, spec := range Table5() {
		if spec.Name == name {
			ports := int(float64(spec.Ports) * portScale)
			if ports < 2 {
				ports = 2
			}
			return synthesize(spec.Name, spec.Switches, spec.Edges, ports, capacity)
		}
	}
	return nil, fmt.Errorf("unknown Table 5 topology %q", name)
}

// synthesize builds a deterministic connected graph with the requested
// switch count and directed-edge count: a random spanning tree plus random
// extra links, mirroring the degree spread of inferred ISP maps. External
// ports go to the 70% lowest-degree switches (§6.2), round-robin.
func synthesize(name string, switches, directedEdges, ports int, capacity float64) (*Topology, error) {
	rng := rand.New(rand.NewSource(seedFor(name)))
	undirected := directedEdges / 2

	type edge struct{ a, b NodeID }
	var edges []edge
	seen := map[[2]NodeID]bool{}
	addEdge := func(a, b NodeID) bool {
		if a == b {
			return false
		}
		k := [2]NodeID{min(a, b), max(a, b)}
		if seen[k] {
			return false
		}
		seen[k] = true
		edges = append(edges, edge{a, b})
		return true
	}

	// Random spanning tree (random attachment gives a heavy-tailed degree
	// spread similar to router-level maps).
	perm := rng.Perm(switches)
	for i := 1; i < switches; i++ {
		parent := perm[rng.Intn(i)]
		addEdge(NodeID(perm[i]), NodeID(parent))
	}
	for len(edges) < undirected {
		addEdge(NodeID(rng.Intn(switches)), NodeID(rng.Intn(switches)))
	}

	var links []Link
	for _, e := range edges {
		links = append(links,
			Link{From: e.a, To: e.b, Capacity: capacity},
			Link{From: e.b, To: e.a, Capacity: capacity})
	}

	t, err := New(name, switches, links, nil)
	if err != nil {
		return nil, err
	}
	t.Ports = edgePorts(t, ports)
	for _, p := range t.Ports {
		t.portBy[p.ID] = p
	}
	return t, nil
}

// edgePorts picks the 70% lowest-degree switches as edge switches and
// spreads the requested number of external ports over them round-robin.
func edgePorts(t *Topology, ports int) []Port {
	deg := t.Degree()
	order := make([]int, t.Switches)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if deg[order[i]] != deg[order[j]] {
			return deg[order[i]] < deg[order[j]]
		}
		return order[i] < order[j]
	})
	nEdge := (t.Switches*7 + 9) / 10
	if nEdge < 1 {
		nEdge = 1
	}
	edges := order[:nEdge]
	sort.Ints(edges)
	out := make([]Port, 0, ports)
	for i := 0; i < ports; i++ {
		out = append(out, Port{ID: i + 1, Switch: NodeID(edges[i%len(edges)])})
	}
	return out
}

// IGen builds an IGen-style network or panics; the construction is
// deterministic in n, so a failure is a programming error. Library callers
// that prefer an error use NewIGen.
func IGen(n int, capacity float64) *Topology {
	t, err := NewIGen(n, capacity)
	if err != nil {
		panic(err)
	}
	return t
}

// NewIGen synthesizes an IGen-style network of n switches (§6.2 "Scaling
// with topology size"): switches are placed on a plane, connected to their
// nearest neighbors plus a spanning backbone, with 70% lowest-degree
// switches carrying one external port each.
func NewIGen(n int, capacity float64) (*Topology, error) {
	rng := rand.New(rand.NewSource(seedFor(fmt.Sprintf("igen-%d", n))))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	dist2 := func(a, b int) float64 {
		dx, dy := xs[a]-xs[b], ys[a]-ys[b]
		return dx*dx + dy*dy
	}

	seen := map[[2]NodeID]bool{}
	var pairs [][2]NodeID
	add := func(a, b int) {
		if a == b {
			return
		}
		k := [2]NodeID{NodeID(min(a, b)), NodeID(max(a, b))}
		if !seen[k] {
			seen[k] = true
			pairs = append(pairs, k)
		}
	}

	// k-nearest-neighbor links (k=2), IGen's basic heuristic.
	for i := 0; i < n; i++ {
		type cand struct {
			j int
			d float64
		}
		var cs []cand
		for j := 0; j < n; j++ {
			if j != i {
				cs = append(cs, cand{j, dist2(i, j)})
			}
		}
		sort.Slice(cs, func(a, b int) bool { return cs[a].d < cs[b].d })
		for k := 0; k < 2 && k < len(cs); k++ {
			add(i, cs[k].j)
		}
	}

	// Greedy MST (Prim) to guarantee connectivity, emulating IGen's
	// backbone tree.
	inTree := make([]bool, n)
	inTree[0] = true
	for count := 1; count < n; count++ {
		bi, bj, bd := -1, -1, 1e30
		for i := 0; i < n; i++ {
			if !inTree[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if !inTree[j] && dist2(i, j) < bd {
					bi, bj, bd = i, j, dist2(i, j)
				}
			}
		}
		inTree[bj] = true
		add(bi, bj)
	}

	var links []Link
	for _, p := range pairs {
		links = append(links,
			Link{From: p[0], To: p[1], Capacity: capacity},
			Link{From: p[1], To: p[0], Capacity: capacity})
	}
	t, err := New(fmt.Sprintf("igen-%d", n), n, links, nil)
	if err != nil {
		return nil, err
	}
	nPorts := (n*7 + 9) / 10
	t.Ports = edgePorts(t, nPorts)
	for _, p := range t.Ports {
		t.portBy[p.ID] = p
	}
	return t, nil
}

func seedFor(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h
}
