// Package place decides state placement and traffic routing (§4.4 of the
// paper): given a topology, a traffic matrix, the packet-state mapping and
// the state dependency order, it places every state variable on exactly one
// switch and picks a path for every OBS port pair that traverses the
// variables the pair needs, in dependency order, while minimizing the sum
// of link utilization.
//
// Two engines implement the optimization:
//
//   - An exact mixed-integer program (milp.go in this package) that encodes
//     Table 2 of the paper verbatim over an augmented port/switch graph and
//     solves it with internal/milp. Practical for small instances; used to
//     validate the heuristic.
//   - A scalable heuristic (this file): tied variables are grouped, groups
//     are seeded at their demand-weighted 1-median and improved by local
//     search, and each pair is routed over the waypoint-ordered shortest
//     path (link weight 1/capacity, which makes per-pair shortest paths
//     exactly optimal for the utilization-sum objective whenever capacity
//     constraints are slack), followed by penalty-based rerouting when
//     links overload. Routes are read off the per-source shortest-path
//     trees the model already holds: a pair without waypoints takes its
//     tree path as it is, and a waypoint pair splices one tree path per
//     leg into a flat slice and cuts the waypoint-free cycles out of it.
//
// The TE variant (§6.2 "Topology/TM Changes") keeps placement fixed and
// reruns routing only.
package place

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"snap/internal/deps"
	"snap/internal/psmap"
	"snap/internal/topo"
	"snap/internal/traffic"
)

// Inputs collects everything the optimizer consumes (Table 1 of the paper).
type Inputs struct {
	Topo    *topo.Topology
	Demands traffic.Matrix
	Mapping *psmap.Mapping
	Order   *deps.Order
}

// Route is the selected path for one OBS port pair.
type Route struct {
	Nodes     []topo.NodeID // switch sequence, ingress switch first
	Links     []int         // link indices parallel to Nodes transitions
	Waypoints []string      // state variables in visit order
}

// Result is a placement-and-routing outcome.
type Result struct {
	Placement map[string]topo.NodeID
	// Replicas lists the backup owner switches of each state variable
	// (K-1 per variable under Options.Replicas=K; nil when replication is
	// off). Backups are the next-best owner candidates under the same
	// waypoint-ordered routing cost that placed the primary, so promoting
	// one after a failure keeps routes short; tied variables share their
	// group's backups like they share its primary.
	Replicas   map[string][]topo.NodeID
	Routes     map[[2]int]Route
	Congestion float64 // Σ_links load/capacity (the paper's objective)
	MaxUtil    float64
	Method     string
	// PinnedGroups and MovedGroups report how a warm-started solve split
	// the tied-variable groups (see SolveSTWarm); zero on full solves.
	PinnedGroups int
	MovedGroups  int
}

// Method selects the solve engine.
type Method uint8

// Engine choices.
const (
	Auto Method = iota
	Heuristic
	Exact
)

// Options tune the solve.
type Options struct {
	Method Method
	// LocalIters is the number of placement hill-climbing rounds
	// (default 3; negative disables local search entirely, leaving the
	// 1-median seed — the ablation baseline).
	LocalIters    int
	PenaltyRounds int // capacity-overload rerouting rounds (default 3)
	MILPMaxNodes  int // branch-and-bound node budget for Exact
	// ExactLimit is the largest estimated column count Auto will hand to
	// the exact engine.
	ExactLimit int
	// Replicas is the state replication factor K: each state variable gets
	// one primary owner plus K-1 backup owners on distinct alive switches
	// (0 and 1 both mean no replication). Backups receive asynchronous
	// copies of the primary's writes at runtime and are the promotion
	// candidates on owner failure.
	Replicas int
}

func (o Options) withDefaults() Options {
	if o.LocalIters == 0 {
		o.LocalIters = 3
	}
	if o.LocalIters < 0 {
		o.LocalIters = 0
	}
	if o.PenaltyRounds == 0 {
		o.PenaltyRounds = 3
	}
	if o.ExactLimit == 0 {
		o.ExactLimit = 600
	}
	return o
}

// Model is the reusable part of the optimization: the topology-dependent
// precomputation, that is the 1/capacity link weights and the shortest-path
// forest under them. The paper's P4 phase ("MILP creation") builds this
// once per topology/traffic pair; later policy changes reuse it and only
// re-run the solve phases (§6.2, Table 4). P5 routes on the forest's trees
// and P6 reads each switch's fallback next hops from it (Forest), so a
// compilation computes the trees under these weights once.
type Model struct {
	topo    *topo.Topology
	demands traffic.Matrix
	opts    Options
	weights []float64
	forest  *topo.Forest
}

// NewModel performs the P4 precomputation for a topology and traffic
// matrix.
func NewModel(t *topo.Topology, demands traffic.Matrix, opts Options) *Model {
	w := t.CapacityWeights()
	return &Model{topo: t, demands: demands, opts: opts.withDefaults(), weights: w, forest: t.Forest(w)}
}

// Forest returns the model's shortest-path trees under 1/capacity weights,
// one per source switch. Callers must not modify it.
func (m *Model) Forest() *topo.Forest { return m.forest }

// Refresh returns a model for a new traffic matrix that shares every
// topology-dependent precomputation (link weights and the shortest-path
// forest) of the receiver. Only the demand-dependent terms change, so a
// topology/TM change pays none of the P4 rebuild cost — the "few
// milliseconds of incremental updates" of §6.2. The receiver is not
// modified and stays usable.
func (m *Model) Refresh(demands traffic.Matrix) *Model {
	n := *m
	n.demands = demands
	return &n
}

func (m *Model) inputs(mapping *psmap.Mapping, order *deps.Order) Inputs {
	return Inputs{Topo: m.topo, Demands: m.demands, Mapping: mapping, Order: order}
}

// newSolver returns a solver for in over the model's precomputed shortest
// paths, with its dense pair index built.
func (m *Model) newSolver(in Inputs) *solver {
	s := &solver{in: in, opts: m.opts, cut: newCycleCutter(m.topo.Switches)}
	s.weights = slices.Clone(m.weights)
	s.dist, s.prev = m.forest.Dist, m.forest.Prev
	s.prepare()
	return s
}

// SolveST decides placement and routing jointly for a policy's mapping and
// dependency order (the paper's "ST" solve, P5).
func (m *Model) SolveST(mapping *psmap.Mapping, order *deps.Order) (*Result, error) {
	in := m.inputs(mapping, order)
	var res *Result
	var err error
	switch {
	case m.opts.Method == Exact && !degraded(in.Topo):
		res, err = solveExact(in, nil, m.opts)
	case m.opts.Method == Heuristic || degraded(in.Topo):
		// The MILP encodes the healthy-network constraints; degraded
		// topologies always take the heuristic engine, which skips down
		// switches explicitly.
		res, err = m.solveHeuristic(in, buildGroups(in), "heuristic-st")
	default:
		if exactColumns(in) <= m.opts.ExactLimit {
			if r, exErr := solveExact(in, nil, m.opts); exErr == nil {
				res = r
				break
			}
		}
		res, err = m.solveHeuristic(in, buildGroups(in), "heuristic-st")
	}
	if err != nil {
		return nil, err
	}
	m.replicate(in, res)
	return res, nil
}

// degraded reports whether a topology carries any down switch.
func degraded(t *topo.Topology) bool {
	for _, d := range t.Down {
		if d {
			return true
		}
	}
	return false
}

// exactColumns estimates the exact engine's column count: routing variables
// for every pair plus passed-flow variables for every (stateful pair,
// variable) combination. The dense simplex is O(rows·cols) per pivot, so
// Auto hands only genuinely small instances to it.
func exactColumns(in Inputs) int {
	links := len(in.Topo.Links) + 2*len(in.Topo.Ports)
	cols := len(in.Demands) * links
	for _, set := range in.Mapping.Vars {
		cols += len(set) * links
	}
	cols += len(in.Order.Pos) * in.Topo.Switches
	return cols
}

// SolveTE re-optimizes routing only, with placement fixed (the paper's
// "TE" solve): the heuristic engine's solve with every group pinned where
// fixed places its first variable.
func (m *Model) SolveTE(mapping *psmap.Mapping, order *deps.Order, fixed map[string]topo.NodeID) (*Result, error) {
	in := m.inputs(mapping, order)
	var res *Result
	var err error
	if m.opts.Method == Exact && !degraded(in.Topo) {
		res, err = solveExact(in, fixed, m.opts)
	} else {
		groups := buildGroups(in)
		for _, g := range groups {
			n, ok := fixed[g.vars[0]]
			if !ok {
				return nil, fmt.Errorf("place: TE run missing placement for %s", g.vars[0])
			}
			g.node = n
		}
		res, err = m.solveHeuristic(in, groups, "heuristic-te")
	}
	if err != nil {
		return nil, err
	}
	m.replicate(in, res)
	return res, nil
}

// Solve is the one-shot convenience wrapper: NewModel + SolveST.
func Solve(in Inputs, opts Options) (*Result, error) {
	return NewModel(in.Topo, in.Demands, opts).SolveST(in.Mapping, in.Order)
}

// SolveTE is the one-shot convenience wrapper for the TE scenario.
func SolveTE(in Inputs, fixed map[string]topo.NodeID, opts Options) (*Result, error) {
	return NewModel(in.Topo, in.Demands, opts).SolveTE(in.Mapping, in.Order, fixed)
}

// --- Heuristic engine ---

// group is a set of tied state variables that must share a switch: node,
// or -1 while the group is free to be placed.
type group struct {
	vars []string
	node topo.NodeID
}

func buildGroups(in Inputs) []*group {
	parent := map[string]string{}
	var find func(string) string
	find = func(s string) string {
		if p, ok := parent[s]; ok && p != s {
			r := find(p)
			parent[s] = r
			return r
		}
		return s
	}
	vars := make([]string, 0, len(in.Order.Pos))
	for s := range in.Order.Pos {
		vars = append(vars, s)
		parent[s] = s
	}
	sort.Strings(vars)
	for _, tie := range in.Order.Tied {
		a, b := find(tie[0]), find(tie[1])
		if a != b {
			parent[a] = b
		}
	}
	byRoot := map[string][]string{}
	for _, s := range vars {
		r := find(s)
		byRoot[r] = append(byRoot[r], s)
	}
	roots := make([]string, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	out := make([]*group, 0, len(roots))
	for _, r := range roots {
		sort.Strings(byRoot[r])
		out = append(out, &group{vars: byRoot[r], node: -1})
	}
	return out
}

// solver carries shared heuristic state.
type solver struct {
	in      Inputs
	opts    Options
	weights []float64   // per-link routing weight
	dist    [][]float64 // all-pairs distances under weights
	prev    [][]int     // predecessor links per source
	// Dense pair index, built once per solve by prepare: every demand pair
	// in sorted order, and the distinct waypoint variables their sequences
	// name. Routing and the placement index read it instead of the maps.
	pairs []demandPair
	vars  []string

	// Route-building scratch, reused across pairs and rounds.
	cut cycleCutter
	buf routeBuf

	// Dense placement index: stateful pairs and group locations as slices,
	// so the local-search cost loops run on array arithmetic instead of
	// string-keyed map lookups.
	pinfos []pairInfo
	gpairs [][]int // per group: indices into pinfos of pairs needing it
	glocs  []topo.NodeID
}

// demandPair is one demand pair of the dense index: its end switches, its
// demand and its waypoint sequence, as names (the Route's Waypoints) and as
// indices into solver.vars.
type demandPair struct {
	key    [2]int
	su, sv topo.NodeID
	demand float64
	seq    []string
	vars   []int32
}

// pairInfo is the placement view of one stateful demand pair: endpoint
// switches and the group index of each waypoint, in dependency order.
type pairInfo struct {
	su, sv topo.NodeID
	wps    []int32
	demand float64
}

// computeAllDists recomputes the trees under the solver's current
// (penalised) weights.
func (s *solver) computeAllDists() {
	f := s.in.Topo.Forest(s.weights)
	s.dist, s.prev = f.Dist, f.Prev
}

// prepare builds the dense pair index: the demand pairs sorted, each with
// its end switches, its demand and its dependency-ordered waypoint
// sequence. Only the mapping's stateful pairs have waypoints.
func (s *solver) prepare() {
	keys := s.in.Demands.Pairs()
	s.pairs = make([]demandPair, len(keys))
	var pu topo.Port
	for i, pr := range keys {
		if i == 0 || pr[0] != keys[i-1][0] {
			pu, _ = s.in.Topo.PortByID(pr[0])
		}
		pv, _ := s.in.Topo.PortByID(pr[1])
		s.pairs[i] = demandPair{key: pr, su: pu.Switch, sv: pv.Switch, demand: s.in.Demands[pr]}
	}
	for pr, set := range s.in.Mapping.Vars {
		if len(set) == 0 {
			continue
		}
		if i, ok := slices.BinarySearchFunc(keys, pr, traffic.ComparePairs); ok {
			s.pairs[i].seq = s.in.Mapping.StateSeq(pr[0], pr[1], s.in.Order)
		}
	}
	varIdx := map[string]int32{}
	for i := range s.pairs {
		p := &s.pairs[i]
		if len(p.seq) == 0 {
			continue
		}
		p.vars = make([]int32, len(p.seq))
		for j, v := range p.seq {
			vi, ok := varIdx[v]
			if !ok {
				vi = int32(len(s.vars))
				varIdx[v] = vi
				s.vars = append(s.vars, v)
			}
			p.vars[j] = vi
		}
	}
}

// indexPairs builds the dense placement index for the current groups: one
// pairInfo per stateful demand pair, each waypoint resolved to its group
// index, plus the per-group reverse index. A stateful pair with no demand
// adds nothing to any cost, so only demand pairs are indexed.
func (s *solver) indexPairs(groups []*group) {
	varGroup := map[string]int32{}
	for gi, g := range groups {
		for _, v := range g.vars {
			varGroup[v] = int32(gi)
		}
	}
	s.glocs = make([]topo.NodeID, len(groups))
	for gi, g := range groups {
		s.glocs[gi] = g.node
	}
	vgroup := make([]int32, len(s.vars))
	for vi, v := range s.vars {
		vgroup[vi] = varGroup[v]
	}
	stateful := 0
	for _, p := range s.pairs {
		if len(p.vars) > 0 {
			stateful++
		}
	}
	s.pinfos = make([]pairInfo, 0, stateful)
	s.gpairs = make([][]int, len(groups))
	for _, p := range s.pairs {
		if len(p.vars) == 0 {
			continue
		}
		wps := make([]int32, len(p.vars))
		for j, vi := range p.vars {
			wps[j] = vgroup[vi]
		}
		i := len(s.pinfos)
		s.pinfos = append(s.pinfos, pairInfo{su: p.su, sv: p.sv, wps: wps, demand: p.demand})
		for j, gi := range wps {
			if !slices.Contains(wps[:j], gi) {
				s.gpairs[gi] = append(s.gpairs[gi], i)
			}
		}
	}
}

// pathCostIdx is the placement-evaluation cost of one pair: the shortest
// waypoint-ordered distance from its ingress through the placed groups to
// its egress, under the current glocs.
func (s *solver) pathCostIdx(p *pairInfo) float64 {
	cur := p.su
	total := 0.0
	for _, gi := range p.wps {
		n := s.glocs[gi]
		total += s.dist[cur][n]
		cur = n
	}
	return total + s.dist[cur][p.sv]
}

// groupCost sums the demand-weighted path costs of the pairs needing one
// group.
func (s *solver) groupCost(gi int) float64 {
	c := 0.0
	for _, pi := range s.gpairs[gi] {
		p := &s.pinfos[pi]
		if p.demand > 0 {
			c += p.demand * s.pathCostIdx(p)
		}
	}
	return c
}

// solveHeuristic is the heuristic engine's one solve over a pin set: each
// group with a node is pinned there, and the free ones are seeded at their
// 1-median and improved by local search around the pinned ones. Replicas
// are chosen and every demand pair routed over the final placement. SolveST
// pins nothing, SolveSTWarm the groups an edit left clean, SolveTE all.
func (m *Model) solveHeuristic(in Inputs, groups []*group, method string) (*Result, error) {
	if len(in.Topo.Ports) == 0 {
		return nil, fmt.Errorf("place: topology %s has no external ports", in.Topo.Name)
	}
	s := m.newSolver(in)
	loc := map[string]topo.NodeID{}
	var free []int
	for gi, g := range groups {
		if g.node < 0 {
			free = append(free, gi)
			continue
		}
		for _, v := range g.vars {
			loc[v] = g.node
		}
	}
	// The pair index prices placements; a solve with nothing to place and
	// no replicas to choose (a TE run at K < 2) never builds it.
	if len(free) > 0 {
		s.indexPairs(groups)
		s.seedPlacement(groups, loc, free)
		s.improvePlacement(groups, loc, free)
	}
	var replicas map[string][]topo.NodeID
	if m.opts.Replicas > 1 && len(loc) > 0 {
		if s.pinfos == nil {
			s.indexPairs(groups)
		}
		replicas = s.chooseReplicas(groups, m.opts.Replicas)
	}

	routes, congestion, maxUtil := s.route(loc)
	return &Result{
		Placement:  loc,
		Replicas:   replicas,
		Routes:     routes,
		Congestion: congestion,
		MaxUtil:    maxUtil,
		Method:     method,
	}, nil
}

// seedPlacement puts each free group (indices into groups) at its
// demand-weighted 1-median: the switch minimizing Σ duv·(d(su,n)+d(n,sv))
// over the pairs needing it. The pair index must be built.
func (s *solver) seedPlacement(groups []*group, loc map[string]topo.NodeID, free []int) {
	for _, gi := range free {
		g := groups[gi]
		bestN, bestC := topo.NodeID(-1), math.Inf(1)
		for n := 0; n < s.in.Topo.Switches; n++ {
			if !s.in.Topo.Up(topo.NodeID(n)) {
				continue
			}
			c := 0.0
			for _, pi := range s.gpairs[gi] {
				p := &s.pinfos[pi]
				if p.demand > 0 {
					c += p.demand * (s.dist[p.su][n] + s.dist[n][p.sv])
				}
			}
			if bestN < 0 || c < bestC {
				bestC, bestN = c, topo.NodeID(n)
			}
		}
		g.node = bestN
		s.glocs[gi] = bestN
		for _, v := range g.vars {
			loc[v] = bestN
		}
	}
}

// improvePlacement hill-climbs the free groups' locations against the exact
// waypoint-ordered path cost. Pinned groups still contribute to the cost
// terms through glocs; they just never move.
func (s *solver) improvePlacement(groups []*group, loc map[string]topo.NodeID, free []int) {
	for iter := 0; iter < s.opts.LocalIters; iter++ {
		improved := false
		for _, gi := range free {
			g := groups[gi]
			bestN, bestC := g.node, s.groupCost(gi)
			for n := 0; n < s.in.Topo.Switches; n++ {
				if topo.NodeID(n) == g.node || !s.in.Topo.Up(topo.NodeID(n)) {
					continue
				}
				s.glocs[gi] = topo.NodeID(n)
				if c := s.groupCost(gi); c < bestC-1e-12 {
					bestC, bestN = c, topo.NodeID(n)
				}
			}
			s.glocs[gi] = bestN
			for _, v := range g.vars {
				loc[v] = bestN
			}
			if bestN != g.node {
				g.node = bestN
				improved = true
			}
		}
		if !improved {
			return
		}
	}
}

// replicate fills res.Replicas for Options.Replicas=K on results produced
// by the exact engine, which has no solver to reuse; the heuristic path
// picks replicas inside solveHeuristic on its existing solver. No-op
// when replicas were already chosen, for K<2, or a stateless policy.
func (m *Model) replicate(in Inputs, res *Result) {
	if m.opts.Replicas < 2 || len(res.Placement) == 0 || res.Replicas != nil {
		return
	}
	s := m.newSolver(in)
	groups := buildGroups(in)
	for _, g := range groups {
		g.node = res.Placement[g.vars[0]]
	}
	s.indexPairs(groups)
	res.Replicas = s.chooseReplicas(groups, m.opts.Replicas)
}

// chooseReplicas picks, per tied-variable group, the K-1 alive switches
// (excluding the primary) with the lowest demand-weighted waypoint-ordered
// path cost if the group moved there — i.e. the best owners the solver did
// not pick. Promotion after a primary failure therefore degrades routing
// cost as little as any single-owner choice can. Requires indexPairs to
// have run with the final group locations.
func (s *solver) chooseReplicas(groups []*group, k int) map[string][]topo.NodeID {
	out := make(map[string][]topo.NodeID)
	type cand struct {
		n topo.NodeID
		c float64
	}
	for gi, g := range groups {
		orig := s.glocs[gi]
		var cs []cand
		for n := 0; n < s.in.Topo.Switches; n++ {
			node := topo.NodeID(n)
			if node == orig || !s.in.Topo.Up(node) {
				continue
			}
			s.glocs[gi] = node
			cs = append(cs, cand{n: node, c: s.groupCost(gi)})
		}
		s.glocs[gi] = orig
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].c != cs[j].c {
				return cs[i].c < cs[j].c
			}
			return cs[i].n < cs[j].n
		})
		want := k - 1
		if want > len(cs) {
			want = len(cs)
		}
		backups := make([]topo.NodeID, 0, want)
		for _, c := range cs[:want] {
			backups = append(backups, c.n)
		}
		for _, v := range g.vars {
			out[v] = backups
		}
	}
	return out
}

// route computes final paths for every demand pair under the current
// weights, then reroutes overloaded links with multiplicative penalties.
func (s *solver) route(loc map[string]topo.NodeID) (map[[2]int]Route, float64, float64) {
	vnode := make([]topo.NodeID, len(s.vars))
	for vi, v := range s.vars {
		vnode[vi] = loc[v]
	}
	routes := make(map[[2]int]Route, len(s.pairs))
	load := make([]float64, len(s.in.Topo.Links))
	for round := 0; ; round++ {
		clear(load)
		for i := range s.pairs {
			p := &s.pairs[i]
			r := s.buildRoute(p, vnode)
			routes[p.key] = r
			for _, li := range r.Links {
				load[li] += p.demand
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
			return routes, congestion, maxUtil
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

// buildRoute threads pair p through its placed waypoints (vnode maps a
// variable index to its switch). Without waypoints the route is the tree
// path from the ingress switch: weights are positive, so a shortest-path
// tree path is simple and has no cycle to cut. A waypoint pair splices one
// tree path per leg in the scratch buffer, marking where each waypoint is
// visited, and strips the cycles that contain no waypoint visit.
func (s *solver) buildRoute(p *demandPair, vnode []topo.NodeID) Route {
	t := s.in.Topo
	if len(p.vars) == 0 {
		prev := s.prev[p.su]
		k := t.TreeHops(prev, p.sv)
		r := Route{Nodes: make([]topo.NodeID, k+1), Waypoints: p.seq}
		r.Nodes[0] = p.su
		if k > 0 {
			r.Links = make([]int, k)
			t.TreePath(prev, p.sv, r.Nodes[1:], r.Links)
		}
		return r
	}

	b := &s.buf
	b.nodes = append(b.nodes[:0], p.su)
	b.links = b.links[:0]
	b.wp = append(b.wp[:0], false)
	cur := p.su
	for _, vi := range p.vars {
		s.hop(cur, vnode[vi])
		cur = vnode[vi]
		b.wp[len(b.wp)-1] = true
	}
	s.hop(cur, p.sv)

	nodes, links, _ := s.cut.removeCycles(b.nodes, b.links, b.wp)
	r := Route{Nodes: slices.Clone(nodes), Waypoints: p.seq}
	if len(links) > 0 {
		r.Links = slices.Clone(links)
	}
	return r
}

// routeBuf is the scratch a waypoint route is spliced in: the switch
// sequence, the links between them, and which positions visit a waypoint.
type routeBuf struct {
	nodes []topo.NodeID
	links []int
	wp    []bool
}

// hop appends the tree path from switch cur to switch to onto the scratch
// route. An unreachable target appends nothing.
func (s *solver) hop(cur, to topo.NodeID) {
	if to == cur {
		return
	}
	b := &s.buf
	prev := s.prev[cur]
	k := s.in.Topo.TreeHops(prev, to)
	n0, l0 := len(b.nodes), len(b.links)
	b.nodes = append(b.nodes, make([]topo.NodeID, k)...)
	b.links = append(b.links, make([]int, k)...)
	b.wp = append(b.wp, make([]bool, k)...)
	s.in.Topo.TreePath(prev, to, b.nodes[n0:], b.links[l0:])
}

// cycleCutter removes revisit loops that contain no waypoint from a route,
// preserving the waypoint visit order (the MILP's Σ R_uvin ≤ 1 constraint
// analogue). last[n] is switch n's latest position in the current scan,
// valid only while seen[n] == gen, so starting a scan costs one increment.
type cycleCutter struct {
	last []int
	seen []uint32
	gen  uint32
}

func newCycleCutter(switches int) cycleCutter {
	return cycleCutter{last: make([]int, switches), seen: make([]uint32, switches)}
}

// removeCycles scans nodes left to right. At the first switch revisited
// with no waypoint visit after its previous position j (exclusive) up to
// this one at i (inclusive), it splices out nodes j+1..i, links j..i-1 and
// their waypoint marks in place, and scans again from the start. It
// returns the shortened slices, which share the arguments' arrays.
func (c *cycleCutter) removeCycles(nodes []topo.NodeID, links []int, wp []bool) ([]topo.NodeID, []int, []bool) {
	for {
		if c.gen++; c.gen == 0 {
			clear(c.seen)
			c.gen = 1
		}
		cut := false
		for i, n := range nodes {
			if c.seen[n] == c.gen {
				if j := c.last[n]; !slices.Contains(wp[j+1:i+1], true) {
					nodes = append(nodes[:j+1], nodes[i+1:]...)
					links = append(links[:j], links[i:]...)
					wp = append(wp[:j+1], wp[i+1:]...)
					cut = true
					break
				}
			}
			c.seen[n], c.last[n] = c.gen, i
		}
		if !cut {
			return nodes, links, wp
		}
	}
}
