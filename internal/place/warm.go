// Warm-started placement for the delta compilation path: a policy edit
// that leaves a state variable's read/write sites untouched has no reason
// to move that variable, so SolveSTWarm pins every tied-variable group
// with no dirty member to its previous owner and runs seeding and local
// search over the remaining (dirty or new) groups only. Routing always
// reruns in full — routes are cheap relative to placement search and must
// reflect the new mapping exactly.
package place

import (
	"snap/internal/deps"
	"snap/internal/psmap"
	"snap/internal/topo"
)

// SolveSTWarm is SolveST seeded from a previous placement. prev maps
// state variables to their owners in the previous result; dirty marks the
// variables a policy edit may have affected. Groups whose variables are
// all clean, consistently placed in prev, and on an up switch are pinned;
// the rest are placed by the usual seed + local search (which sees the
// pinned groups' positions in its cost terms).
//
// Falls back to a full SolveST — identical result contract — when the
// warm start cannot help: no previous placement, the exact engine is
// selected (it has no warm path), or more than half the groups are dirty
// (the search would move most of the mass anyway, and a full solve's
// quality is worth the cost). Warm results carry Method
// "heuristic-warm"; fallback results keep their usual Method.
func (m *Model) SolveSTWarm(mapping *psmap.Mapping, order *deps.Order, prev map[string]topo.NodeID, dirty map[string]bool) (*Result, error) {
	in := m.inputs(mapping, order)
	if prev == nil || m.opts.Method == Exact {
		return m.SolveST(mapping, order)
	}
	if len(in.Topo.Ports) == 0 {
		return m.SolveST(mapping, order)
	}

	groups := buildGroups(in)
	var movable []int
	for gi, g := range groups {
		node := topo.NodeID(-1)
		pin := true
		for _, v := range g.vars {
			if dirty[v] {
				pin = false
				break
			}
			n, ok := prev[v]
			if !ok || (node >= 0 && n != node) {
				pin = false
				break
			}
			node = n
		}
		if pin && node >= 0 && in.Topo.Up(node) {
			g.node = node
		} else {
			movable = append(movable, gi)
		}
	}
	if len(movable)*2 > len(groups) {
		return m.SolveST(mapping, order)
	}

	s := m.newSolver(in)
	s.indexPairs(groups)
	loc := map[string]topo.NodeID{}
	for gi, g := range groups {
		if g.node >= 0 && !contains(movable, gi) {
			for _, v := range g.vars {
				loc[v] = g.node
			}
		}
	}
	// An empty movable set must stay empty: nil means "all groups" to the
	// subset helpers, and a fully pinned placement has nothing to search.
	if len(movable) > 0 {
		s.seedPlacementOf(groups, loc, movable)
		s.improvePlacementOf(groups, loc, movable)
	}

	var replicas map[string][]topo.NodeID
	if m.opts.Replicas > 1 && len(loc) > 0 {
		replicas = s.chooseReplicas(groups, m.opts.Replicas)
	}

	routes, congestion, maxUtil := s.route(loc)
	return &Result{
		Placement:    loc,
		Replicas:     replicas,
		Routes:       routes,
		Congestion:   congestion,
		MaxUtil:      maxUtil,
		Method:       "heuristic-warm",
		PinnedGroups: len(groups) - len(movable),
		MovedGroups:  len(movable),
	}, nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
