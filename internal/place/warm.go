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
	if prev == nil || m.opts.Method == Exact || len(in.Topo.Ports) == 0 {
		return m.SolveST(mapping, order)
	}

	groups := buildGroups(in)
	moved := 0
	for _, g := range groups {
		if n, ok := cleanOwner(g, prev, dirty); ok && in.Topo.Up(n) {
			g.node = n
		} else {
			moved++
		}
	}
	if moved*2 > len(groups) {
		return m.SolveST(mapping, order)
	}
	res, err := m.solveHeuristic(in, groups, "heuristic-warm")
	if err != nil {
		return nil, err
	}
	res.PinnedGroups, res.MovedGroups = len(groups)-moved, moved
	return res, nil
}

// cleanOwner returns the switch prev places all of g's variables on, when
// none of them is dirty and they agree.
func cleanOwner(g *group, prev map[string]topo.NodeID, dirty map[string]bool) (topo.NodeID, bool) {
	node := topo.NodeID(-1)
	for _, v := range g.vars {
		n, ok := prev[v]
		if dirty[v] || !ok || (node >= 0 && n != node) {
			return -1, false
		}
		node = n
	}
	return node, node >= 0
}
