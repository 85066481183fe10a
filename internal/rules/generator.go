// Generator: rule generation with cross-compilation caches for the delta
// path. A per-switch program is a function of (diagram root, ownership
// set) — the whole diagram compiles into every program, with ownership
// deciding which state tests are real branches and which are suspend
// stubs — so the program cache keys on exactly that pair. Hash-consed
// roots make pointer identity structural identity: a policy edit that
// cycles back to the diagram compiled before it (or a placement change
// that leaves the diagram alone) reuses every cached program, and the
// node numbering is recalled instead of rebuilt. A cached program also
// keeps its linked image (netasm.Link) and the variable-space signature it
// was linked against, so P6 hands the data plane executable images and
// relinks a program only when the configuration's variable names differ.
// Both caches hold the diagram last generated and the one before it, so an
// edit and its revert stay warm while older diagrams, and the translator
// stores their pointers pin, are released.
package rules

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"snap/internal/netasm"
	"snap/internal/place"
	"snap/internal/topo"
	"snap/internal/xfdd"
)

// compiledProg pairs a compiled NetASM program with its stats and its
// image linked against the variable space whose signature is sig.
type compiledProg struct {
	prog   *netasm.Program
	stats  SwitchStats
	linked *netasm.Linked
	sig    string
}

type progKey struct {
	root *xfdd.Diagram
	owns string
}

// cachedRoot is a diagram the program cache is keyed on, with its node
// numbering.
type cachedRoot struct {
	d     *xfdd.Diagram
	ids   map[*xfdd.Diagram]int
	count int
}

// Generator compiles per-switch configurations, caching work that
// survives recompilation. Not safe for concurrent use.
type Generator struct {
	// roots are the diagrams progs is keyed on: the one last generated,
	// then the one before it (zero until there is one).
	roots [2]cachedRoot
	progs map[progKey]compiledProg

	// ReusedPrograms and CompiledPrograms report, for the most recent
	// Generate call, how many distinct per-switch programs came from the
	// cache versus were compiled fresh.
	ReusedPrograms   int
	CompiledPrograms int
}

// NewGenerator returns an empty generator.
func NewGenerator() *Generator {
	return &Generator{progs: map[progKey]compiledProg{}}
}

// Generate compiles per-switch configurations from the xFDD and the
// optimizer's placement, replicas and routes, and links each distinct
// program against the configuration's variable space, reusing cached
// programs, images and node numberings where their inputs are unchanged.
// Each switch's fallback next hops are its row of f's Next, the forest
// the routes were computed on (place.Model.Forest). Semantics are
// identical to GenerateReplicated.
func (g *Generator) Generate(d *xfdd.Diagram, t *topo.Topology, f *topo.Forest, placement map[string]topo.NodeID, replicas map[string][]topo.NodeID, routes map[[2]int]place.Route) (*Config, error) {
	for v, at := range placement {
		if int(at) < 0 || int(at) >= t.Switches {
			return nil, fmt.Errorf("rules: state variable %s placed on unknown switch %d", v, at)
		}
	}
	for v, rs := range replicas {
		owner, ok := placement[v]
		if !ok {
			return nil, fmt.Errorf("rules: replica assignment for unplaced state variable %s", v)
		}
		for _, r := range rs {
			if r == owner {
				return nil, fmt.Errorf("rules: state variable %s replicated onto its own primary switch %d", v, owner)
			}
			if int(r) < 0 || int(r) >= t.Switches {
				return nil, fmt.Errorf("rules: state variable %s replicated onto unknown switch %d", v, r)
			}
		}
	}

	num := g.retain(d)

	cfg := &Config{
		Topo:      t,
		Diagram:   d,
		RootID:    num.ids[d],
		NodeCount: num.count,
		Placement: placement,
		Replicas:  replicas,
		Switches:  map[topo.NodeID]*SwitchConfig{},
	}

	g.ReusedPrograms, g.CompiledPrograms = 0, 0
	names := slices.Collect(maps.Keys(placement))
	seen := map[progKey]bool{}
	keys := make([]progKey, t.Switches)
	scs := make([]*SwitchConfig, t.Switches)
	for n := 0; n < t.Switches; n++ {
		node := topo.NodeID(n)
		owns := map[string]bool{}
		for v, at := range placement {
			if at == node {
				owns[v] = true
			}
		}
		sc := &SwitchConfig{Node: node, Owns: owns, SPNext: f.Next[n]}
		ck := progKey{root: d, owns: OwnsKey(owns)}
		cp, ok := g.progs[ck]
		if !ok {
			prog, stats, err := compileProgram(d, num.ids, owns)
			if err != nil {
				return nil, err
			}
			cp = compiledProg{prog: prog, stats: stats}
			g.progs[ck] = cp
			g.CompiledPrograms++
		} else if !seen[ck] {
			g.ReusedPrograms++
		}
		if !seen[ck] {
			seen[ck] = true
			for _, ins := range cp.prog.Instrs {
				if ins.Var != "" {
					names = append(names, ins.Var)
				}
			}
		}
		sc.Prog = cp.prog
		sc.Stats = cp.stats
		cfg.Switches[node], scs[n], keys[n] = sc, sc, ck
	}

	// Link every distinct program against the configuration's one variable
	// space; an image linked against the same name set is recalled.
	cfg.vars = netasm.NewVarSpace(names)
	sig := cfg.vars.Signature()
	for n, sc := range scs {
		cp := g.progs[keys[n]]
		if cp.linked == nil || cp.sig != sig {
			cp.linked, cp.sig = netasm.Link(cp.prog, cfg.vars, sc.Owns), sig
			g.progs[keys[n]] = cp
		}
		sc.Linked = cp.linked
	}

	for _, p := range t.Ports {
		scs[p.Switch].LocalPorts = append(scs[p.Switch].LocalPorts, p.ID)
	}
	for _, sc := range scs {
		sort.Ints(sc.LocalPorts)
	}

	// Install path match-action entries along each optimizer route, straight
	// into the one flat table. When a route revisits a switch (waypoint
	// ordering can force that), the last occurrence wins: following
	// last-occurrence entries always makes progress toward the route's
	// egress. Walking backwards meets it first; claimed[s] is the last taker.
	rt := &cfg.Routes
	rt.ports, rt.hops = len(t.Ports), make([]RouteHop, 0, 4*len(routes))
	rt.span = make([][2]int32, rt.ports*rt.ports)
	for i, p := range t.Ports {
		for p.ID >= len(rt.rank) {
			rt.rank = append(rt.rank, -1)
		}
		if p.ID >= 0 {
			rt.rank[p.ID] = int32(i)
		}
	}
	claimed, route := make([]int, t.Switches), 0
	for pair, r := range routes {
		u, v := rt.Port(pair[0]), rt.Port(pair[1])
		if u < 0 || v < 0 {
			continue
		}
		route++
		start := len(rt.hops)
		for i := len(r.Links) - 1; i >= 0; i-- {
			li := r.Links[i]
			if from := t.Links[li].From; claimed[from] != route {
				claimed[from] = route
				rt.hops = append(rt.hops, RouteHop{Switch: int32(from), Link: int32(li)})
				scs[from].Stats.ForwardRules++
			}
		}
		slices.Reverse(rt.hops[start:])
		rt.span[u*rt.ports+v] = [2]int32{int32(start), int32(len(rt.hops))}
	}
	return cfg, nil
}

// retain makes d the most recent root, numbering it unless it is one of
// the two cached, and returns it. A new root displaces the older slot, and
// the programs compiled for that slot's diagram are evicted with it.
func (g *Generator) retain(d *xfdd.Diagram) cachedRoot {
	switch d {
	case g.roots[0].d:
	case g.roots[1].d:
		g.roots[0], g.roots[1] = g.roots[1], g.roots[0]
	default:
		evicted := g.roots[1].d
		ids, count := numberNodes(d)
		g.roots = [2]cachedRoot{{d: d, ids: ids, count: count}, g.roots[0]}
		for k := range g.progs {
			if k.root == evicted {
				delete(g.progs, k)
			}
		}
	}
	return g.roots[0]
}

// CachedRoots reports how many diagram roots the generator holds numberings
// or programs for; the bound tests read it.
func (g *Generator) CachedRoots() int {
	roots := map[*xfdd.Diagram]bool{}
	for _, r := range g.roots {
		if r.d != nil {
			roots[r.d] = true
		}
	}
	for k := range g.progs {
		roots[k.root] = true
	}
	return len(roots)
}

// DiffSwitches compares two configurations switch by switch and returns
// the ids whose data-plane configuration actually changed: a different
// program (pointer identity — the generator's cache keeps programs
// pointer-stable across compilations), ownership set, forwarding entries,
// shortest-path fallbacks or local ports. Switches present in only one
// configuration are always dirty. The result is sorted.
func DiffSwitches(old, next *Config) []topo.NodeID {
	if old == nil {
		old = &Config{}
	}
	if next == nil {
		next = &Config{}
	}
	dirty := map[topo.NodeID]bool{}
	old.Routes.markChanged(&next.Routes, dirty)
	next.Routes.markChanged(&old.Routes, dirty)
	for n, nsc := range next.Switches {
		if osc, ok := old.Switches[n]; !ok || switchChanged(osc, nsc) {
			dirty[n] = true
		}
	}
	for n := range old.Switches {
		if _, ok := next.Switches[n]; !ok {
			dirty[n] = true
		}
	}
	return slices.Sorted(maps.Keys(dirty))
}

// markChanged marks every switch where rt installs an entry that other
// does not: the pair is unknown to other, or leaves on a different link.
func (rt *RouteTable) markChanged(other *RouteTable, dirty map[topo.NodeID]bool) {
	for u := range rt.rank {
		for v := range rt.rank {
			mine, theirs := rt.Pair(u, v), other.Pair(u, v)
			if slices.Equal(mine, theirs) {
				continue
			}
			for _, h := range mine {
				if NextLink(theirs, topo.NodeID(h.Switch)) != int(h.Link) {
					dirty[topo.NodeID(h.Switch)] = true
				}
			}
		}
	}
}

func switchChanged(a, b *SwitchConfig) bool {
	return a.Prog != b.Prog || OwnsKey(a.Owns) != OwnsKey(b.Owns) ||
		!slices.Equal(a.SPNext, b.SPNext) || !slices.Equal(a.LocalPorts, b.LocalPorts)
}
