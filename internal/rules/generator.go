// Generator: rule generation with cross-compilation caches for the delta
// path. A per-switch program is a function of (diagram root, ownership
// set) — the whole diagram compiles into every program, with ownership
// deciding which state tests are real branches and which are suspend
// stubs — so the program cache keys on exactly that pair. Hash-consed
// roots make pointer identity structural identity: a policy edit that
// cycles back to the diagram compiled before it (or a placement change
// that leaves the diagram alone) reuses every cached program, and the
// node numbering is recalled instead of rebuilt. Both caches hold the
// diagram last generated and the one before it, so an edit and its revert
// stay warm while older diagrams, and the translator stores their pointers
// pin, are released.
package rules

import (
	"fmt"
	"sort"

	"snap/internal/netasm"
	"snap/internal/place"
	"snap/internal/topo"
	"snap/internal/xfdd"
)

// compiledProg pairs a compiled NetASM program with its stats.
type compiledProg struct {
	prog  *netasm.Program
	stats SwitchStats
}

type progKey struct {
	root *xfdd.Diagram
	owns string
}

type numbering struct {
	ids   map[*xfdd.Diagram]int
	count int
}

// Generator compiles per-switch configurations, caching work that
// survives recompilation. Not safe for concurrent use.
type Generator struct {
	// roots are the diagrams the caches below are keyed on: the one last
	// generated, then the one before it (nil until there is one).
	roots      [2]*xfdd.Diagram
	numberings map[*xfdd.Diagram]numbering
	progs      map[progKey]compiledProg
	spTopo     *topo.Topology
	spNext     [][]int

	// ReusedPrograms and CompiledPrograms report, for the most recent
	// Generate call, how many distinct per-switch programs came from the
	// cache versus were compiled fresh.
	ReusedPrograms   int
	CompiledPrograms int
}

// NewGenerator returns an empty generator.
func NewGenerator() *Generator {
	return &Generator{
		numberings: map[*xfdd.Diagram]numbering{},
		progs:      map[progKey]compiledProg{},
	}
}

// Generate compiles per-switch configurations from the xFDD and the
// optimizer's placement, replicas and routes, reusing cached programs,
// node numberings and shortest-path tables where their inputs are
// unchanged. Semantics are identical to GenerateReplicated.
func (g *Generator) Generate(d *xfdd.Diagram, t *topo.Topology, placement map[string]topo.NodeID, replicas map[string][]topo.NodeID, routes map[[2]int]place.Route) (*Config, error) {
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

	g.retain(d)
	num, ok := g.numberings[d]
	if !ok {
		ids, count := numberNodes(d)
		num = numbering{ids: ids, count: count}
		g.numberings[d] = num
	}

	cfg := &Config{
		Topo:      t,
		Diagram:   d,
		RootID:    num.ids[d],
		NodeCount: num.count,
		Placement: placement,
		Replicas:  replicas,
		Switches:  map[topo.NodeID]*SwitchConfig{},
	}

	if g.spTopo != t {
		g.spNext = allPairsNextHop(t)
		g.spTopo = t
	}
	spNext := g.spNext

	g.ReusedPrograms, g.CompiledPrograms = 0, 0
	seenKeys := map[progKey]bool{}
	for n := 0; n < t.Switches; n++ {
		node := topo.NodeID(n)
		owns := map[string]bool{}
		for v, at := range placement {
			if at == node {
				owns[v] = true
			}
		}
		sc := &SwitchConfig{
			Node:      node,
			Owns:      owns,
			RouteNext: map[[2]int]int{},
			SPNext:    spNext[n],
		}
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
			seenKeys[ck] = true
		} else if !seenKeys[ck] {
			g.ReusedPrograms++
			seenKeys[ck] = true
		}
		sc.Prog = cp.prog
		sc.Stats = cp.stats
		cfg.Switches[node] = sc
	}

	for _, p := range t.Ports {
		sc := cfg.Switches[p.Switch]
		sc.LocalPorts = append(sc.LocalPorts, p.ID)
	}
	for _, sc := range cfg.Switches {
		sort.Ints(sc.LocalPorts)
	}

	// Install path match-action entries along each optimizer route. When a
	// route revisits a switch (waypoint ordering can force that), the last
	// occurrence wins: following last-occurrence entries always makes
	// progress toward the route's egress.
	for pair, r := range routes {
		for _, li := range r.Links {
			from := t.Links[li].From
			sc := cfg.Switches[from]
			if _, dup := sc.RouteNext[pair]; !dup {
				sc.Stats.ForwardRules++
			}
			sc.RouteNext[pair] = li
		}
	}
	return cfg, nil
}

// retain makes d the most recent root and evicts what was cached for any
// root but d and the one generated before it.
func (g *Generator) retain(d *xfdd.Diagram) {
	if d == g.roots[0] {
		return
	}
	evicted := g.roots[1]
	g.roots = [2]*xfdd.Diagram{d, g.roots[0]}
	if evicted == nil || evicted == d {
		return
	}
	delete(g.numberings, evicted)
	for k := range g.progs {
		if k.root == evicted {
			delete(g.progs, k)
		}
	}
}

// CachedRoots reports how many diagram roots the program and numbering
// caches hold entries for; the bound tests read it.
func (g *Generator) CachedRoots() int {
	roots := map[*xfdd.Diagram]bool{}
	for d := range g.numberings {
		roots[d] = true
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
	if old == nil || next == nil {
		var all []topo.NodeID
		if next != nil {
			for n := range next.Switches {
				all = append(all, n)
			}
		} else if old != nil {
			for n := range old.Switches {
				all = append(all, n)
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		return all
	}
	var dirty []topo.NodeID
	seen := map[topo.NodeID]bool{}
	for n, nsc := range next.Switches {
		seen[n] = true
		osc, ok := old.Switches[n]
		if !ok || switchChanged(osc, nsc) {
			dirty = append(dirty, n)
		}
	}
	for n := range old.Switches {
		if !seen[n] {
			dirty = append(dirty, n)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	return dirty
}

func switchChanged(a, b *SwitchConfig) bool {
	if a.Prog != b.Prog || OwnsKey(a.Owns) != OwnsKey(b.Owns) {
		return true
	}
	if len(a.RouteNext) != len(b.RouteNext) {
		return true
	}
	for pair, li := range a.RouteNext {
		if b.RouteNext[pair] != li {
			return true
		}
	}
	if len(a.SPNext) != len(b.SPNext) {
		return true
	}
	for i, li := range a.SPNext {
		if b.SPNext[i] != li {
			return true
		}
	}
	if len(a.LocalPorts) != len(b.LocalPorts) {
		return true
	}
	for i, p := range a.LocalPorts {
		if b.LocalPorts[i] != p {
			return true
		}
	}
	return false
}
