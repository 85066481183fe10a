// Package rules is the compiler backend (§4.5 of the paper): it combines
// the program xFDD with the placement and routing decisions to produce
// per-switch data-plane configurations — a NetASM program per switch plus
// match-action forwarding tables keyed by the SNAP-header path identifier.
//
// Per-switch xFDDs materialize as per-switch NetASM programs sharing one
// node-id space: a switch compiles real code for every node it can execute
// (stateless tests, its own state tests and writes) and a suspend stub for
// each state test held elsewhere. Packets carry the resume node id in
// their SNAP-header, so processing continues on the next stateful switch
// exactly where it stopped — the mechanism of the paper's I1 → C6 → D4
// walk-through.
package rules

import (
	"fmt"
	"sort"
	"strings"

	"snap/internal/netasm"
	"snap/internal/place"
	"snap/internal/topo"
	"snap/internal/xfdd"
)

// SwitchStats counts the configuration a switch received, for the
// evaluation's rule-size accounting.
type SwitchStats struct {
	Branches     int // stateless + local state branches
	SuspendStubs int // remote state tests
	StateOps     int // local state writes
	ResolveOps   int // remote writes resolved into the header
	ForwardRules int // match-action path entries
}

// SwitchConfig is one switch's data-plane configuration.
type SwitchConfig struct {
	Node topo.NodeID
	Prog *netasm.Program
	// Linked is Prog linked against the configuration's VarSpace for Owns:
	// the image the data plane instantiates VMs over, shared by every
	// switch running the same program.
	Linked *netasm.Linked
	Owns   map[string]bool
	// SPNext[d] is the outgoing link toward switch d (shortest path), the
	// fallback used while a packet's egress is still unknown (Appendix D).
	SPNext []int
	// LocalPorts lists OBS ports attached to this switch.
	LocalPorts []int
	Stats      SwitchStats
}

// Config is the full network configuration produced by the compiler.
type Config struct {
	Topo      *topo.Topology
	Diagram   *xfdd.Diagram
	RootID    int
	NodeCount int
	Placement map[string]topo.NodeID
	// Replicas lists each state variable's backup owner switches, in
	// promotion-preference order (place.Result.Replicas; nil without
	// replication). Backups hold asynchronously mirrored copies of the
	// primary's table at runtime — they never execute the variable's state
	// instructions, so the per-switch programs are unaffected.
	Replicas map[string][]topo.NodeID
	Switches map[topo.NodeID]*SwitchConfig
	Routes   RouteTable // every switch's (u,v) match-action forwarding entries

	vars *netasm.VarSpace
}

// RouteHop is one forwarding entry: at Switch, its pair's packets leave on Link.
type RouteHop struct{ Switch, Link int32 }

// RouteTable is the network's forwarding table, flat: each OBS pair (u,v)
// owns one contiguous run of entries, one per switch of its route in path
// order. The generator writes it once; the walk, DiffSwitches and
// Stats.ForwardRules all read it. It grows with the entries installed.
type RouteTable struct {
	rank  []int32    // port id → index into Topo.Ports, -1 where no such port
	ports int        // len(Topo.Ports)
	span  [][2]int32 // rank(u)*ports+rank(v) → [start, end) in hops
	hops  []RouteHop
}

// Port returns the index in Topo.Ports of OBS port id, -1 when there is none.
func (rt *RouteTable) Port(id int) int {
	if uint(id) >= uint(len(rt.rank)) {
		return -1
	}
	return int(rt.rank[id])
}

// Pair returns the entries of OBS pair (u,v), none when it has no route.
func (rt *RouteTable) Pair(u, v int) []RouteHop {
	i, j := rt.Port(u), rt.Port(v)
	if i < 0 || j < 0 {
		return nil
	}
	s := rt.span[i*rt.ports+j]
	return rt.hops[s[0]:s[1]]
}

// NextLink picks, from one pair's entries, the link installed at a switch or -1.
func NextLink(entries []RouteHop, at topo.NodeID) int {
	for _, h := range entries {
		if h.Switch == int32(at) {
			return int(h.Link)
		}
	}
	return -1
}

// VarSpace returns the configuration's dense state-variable id space: every
// placed variable plus every variable the per-switch programs reference,
// id-assigned by sorted name. Generate builds it and links each program
// against this one shared space (SwitchConfig.Linked), so pending writes
// can carry variable ids between switches and the engine can look owners
// up by array index. Names remain the canonical identity everywhere the control plane
// is involved — Placement, snapshots, replication, shard merges — and the
// mapping is immutable for the configuration's lifetime (a recompiled
// configuration gets its own space; the engine never lets packets cross
// epochs).
func (c *Config) VarSpace() *netasm.VarSpace { return c.vars }

// Generate compiles per-switch configurations from the xFDD and the
// optimizer's placement and routes.
func Generate(d *xfdd.Diagram, t *topo.Topology, placement map[string]topo.NodeID, routes map[[2]int]place.Route) (*Config, error) {
	return GenerateReplicated(d, t, placement, nil, routes)
}

// GenerateReplicated is Generate with a replica assignment: the produced
// configuration additionally records each state variable's backup owners,
// which the data-plane engine mirrors writes to and the failover path
// promotes. A replica entry for an unplaced variable is an error, as is a
// backup equal to the primary.
func GenerateReplicated(d *xfdd.Diagram, t *topo.Topology, placement map[string]topo.NodeID, replicas map[string][]topo.NodeID, routes map[[2]int]place.Route) (*Config, error) {
	// One-shot generation is a fresh Generator whose caches are discarded.
	// Switches owning the same state-variable set compile to the same
	// NetASM program (programs are immutable at runtime; state lives in the
	// per-switch tables). With hash-consed diagrams most switches own no
	// state at all, so the whole fleet shares a single stateless program
	// compiled once.
	return NewGenerator().Generate(d, t, placement, replicas, routes)
}

// OwnsKey is the canonical signature of an ownership set (sorted
// owned-variable names, NUL-joined; false entries are not owned and do
// not contribute). Generate keys its program and image cache with it.
func OwnsKey(owns map[string]bool) string {
	if len(owns) == 0 {
		return ""
	}
	vars := make([]string, 0, len(owns))
	for v, ok := range owns {
		if ok {
			vars = append(vars, v)
		}
	}
	sort.Strings(vars)
	return strings.Join(vars, "\x00")
}

// numberNodes assigns dense ids in DFS preorder.
func numberNodes(d *xfdd.Diagram) (map[*xfdd.Diagram]int, int) {
	ids := map[*xfdd.Diagram]int{}
	var walk func(*xfdd.Diagram)
	walk = func(n *xfdd.Diagram) {
		if n == nil {
			return
		}
		if _, seen := ids[n]; seen {
			return
		}
		ids[n] = len(ids)
		if !n.IsLeaf() {
			walk(n.True)
			walk(n.False)
		}
	}
	walk(d)
	return ids, len(ids)
}

// compileProgram emits this switch's NetASM program: every xFDD node gets
// an entry pc; remote state tests become suspend stubs.
func compileProgram(d *xfdd.Diagram, ids map[*xfdd.Diagram]int, owns map[string]bool) (*netasm.Program, SwitchStats, error) {
	prog := &netasm.Program{EntryOf: map[int]int{}}
	var stats SwitchStats

	type fixup struct {
		pc     int
		branch bool // true/false target vs fork slot
		isTrue bool
		slot   int
		node   int // target node id
	}
	var fixups []fixup

	emit := func(ins netasm.Instr) int {
		prog.Instrs = append(prog.Instrs, ins)
		return len(prog.Instrs) - 1
	}

	// Order nodes by id for a deterministic layout.
	nodes := make([]*xfdd.Diagram, len(ids))
	for n, id := range ids {
		nodes[id] = n
	}

	for id, n := range nodes {
		entry := len(prog.Instrs)
		prog.EntryOf[id] = entry

		if n.IsLeaf() {
			forkPC := emit(netasm.Instr{Op: netasm.OpFork, Seqs: make([]int, len(n.Seqs))})
			for si, seq := range n.Seqs {
				seqEntry := len(prog.Instrs)
				prog.Instrs[forkPC].Seqs[si] = seqEntry
				dropped := false
				for _, a := range seq {
					next := len(prog.Instrs) + 1
					switch a.Kind {
					case xfdd.ActModify:
						emit(netasm.Instr{Op: netasm.OpSetField, Field: a.Field, Val: a.Val, Next: next})
					case xfdd.ActSet, xfdd.ActIncr, xfdd.ActDecr:
						if owns[a.Var] {
							emit(netasm.Instr{Op: netasm.OpStateWrite, Var: a.Var, Idx: a.Idx, ValE: a.SVal, Act: a.Kind, Next: next})
							stats.StateOps++
						} else {
							emit(netasm.Instr{Op: netasm.OpResolve, Var: a.Var, Idx: a.Idx, ValE: a.SVal, Act: a.Kind, Next: next})
							stats.ResolveOps++
						}
					case xfdd.ActDrop:
						emit(netasm.Instr{Op: netasm.OpDrop})
						dropped = true
					}
					if dropped {
						break
					}
				}
				if !dropped {
					emit(netasm.Instr{Op: netasm.OpFinish})
				}
			}
			continue
		}

		switch t := n.Test.(type) {
		case xfdd.FVTest:
			pc := emit(netasm.Instr{Op: netasm.OpBranchFV, Field: t.Field, Val: t.Val})
			fixups = append(fixups,
				fixup{pc: pc, branch: true, isTrue: true, node: ids[n.True]},
				fixup{pc: pc, branch: true, isTrue: false, node: ids[n.False]})
			stats.Branches++
		case xfdd.FFTest:
			pc := emit(netasm.Instr{Op: netasm.OpBranchFF, Field: t.F1, Field2: t.F2})
			fixups = append(fixups,
				fixup{pc: pc, branch: true, isTrue: true, node: ids[n.True]},
				fixup{pc: pc, branch: true, isTrue: false, node: ids[n.False]})
			stats.Branches++
		case xfdd.STest:
			if owns[t.Var] {
				pc := emit(netasm.Instr{Op: netasm.OpBranchState, Var: t.Var, Idx: t.Idx, ValE: t.Val})
				fixups = append(fixups,
					fixup{pc: pc, branch: true, isTrue: true, node: ids[n.True]},
					fixup{pc: pc, branch: true, isTrue: false, node: ids[n.False]})
				stats.Branches++
			} else {
				emit(netasm.Instr{Op: netasm.OpSuspend, Var: t.Var, Resume: id})
				stats.SuspendStubs++
			}
		default:
			return nil, stats, fmt.Errorf("rules: unknown test %T", n.Test)
		}
	}

	for _, f := range fixups {
		target, ok := prog.EntryOf[f.node]
		if !ok {
			return nil, stats, fmt.Errorf("rules: missing entry for node %d", f.node)
		}
		if f.isTrue {
			prog.Instrs[f.pc].True = target
		} else {
			prog.Instrs[f.pc].False = target
		}
	}
	return prog, stats, nil
}

// allPairsNextHop computes, for every switch, the outgoing link on the
// shortest path (1/capacity weights) toward every destination switch.
func allPairsNextHop(t *topo.Topology) [][]int {
	// Reverse graph Dijkstra per destination.
	weights := make([]float64, len(t.Links))
	for i, l := range t.Links {
		if l.Capacity > 0 {
			weights[i] = 1 / l.Capacity
		} else {
			weights[i] = 1
		}
	}
	revAdj := make([][]int, t.Switches) // incoming links per node
	for li, l := range t.Links {
		revAdj[l.To] = append(revAdj[l.To], li)
	}

	next := make([][]int, t.Switches)
	for n := range next {
		next[n] = make([]int, t.Switches)
		for d := range next[n] {
			next[n][d] = -1
		}
	}

	const inf = 1e30
	for dst := 0; dst < t.Switches; dst++ {
		dist := make([]float64, t.Switches)
		visited := make([]bool, t.Switches)
		via := make([]int, t.Switches) // link leaving the node toward dst
		for i := range dist {
			dist[i] = inf
			via[i] = -1
		}
		dist[dst] = 0
		for {
			best, bestD := -1, inf
			for n := 0; n < t.Switches; n++ {
				if !visited[n] && dist[n] < bestD {
					best, bestD = n, dist[n]
				}
			}
			if best < 0 {
				break
			}
			visited[best] = true
			for _, li := range revAdj[best] {
				l := t.Links[li]
				if nd := bestD + weights[li]; nd < dist[l.From] {
					dist[l.From] = nd
					via[l.From] = li
				}
			}
		}
		for n := 0; n < t.Switches; n++ {
			next[n][dst] = via[n]
		}
	}
	return next
}
