// Package dataplane simulates the distributed network executing a compiled
// SNAP program: one NetASM switch VM per physical switch, wired by the
// topology, with packets entering at OBS ports carrying the SNAP-header of
// §4.5. It is the end-to-end check that compilation preserves the
// language's one-big-switch semantics: packets injected here must exit the
// same ports with the same headers, and leave behind the same global state,
// as the eval function says they should.
//
// Two runtimes share the compiled configuration and the one packet walk
// (walk.go): the sequential Network (this file), which is that walk called
// from Inject against its own switches, and the concurrent batched Engine
// (engine.go). See docs/ARCHITECTURE.md for the invariants both
// maintain.
package dataplane

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"snap/internal/netasm"
	"snap/internal/pkt"
	"snap/internal/rules"
	"snap/internal/state"
	"snap/internal/topo"
)

// Delivery is a packet leaving the network at an OBS port.
type Delivery struct {
	Port   int
	Packet pkt.Packet
}

// Network is the simulated data plane, processing one packet at a time to
// quiescence: the walk of walk.go run by the caller of Inject against the
// network's own switch VMs, with no locks and no goroutine, so a
// Network needs no Close and must not be used from two goroutines at once.
// It shares routing, stats accounting and the error discipline with the
// concurrent Engine: a VM panic is contained (the switch is quarantined
// and its copies drop and count, for the life of the Network), and a
// routing error (hop limit, missing owner, unreachable switch, organic VM
// fault) is returned by Inject and sticks. Use Network when per-packet
// lockstep with the reference semantics matters (tests, the snapsim
// cross-check) and Engine to serve batched traffic.
type Network struct {
	fab fabric
	pl  *plane
	w   walker
	inj injection
}

// New instantiates switch VMs for a configuration, linking each program
// once against the configuration's shared variable space.
func New(cfg *rules.Config) *Network {
	n := &Network{pl: newPlane(cfg)}
	n.fab.init(cfg, nil)
	linked, _, _ := linkPrograms(cfg, nil)
	n.pl.switches = newSwitches(linked, cfg.Topo.Switches)
	return n
}

// linkKey identifies a distinct linkable image: rules shares one Program
// across all switches with the same ownership set, so (program pointer,
// ownership signature) is the image's identity within one variable space.
type linkKey struct {
	prog *netasm.Program
	owns string
}

// linkPrograms links every switch's program against the configuration's
// shared variable space, linking each distinct (program, ownership)
// combination once — a fleet of stateless switches links exactly one
// image. Images found in cache are recalled instead of linked (the engine
// passes its cross-epoch cache, everyone else nil); images holds this
// call's distinct images, fresh of them linked here.
func linkPrograms(cfg *rules.Config, cache map[linkKey]*netasm.Linked) (out map[topo.NodeID]*netasm.Linked, images map[linkKey]*netasm.Linked, fresh int) {
	vs := cfg.VarSpace()
	images = map[linkKey]*netasm.Linked{}
	out = make(map[topo.NodeID]*netasm.Linked, len(cfg.Switches))
	for id, sc := range cfg.Switches {
		k := linkKey{prog: sc.Prog, owns: rules.OwnsKey(sc.Owns)}
		lp, ok := images[k]
		if !ok {
			if lp, ok = cache[k]; !ok {
				lp = netasm.Link(sc.Prog, vs, sc.Owns)
				fresh++
			}
			images[k] = lp
		}
		out[id] = lp
	}
	return out, images, fresh
}

// collectDiags gathers link-time diagnostics across a plane's programs,
// prefixed with the switches sharing each program (satisfying the
// "once per program" contract even though many switches run it).
func collectDiags(linked map[topo.NodeID]*netasm.Linked) []string {
	byProg := make(map[*netasm.Linked][]topo.NodeID)
	for id, lp := range linked {
		byProg[lp] = append(byProg[lp], id)
	}
	var out []string
	for lp, ids := range byProg {
		diags := lp.Diagnostics()
		if len(diags) == 0 {
			continue
		}
		slices.Sort(ids)
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = strconv.Itoa(int(id))
		}
		for _, d := range diags {
			out = append(out, fmt.Sprintf("program of switch %s: %s", strings.Join(parts, ","), d))
		}
	}
	sort.Strings(out)
	return out
}

// LinkDiagnostics links a configuration's programs and returns the plane's
// link-time diagnostics without building an engine (snapsim -v, tooling).
func LinkDiagnostics(cfg *rules.Config) []string {
	linked, _, _ := linkPrograms(cfg, nil)
	return collectDiags(linked)
}

// Inject sends one packet into the network at an OBS ingress port and runs
// the plane to quiescence, returning the deliveries (multicast may produce
// several).
func (n *Network) Inject(port int, p pkt.Packet) ([]Delivery, error) {
	pt, ok := n.pl.cfg.Topo.PortByID(port)
	if !ok {
		return nil, fmt.Errorf("dataplane: unknown ingress port %d", port)
	}
	if !n.fab.failed.Load() {
		n.fab.stats.injected.Add(1)
		n.inj = injection{collect: true}
		n.fab.walk(n.pl, &n.w, &n.inj, pt.Switch, &Ingress{Port: port, Packet: p})
	}
	if n.fab.failed.Load() {
		return nil, n.fab.err
	}
	return n.inj.out, nil
}

// Stats returns a snapshot of the simulator counters.
func (n *Network) Stats() Stats { return n.fab.stats.snapshot() }

// sortDeliveries orders deliveries canonically (port, then packet key),
// computing each packet's key once instead of once per comparison.
func sortDeliveries(ds []Delivery) {
	if len(ds) < 2 {
		return
	}
	keys := make([]string, len(ds))
	for i := range ds {
		keys[i] = ds[i].Packet.Key()
	}
	s := deliverySorter{ds: ds, keys: keys}
	sort.Sort(&s)
}

type deliverySorter struct {
	ds   []Delivery
	keys []string
}

func (s *deliverySorter) Len() int { return len(s.ds) }
func (s *deliverySorter) Less(i, j int) bool {
	if s.ds[i].Port != s.ds[j].Port {
		return s.ds[i].Port < s.ds[j].Port
	}
	return s.keys[i] < s.keys[j]
}
func (s *deliverySorter) Swap(i, j int) {
	s.ds[i], s.ds[j] = s.ds[j], s.ds[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// GlobalState unions the per-switch state tables. Placement puts each
// variable on exactly one switch, so the union is well defined; it is the
// distributed counterpart of the one-big-switch store.
func (n *Network) GlobalState() *state.Store { return unionState(n.pl.switches, n.fab.down) }

// Config exposes the compiled configuration the plane was built from,
// e.g. to build an Engine over the same deployment.
func (n *Network) Config() *rules.Config { return n.pl.cfg }

// SwitchTable snapshots one switch's tables (tests and diagnostics) in
// canonical Store form. The runtime representation is the switch's dense
// tables; the returned store is a copy.
func (n *Network) SwitchTable(id topo.NodeID) *state.Store {
	return switchTable(n.pl.switches, id)
}

// unionState and switchTable are the state views both runtimes share,
// converting the switches' dense runtime tables to canonical stores. The
// union leaves down switches out: their memory is gone with them.
func unionState(switches []*netasm.Switch, down []atomic.Bool) *state.Store {
	out := state.NewStore()
	for id, sw := range switches {
		if !down[id].Load() {
			sw.StateInto(out)
		}
	}
	return out
}

func switchTable(switches []*netasm.Switch, id topo.NodeID) *state.Store {
	if int(id) < 0 || int(id) >= len(switches) {
		return nil
	}
	return switches[id].Snapshot()
}
