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
	"sort"
	"sync/atomic"

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

// New instantiates switch VMs over the configuration's linked images.
func New(cfg *rules.Config) *Network {
	n := &Network{pl: newPlane(cfg)}
	n.fab.init(cfg, nil)
	return n
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
		n.fab.fold(&n.w.tally)
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
func (n *Network) GlobalState() *state.Store { return n.pl.state(n.fab.down, true) }

// Config exposes the compiled configuration the plane was built from,
// e.g. to build an Engine over the same deployment.
func (n *Network) Config() *rules.Config { return n.pl.cfg }

// SwitchTable snapshots one switch's tables (tests and diagnostics): a
// copy, which later traffic does not change. nil for an unknown switch.
func (n *Network) SwitchTable(id topo.NodeID) *state.Store { return n.pl.snapshot(id) }

// state gathers the tables of the variables alive switches own into a
// store; a down switch's memory is gone with it. Placement puts each
// variable on exactly one switch. With clone set, each table is copied, so
// later traffic cannot change the store; otherwise the store holds the
// live tables, shared — the state a swap stages from a paused plane.
func (pl *plane) state(down []atomic.Bool, clone bool) *state.Store {
	out := state.NewStore()
	for v, owner := range pl.cfg.Placement {
		if down[owner].Load() {
			continue
		}
		if t, ok := pl.switches[owner].TableRef(v); ok {
			if clone {
				out.SetTable(v, t.Clone())
			} else {
				out.SetTable(v, *t)
			}
		}
	}
	return out
}

// snapshot copies one switch's tables into a store, nil for an unknown
// switch.
func (pl *plane) snapshot(id topo.NodeID) *state.Store {
	if int(id) < 0 || int(id) >= len(pl.switches) {
		return nil
	}
	return pl.switches[id].Snapshot()
}
