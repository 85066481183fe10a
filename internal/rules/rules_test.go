package rules_test

import (
	"math"
	"testing"

	"snap/internal/apps"
	"snap/internal/deps"
	"snap/internal/netasm"
	"snap/internal/place"
	"snap/internal/psmap"
	"snap/internal/rules"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/xfdd"
)

func generate(t *testing.T, p syntax.Policy, net *topo.Topology) *rules.Config {
	t.Helper()
	d, order, err := xfdd.Translate(p)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	in := place.Inputs{
		Topo:    net,
		Demands: traffic.Gravity(net, 100, 1),
		Mapping: psmap.Build(d, net.PortIDs()),
		Order:   order,
	}
	res, err := place.Solve(in, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	cfg, err := rules.Generate(d, net, res.Placement, res.Routes)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return cfg
}

func dnsCampusConfig(t *testing.T) *rules.Config {
	net := topo.Campus(1000)
	p := syntax.Then(
		apps.Assumption(6),
		syntax.Then(apps.DNSTunnelDetect(), apps.AssignEgress(6)),
	)
	return generate(t, p, net)
}

// TestEveryNodeHasEntryEverywhere: each switch's program has an entry pc
// for every xFDD node id (real code or a suspend stub), so a packet can
// resume anywhere.
func TestEveryNodeHasEntryEverywhere(t *testing.T) {
	cfg := dnsCampusConfig(t)
	for id, sc := range cfg.Switches {
		if got := len(sc.Prog.EntryOf); got != cfg.NodeCount {
			t.Errorf("switch %d: %d entries, want %d", id, got, cfg.NodeCount)
		}
		for node, pc := range sc.Prog.EntryOf {
			if pc < 0 || pc >= len(sc.Prog.Instrs) {
				t.Fatalf("switch %d node %d: pc %d out of range", id, node, pc)
			}
		}
	}
}

// TestOwnershipSplitsStateOps: only the owning switch compiles state
// branches and writes; everyone else gets suspend stubs / resolves.
func TestOwnershipSplitsStateOps(t *testing.T) {
	cfg := dnsCampusConfig(t)
	for id, sc := range cfg.Switches {
		owns := len(sc.Owns) > 0
		if owns {
			if sc.Stats.StateOps == 0 {
				t.Errorf("owner switch %d compiled no state ops", id)
			}
			if sc.Stats.SuspendStubs != 0 {
				// All three DNS variables share one switch here, so the
				// owner suspends for nothing.
				t.Errorf("owner switch %d has %d suspend stubs", id, sc.Stats.SuspendStubs)
			}
		} else {
			if sc.Stats.StateOps != 0 {
				t.Errorf("non-owner switch %d compiled %d state ops", id, sc.Stats.StateOps)
			}
			if sc.Stats.SuspendStubs == 0 {
				t.Errorf("non-owner switch %d has no suspend stubs", id)
			}
		}
	}
}

// TestBranchTargetsResolved: every branch instruction jumps to a valid pc.
func TestBranchTargetsResolved(t *testing.T) {
	cfg := dnsCampusConfig(t)
	for id, sc := range cfg.Switches {
		for pc, ins := range sc.Prog.Instrs {
			switch ins.Op {
			case netasm.OpBranchFV, netasm.OpBranchFF, netasm.OpBranchState:
				if ins.True < 0 || ins.True >= len(sc.Prog.Instrs) ||
					ins.False < 0 || ins.False >= len(sc.Prog.Instrs) {
					t.Fatalf("switch %d pc %d: dangling branch %+v", id, pc, ins)
				}
			case netasm.OpFork:
				for _, s := range ins.Seqs {
					if s < 0 || s >= len(sc.Prog.Instrs) {
						t.Fatalf("switch %d pc %d: dangling fork target", id, pc)
					}
				}
			}
		}
	}
}

// TestRouteEntriesFollowLinks: each installed (u,v) entry uses a link that
// leaves the switch it is installed on.
func TestRouteEntriesFollowLinks(t *testing.T) {
	cfg := dnsCampusConfig(t)
	entries := 0
	for _, u := range cfg.Topo.PortIDs() {
		for _, v := range cfg.Topo.PortIDs() {
			for _, h := range cfg.Routes.Pair(u, v) {
				entries++
				if cfg.Topo.Links[h.Link].From != topo.NodeID(h.Switch) {
					t.Fatalf("switch %d: pair (%d,%d) entry uses foreign link %d", h.Switch, u, v, h.Link)
				}
			}
		}
	}
	if entries == 0 {
		t.Fatal("no forwarding entry installed")
	}
}

// TestSPNextReachesEverySwitch: on the campus, a 120-switch WAN and the
// campus with one switch down, the fallback next hops route every up switch
// to every other, each hop lowering the shortest-path distance to the
// target by exactly the weight of the link it takes, so the walk is
// loop-free and shortest; toward or from the down switch they read -1.
func TestSPNextReachesEverySwitch(t *testing.T) {
	wan := topo.IGen(120, 1000)
	degraded, err := topo.Campus(1000).Degrade([]topo.NodeID{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dns := syntax.Then(apps.Assumption(6), syntax.Then(apps.DNSTunnelDetect(), apps.AssignEgress(6)))
	for _, cfg := range []*rules.Config{
		dnsCampusConfig(t),
		generate(t, syntax.Then(apps.Assumption(len(wan.Ports)), apps.AssignEgress(len(wan.Ports))), wan),
		generate(t, dns, degraded),
	} {
		net := cfg.Topo
		w := net.CapacityWeights()
		dist := net.Forest(w).Dist
		for from := 0; from < net.Switches; from++ {
			for to := 0; to < net.Switches; to++ {
				if from == to {
					continue
				}
				if !net.Up(topo.NodeID(from)) || !net.Up(topo.NodeID(to)) {
					if li := cfg.Switches[topo.NodeID(from)].SPNext[to]; li != -1 {
						t.Fatalf("%s: SPNext from %d toward %d is link %d across a down switch", net.Name, from, to, li)
					}
					continue
				}
				at := topo.NodeID(from)
				for hops := 0; at != topo.NodeID(to); hops++ {
					if hops > net.Switches {
						t.Fatalf("%s: SPNext loops from %d to %d", net.Name, from, to)
					}
					li := cfg.Switches[at].SPNext[to]
					if li < 0 {
						t.Fatalf("%s: no next hop from %d toward %d", net.Name, at, to)
					}
					next := net.Links[li].To
					if gap := dist[at][to] - w[li] - dist[next][to]; math.Abs(gap) > 1e-9 {
						t.Fatalf("%s: hop %d→%d toward %d leaves the shortest path (gap %g)", net.Name, at, next, to, gap)
					}
					at = next
				}
			}
		}
	}
}

// TestLocalPortsAssigned: OBS ports appear on their attachment switches.
func TestLocalPortsAssigned(t *testing.T) {
	cfg := dnsCampusConfig(t)
	seen := 0
	for id, sc := range cfg.Switches {
		for _, pid := range sc.LocalPorts {
			p, ok := cfg.Topo.PortByID(pid)
			if !ok || p.Switch != id {
				t.Fatalf("port %d misassigned to switch %d", pid, id)
			}
			seen++
		}
	}
	if seen != len(cfg.Topo.Ports) {
		t.Fatalf("assigned %d ports, want %d", seen, len(cfg.Topo.Ports))
	}
}

// TestDependencyOrderEqualsDepsPackage cross-checks the per-pair waypoint
// sequences against the dependency order the rules rely on.
func TestDependencyOrderEqualsDepsPackage(t *testing.T) {
	p := syntax.Then(apps.DNSTunnelDetect(), apps.AssignEgress(6))
	order := deps.OrderOf(p)
	if !(order.Before("orphan", "susp-client") && order.Before("susp-client", "blacklist")) {
		t.Fatal("paper's §4.1 order lost")
	}
}
