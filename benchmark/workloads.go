// The four workloads. Each fixes a topology, a policy body and a traffic
// shape; every workload measures every end-to-end metric, and differs in
// which layer carries the cost (see README.md for the table).
package main

import (
	"fmt"

	"snap/internal/topo"
)

// ops are how many control-plane operations a 20 s window holds; other
// windows scale them. They are counts, not time boxes, because the cost of an
// edit depends on how many edits the lineage has already absorbed (its caches
// only grow): a count set by the clock would make a faster build measure
// later, slower edits.
type ops struct {
	cold, edit, shift int
}

type spec struct {
	name, why string
	// build makes the topology; small selects the reduced size the smoke
	// tests run.
	build func(small bool) (*topo.Topology, error)
	// body is the stateful middle of the policy ("" = stateless), dns
	// whether the trace carries the DNS exchanges that drive it.
	body string
	dns  bool
	// packets is the trace length, which is also the trial length: one
	// trial is one pass of the whole trace over warm state. warm is how many
	// of them populate the control-plane engine before edits and shifts.
	packets, warm int
	// oracle is how many leading trace packets are checked one by one
	// against the semantics.
	oracle int
	// packetShare is the fraction of -seconds the packet rows run for, in
	// rounds. Their cost does not depend on what ran before, so the clock
	// decides how many rounds fit.
	packetShare float64
	ops         ops
}

const (
	linkCapacity = 1000
	totalDemand  = 100
	// matrixSeed fixes the gravity matrix a workload is compiled for. It is
	// deliberately not -seed: on six ports the exponential gravity weights
	// move hops per packet and the stateful share by tens of percent between
	// seeds, which would make the workload a different workload per seed.
	// -seed drives what is sampled from the matrix, not its shape.
	matrixSeed = 1
	// hostsPerSubnet bounds host bytes: 32×32 address pairs per port pair,
	// few enough that one pass of a trace all but fills the firewall's table
	// (about 5 000 entries). State then stops growing, so the swap every edit
	// and shift pays migrates the same number of entries each time.
	hostsPerSubnet = 32
	// shiftPackets is how many drifted packets precede each matrix shift.
	shiftPackets = 3000
	// refSeconds is the window the ops counts are stated for.
	refSeconds = 20
)

var specs = []*spec{
	{
		name: "fwd-campus",
		why:  "short paths, state tests beside writes beside counters, owner detours and policy drops: netasm visits and state tables carry the packet cost",
		build: func(bool) (*topo.Topology, error) {
			return topo.NewCampus(linkCapacity)
		},
		body:        firewallSrc,
		packets:     120000,
		warm:        50000,
		oracle:      20000,
		packetShare: 0.78,
		ops:         ops{cold: 60, edit: 90, shift: 90},
	},
	{
		name: "fwd-wan",
		why:  "40-switch WAN, stateless policy, about 5.5 hops and no suspends: bare forwarding, where a state or VM change predicts no change",
		build: func(small bool) (*topo.Topology, error) {
			if small {
				return topo.NewIGen(16, linkCapacity)
			}
			return topo.NewIGen(40, linkCapacity)
		},
		packets:     100000,
		warm:        50000,
		oracle:      20000,
		packetShare: 0.78,
		ops:         ops{cold: 50, edit: 30, shift: 90},
	},
	{
		name: "ctl-enterprise",
		why:  "Stanford at half its ports (26 switches, 72 ports) under the Table 6 DNS-tunnel policy: port-heavy, xfdd and psmap carry cold start and edit",
		build: func(small bool) (*topo.Topology, error) {
			if small {
				return topo.Named("Stanford", linkCapacity, 0.1)
			}
			return topo.Named("Stanford", linkCapacity, 0.5)
		},
		body:        dnsTunnelSrc,
		dns:         true,
		packets:     60000,
		warm:        50000,
		oracle:      4000,
		packetShare: 0.45,
		ops:         ops{cold: 14, edit: 10, shift: 30},
	},
	{
		name: "ctl-wan",
		why:  "120-switch IGen WAN, same policy and operation mix: switch-heavy, placement, rule generation, link and swap become visible and shifts bypass xfdd",
		build: func(small bool) (*topo.Topology, error) {
			if small {
				return topo.NewIGen(24, linkCapacity)
			}
			return topo.NewIGen(120, linkCapacity)
		},
		body:        dnsTunnelSrc,
		dns:         true,
		packets:     30000,
		warm:        30000,
		oracle:      4000,
		packetShare: 0.40,
		ops:         ops{cold: 10, edit: 8, shift: 16},
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
