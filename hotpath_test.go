// The compiled fast path's public guarantees: the steady-state switch
// visit — an ingress visit, and a resume visit committing a carried write
// at its owner — costs no heap allocation, and stays that way
// (regression-pinned with testing.AllocsPerRun). The same visit inside a running engine is
// snapmark's netasm.visit_ns row (benchmark/); see EXPERIMENTS.md.
package snap_test

import (
	"fmt"
	"testing"

	"snap/internal/apps"
	"snap/internal/core"
	"snap/internal/netasm"
	"snap/internal/pkt"
	"snap/internal/place"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// firewallVisit builds the steady-state stateful-firewall visit: the
// switch owning the firewall's state, warmed with the flow's entry, and
// an inside→outside packet whose visit re-writes that entry and assigns
// the egress — the per-packet work of §5's compiled plane with zero
// suspends.
func firewallVisit() (*netasm.Switch, netasm.SimPacket, error) {
	t := topo.Campus(1000)
	tm := traffic.Gravity(t, 100, 1)
	fw, ok := apps.ByName("stateful-firewall")
	if !ok {
		return nil, netasm.SimPacket{}, fmt.Errorf("stateful-firewall app missing")
	}
	policy := syntax.Then(
		apps.Assumption(6),
		syntax.Then(fw.MustPolicy(), apps.AssignEgress(6)),
	)
	comp, err := core.ColdStart(policy, t, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		return nil, netasm.SimPacket{}, err
	}
	cfg := comp.Config
	owner, ok := cfg.Placement["established"]
	if !ok {
		return nil, netasm.SimPacket{}, fmt.Errorf("no placement for established")
	}
	sc := cfg.Switches[owner]
	sw := netasm.NewLinkedSwitch(int(owner), netasm.Link(sc.Prog, cfg.VarSpace(), sc.Owns))

	p := pkt.New(map[pkt.Field]values.Value{
		pkt.Inport:  values.Int(6),
		pkt.SrcIP:   values.IPv4(10, 0, 6, 1),
		pkt.DstIP:   values.IPv4(10, 0, 2, 9),
		pkt.SrcPort: values.Int(4242),
		pkt.DstPort: values.Int(80),
	})
	sp := netasm.SimPacket{
		Pkt: p,
		Hdr: netasm.Header{
			OBSIn:  6,
			OBSOut: -1,
			Node:   cfg.RootID,
			Seq:    -1,
			Phase:  netasm.PhaseEval,
		},
	}
	// Warm the flow entry so the measured visit overwrites in place (the
	// steady state) instead of inserting.
	if _, err := sw.Run(sp); err != nil {
		return nil, netasm.SimPacket{}, err
	}
	return sw, sp, nil
}

// BenchmarkSwitchRun measures one steady-state stateful-firewall visit on
// the switch owning the firewall state: the full per-packet work of the
// compiled plane — branch dispatch, dense state read/overwrite, egress
// assignment — with the engine stripped away.
func BenchmarkSwitchRun(b *testing.B) {
	sw, sp, err := firewallVisit()
	if err != nil {
		b.Fatal(err)
	}
	var scratch []netasm.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := sw.RunAppend(scratch[:0], sp)
		if err != nil {
			b.Fatal(err)
		}
		scratch = rs
	}
}

// TestSwitchRunZeroAlloc pins the steady-state stateful-firewall visit at
// zero heap allocations. If this fails, something put an allocation back
// on the per-packet path — string keys, expression walks, slice clones;
// see docs/ARCHITECTURE.md ("the compiled plane") for what is allowed to
// allocate (first-insert of a state entry, multicast overflow) and what
// is not.
func TestSwitchRunZeroAlloc(t *testing.T) {
	sw, sp, err := firewallVisit()
	if err != nil {
		t.Fatal(err)
	}
	var scratch []netasm.Result
	visit := func() {
		rs, err := sw.RunAppend(scratch[:0], sp)
		if err != nil {
			t.Fatal(err)
		}
		scratch = rs
	}
	visit() // size the scratch before measuring
	if raceEnabled {
		// Under the race detector the instrumentation itself allocates;
		// the visit still runs (exercising the scratch-reuse paths for
		// race detection), only the exact-zero assertion is skipped.
		for i := 0; i < 100; i++ {
			visit()
		}
		t.Skip("race detector instrumentation allocates; zero-alloc assertion skipped")
	}
	if allocs := testing.AllocsPerRun(200, visit); allocs != 0 {
		t.Fatalf("steady-state firewall visit allocates: %v allocs/op, want 0", allocs)
	}
}

// commitVisit builds the steady-state resume visit of the campus monitor
// (count[inport]++): the packet as the ingress switch hands it on, carrying
// its resolved write, and the switch owning count, warmed with the entry so
// the measured commit updates it in place.
func commitVisit() (*netasm.Switch, netasm.SimPacket, error) {
	t := topo.Campus(1000)
	tm := traffic.Gravity(t, 100, 1)
	policy := syntax.Then(
		apps.Assumption(6),
		syntax.Then(apps.Monitor(), apps.AssignEgress(6)),
	)
	comp, err := core.ColdStart(policy, t, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		return nil, netasm.SimPacket{}, err
	}
	cfg := comp.Config
	link := func(id topo.NodeID) *netasm.Switch {
		sc := cfg.Switches[id]
		return netasm.NewLinkedSwitch(int(id), netasm.Link(sc.Prog, cfg.VarSpace(), sc.Owns))
	}
	owner := cfg.Placement["count"]
	for _, port := range t.Ports {
		if port.Switch == owner {
			continue
		}
		sp := netasm.SimPacket{
			Pkt: pkt.New(map[pkt.Field]values.Value{
				pkt.Inport: values.Int(int64(port.ID)),
				pkt.SrcIP:  values.IPv4(10, 0, byte(port.ID), 1),
				pkt.DstIP:  values.IPv4(10, 0, 6, 9),
			}),
			Hdr: netasm.Header{OBSIn: port.ID, OBSOut: -1, Node: cfg.RootID, Seq: -1, Phase: netasm.PhaseEval},
		}
		rs, err := link(port.Switch).Run(sp)
		if err != nil {
			return nil, netasm.SimPacket{}, err
		}
		if len(rs) != 1 || rs[0].Outcome != netasm.NeedState || rs[0].Packet.Hdr.PendingLen() != 1 {
			return nil, netasm.SimPacket{}, fmt.Errorf("ingress visit at port %d: %+v, want one copy carrying one write", port.ID, rs)
		}
		sw := link(owner)
		if _, err := sw.Run(rs[0].Packet); err != nil {
			return nil, netasm.SimPacket{}, err
		}
		return sw, rs[0].Packet, nil
	}
	return nil, netasm.SimPacket{}, fmt.Errorf("every port hangs off count's owner")
}

// TestCommitVisitZeroAlloc pins the resume visit that commits a carried
// write at its owner (commitLocal, narrow index, entry present) at zero
// heap allocations: the owner finds the variable by id, not by name.
func TestCommitVisitZeroAlloc(t *testing.T) {
	sw, sp, err := commitVisit()
	if err != nil {
		t.Fatal(err)
	}
	var scratch []netasm.Result
	visit := func() {
		rs, err := sw.RunAppend(scratch[:0], sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 1 || rs[0].Packet.Hdr.PendingLen() != 0 {
			t.Fatalf("commit visit: %+v, want one copy with its write committed", rs)
		}
		scratch = rs
	}
	visit()
	if raceEnabled {
		for i := 0; i < 100; i++ {
			visit()
		}
		t.Skip("race detector instrumentation allocates; zero-alloc assertion skipped")
	}
	if allocs := testing.AllocsPerRun(200, visit); allocs != 0 {
		t.Fatalf("steady-state commit visit allocates: %v allocs/op, want 0", allocs)
	}
}
