// The compiled fast path's public guarantees: the steady-state switch
// visit — an ingress visit, and a resume visit committing a carried write
// at its owner — costs no heap allocation, and stays that way
// (regression-pinned with testing.AllocsPerRun), and an ingress visit's
// step count does not grow with the port count. Visits run as the packet
// walk runs them: Switch.Visit on a packet copied into a reused slot. The
// same visit inside a running engine is snapmark's netasm.visit_ns row
// (benchmark/); see EXPERIMENTS.md.
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

// slotVisitor drives Switch.Visit as the packet walk does: each visit
// copies a fresh packet into one preallocated slot and runs the VM on it
// in place, reusing the result and fork buffers.
type slotVisitor struct {
	sw      *netasm.Switch
	slot    netasm.SimPacket
	results []netasm.Result
	forks   []netasm.SimPacket
}

func (v *slotVisitor) visit(sp *netasm.SimPacket) ([]netasm.Result, error) {
	v.slot, v.forks = *sp, v.forks[:0]
	var err error
	v.results, err = v.sw.Visit(v.results[:0], &v.slot, &v.forks)
	return v.results, err
}

// run visits a copy of sp and returns, beside each result, the packet it
// describes.
func run(sw *netasm.Switch, sp netasm.SimPacket) ([]netasm.Result, []netasm.SimPacket, error) {
	v := slotVisitor{sw: sw}
	rs, err := v.visit(&sp)
	sps := make([]netasm.SimPacket, len(rs))
	for i := range rs {
		sps[i] = *rs[i].Slot(&v.slot, v.forks)
	}
	return rs, sps, err
}

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
	if _, _, err := run(sw, sp); err != nil {
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
	v := slotVisitor{sw: sw}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.visit(&sp); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSwitchRunZeroAlloc pins the steady-state stateful-firewall visit at
// zero heap allocations. If this fails, something put an allocation back
// on the per-packet path — string keys, expression walks, slice clones;
// see docs/ARCHITECTURE.md ("the compiled plane") for what is allowed to
// allocate (first-insert of a state entry, multicast overflow) and what
// is not. The by-value Switch.RunAppend wrapper is pinned beside Visit.
func TestSwitchRunZeroAlloc(t *testing.T) {
	sw, sp, err := firewallVisit()
	if err != nil {
		t.Fatal(err)
	}
	v := slotVisitor{sw: sw}
	var scratch []netasm.Result
	for _, c := range []struct {
		name  string
		visit func()
	}{
		{"Visit", func() {
			if _, err := v.visit(&sp); err != nil {
				t.Fatal(err)
			}
		}},
		{"RunAppend", func() {
			rs, err := sw.RunAppend(scratch[:0], sp)
			if err != nil {
				t.Fatal(err)
			}
			scratch = rs
		}},
	} {
		c.visit() // size the scratch before measuring
		if raceEnabled {
			// Under the race detector the instrumentation itself allocates;
			// the visit still runs (exercising the scratch-reuse paths for
			// race detection), only the exact-zero assertion is skipped.
			for i := 0; i < 100; i++ {
				c.visit()
			}
			continue
		}
		if allocs := testing.AllocsPerRun(200, c.visit); allocs != 0 {
			t.Fatalf("steady-state firewall visit (%s) allocates: %v allocs/op, want 0", c.name, allocs)
		}
	}
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; zero-alloc assertion skipped")
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
		rs, sps, err := run(link(port.Switch), sp)
		if err != nil {
			return nil, netasm.SimPacket{}, err
		}
		if len(rs) != 1 || rs[0].Outcome != netasm.NeedState || sps[0].Hdr.PendingLen() != 1 {
			return nil, netasm.SimPacket{}, fmt.Errorf("ingress visit at port %d: %+v, want one copy carrying one write", port.ID, rs)
		}
		sw := link(owner)
		if _, _, err := run(sw, sps[0]); err != nil {
			return nil, netasm.SimPacket{}, err
		}
		return sw, sps[0], nil
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
	v := slotVisitor{sw: sw}
	visit := func() {
		rs, err := v.visit(&sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 1 || rs[0].Slot(&v.slot, v.forks).Hdr.PendingLen() != 0 {
			t.Fatalf("commit visit: %+v, want one copy with its write committed", rs)
		}
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

// chainVisitSteps bounds an ingress visit under assumption(n); body;
// assign-egress(n) for every n: the inport and dstip tests are one table
// lookup each, where walking them branch by branch took about n + 5 steps.
const chainVisitSteps = 8

// chainPlane compiles Assumption(n); AssignEgress(n) onto a topology with n
// ports and returns, per ingress port, the linked switch it enters at and
// the packet it enters with.
func chainPlane(n int) ([]*netasm.Switch, []netasm.SimPacket, error) {
	var t *topo.Topology
	switch n {
	case 6:
		t = topo.Campus(1000)
	case 28:
		t = topo.IGen(40, 1000)
	case 84:
		t = topo.IGen(120, 1000)
	default:
		return nil, nil, fmt.Errorf("no topology with %d ports", n)
	}
	if len(t.Ports) != n {
		return nil, nil, fmt.Errorf("topology %s has %d ports, want %d", t.Name, len(t.Ports), n)
	}
	policy := syntax.Then(apps.Assumption(n), apps.AssignEgress(n))
	comp, err := core.ColdStart(policy, t, traffic.Gravity(t, 100, 1), place.Options{Method: place.Heuristic})
	if err != nil {
		return nil, nil, err
	}
	cfg := comp.Config
	var sws []*netasm.Switch
	var sps []netasm.SimPacket
	for _, port := range t.Ports {
		sc := cfg.Switches[port.Switch]
		sws = append(sws, netasm.NewLinkedSwitch(int(port.Switch), netasm.Link(sc.Prog, cfg.VarSpace(), sc.Owns)))
		src, dst := apps.Subnet(port.ID), apps.Subnet(n+1-port.ID)
		sps = append(sps, netasm.SimPacket{
			Pkt: pkt.New(map[pkt.Field]values.Value{
				pkt.Inport: values.Int(int64(port.ID)),
				pkt.SrcIP:  values.IP(uint32(src.Num) + 1),
				pkt.DstIP:  values.IP(uint32(dst.Num) + 9),
			}),
			Hdr: netasm.Header{OBSIn: port.ID, OBSOut: -1, Node: cfg.RootID, Seq: -1, Phase: netasm.PhaseEval},
		})
	}
	return sws, sps, nil
}

// TestChainVisitSteps: with MaxSteps at one small constant, every ingress
// visit of the 6-, 28- and 84-port planes completes and picks its egress.
func TestChainVisitSteps(t *testing.T) {
	for _, n := range []int{6, 28, 84} {
		sws, sps, err := chainPlane(n)
		if err != nil {
			t.Fatal(err)
		}
		for i, sw := range sws {
			sw.MaxSteps = chainVisitSteps
			rs, out, err := run(sw, sps[i])
			if err != nil {
				t.Fatalf("n=%d, inport %d: %v", n, sps[i].Hdr.OBSIn, err)
			}
			if want := n + 1 - sps[i].Hdr.OBSIn; len(rs) != 1 || out[0].Hdr.OBSOut != want {
				t.Fatalf("n=%d, inport %d: %+v, want one copy to port %d", n, sps[i].Hdr.OBSIn, rs, want)
			}
		}
	}
}

// TestChainVisitZeroAlloc: a table lookup allocates nothing; the 84-port
// ingress visit stays at zero, as TestSwitchRunZeroAlloc's does.
func TestChainVisitZeroAlloc(t *testing.T) {
	sws, sps, err := chainPlane(84)
	if err != nil {
		t.Fatal(err)
	}
	v, sp := slotVisitor{sw: sws[len(sws)-1]}, sps[len(sps)-1]
	visit := func() {
		if _, err := v.visit(&sp); err != nil {
			t.Fatal(err)
		}
	}
	visit()
	if raceEnabled {
		for i := 0; i < 100; i++ {
			visit()
		}
		t.Skip("race detector instrumentation allocates; zero-alloc assertion skipped")
	}
	if allocs := testing.AllocsPerRun(200, visit); allocs != 0 {
		t.Fatalf("84-port ingress visit allocates: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkChainVisit measures one visit through a run of L exact-int
// tests on inport, the packets taking each member's true edge in turn:
// below the link step's cut-off the VM walks the branches, at and above it
// the run is one table lookup. The lengths around the cut-off are the
// measurement that sets it.
func BenchmarkChainVisit(b *testing.B) {
	for _, l := range []int{2, 3, 4, 5, 6, 8, 10, 12, 16, 28, 84} {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			p := &netasm.Program{EntryOf: map[int]int{0: 0}}
			for i := 0; i < l; i++ {
				p.Instrs = append(p.Instrs, netasm.Instr{Op: netasm.OpBranchFV, Field: pkt.Inport,
					Val: values.Int(int64(i + 1)), True: l + 2*i, False: i + 1})
			}
			p.Instrs[l-1].False = l + 2*l
			for i := 0; i <= l; i++ {
				p.Instrs = append(p.Instrs,
					netasm.Instr{Op: netasm.OpSetField, Field: pkt.Outport, Val: values.Int(int64(i + 1)), Next: l + 2*i + 1},
					netasm.Instr{Op: netasm.OpFinish})
			}
			v := slotVisitor{sw: netasm.NewSwitch(0, p, nil)}
			sps := make([]netasm.SimPacket, l)
			for i := range sps {
				sps[i] = netasm.SimPacket{
					Pkt: pkt.New(map[pkt.Field]values.Value{pkt.Inport: values.Int(int64(i + 1))}),
					Hdr: netasm.Header{OBSIn: i + 1, OBSOut: -1, Seq: -1, Phase: netasm.PhaseEval},
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.visit(&sps[i%l]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLink links every program of a ctl-enterprise-shaped plane
// (Stanford at half its ports, 72 of them, under assumption; DNS-tunnel
// detection; assign-egress) against the plane's variable space: the link
// step's share of P6.
func BenchmarkLink(b *testing.B) {
	t, err := topo.Named("Stanford", 1000, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	dns, ok := apps.ByName("dns-tunnel-detect")
	if !ok {
		b.Fatal("dns-tunnel-detect app missing")
	}
	n := len(t.Ports)
	policy := syntax.Then(apps.Assumption(n), syntax.Then(dns.MustPolicy(), apps.AssignEgress(n)))
	comp, err := core.ColdStart(policy, t, traffic.Gravity(t, 100, 1), place.Options{Method: place.Heuristic})
	if err != nil {
		b.Fatal(err)
	}
	cfg := comp.Config
	vs := cfg.VarSpace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range cfg.Switches {
			linkSink = netasm.Link(sc.Prog, vs, sc.Owns)
		}
	}
}

// linkSink keeps BenchmarkLink's images live, so the compiler cannot drop
// the calls.
var linkSink *netasm.Linked
