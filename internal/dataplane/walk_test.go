package dataplane_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"snap/internal/apps"
	"snap/internal/core"
	"snap/internal/dataplane"
	"snap/internal/faultpoint"
	"snap/internal/netasm"
	"snap/internal/pkt"
	"snap/internal/place"
	"snap/internal/rules"
	"snap/internal/semantics"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/telemetry"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// compileLine compiles the stateless forwarding policy onto a line of six
// switches, 0-1-2-3-4-5, with port 1 at switch 0, port 2 at switch 5 and
// port 3 at switch 2: a packet from port 1 to port 2 crosses the four
// transit switches 1, 2, 3, 4 in five hops.
func compileLine(t *testing.T) *rules.Config {
	t.Helper()
	var links []topo.Link
	for n := topo.NodeID(0); n < 5; n++ {
		links = append(links, topo.Link{From: n, To: n + 1, Capacity: 1000}, topo.Link{From: n + 1, To: n, Capacity: 1000})
	}
	tp, err := topo.New("line", 6, links, []topo.Port{{ID: 1, Switch: 0}, {ID: 2, Switch: 5}, {ID: 3, Switch: 2}})
	if err != nil {
		t.Fatal(err)
	}
	policy := syntax.Then(apps.Assumption(3), apps.AssignEgress(3))
	comp, err := core.ColdStart(policy, tp, traffic.Gravity(tp, 100, 1), place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	return comp.Config
}

// linePacket is a packet of the line workload entering at port u for port v.
func linePacket(u, v int) dataplane.Ingress {
	return dataplane.Ingress{Port: u, Packet: pkt.New(map[pkt.Field]values.Value{
		pkt.Inport: values.Int(int64(u)),
		pkt.SrcIP:  values.IPv4(10, 0, byte(u), 7),
		pkt.DstIP:  values.IPv4(10, 0, byte(v), 7),
	})}
}

// TestTransitNeverEntersVM: a packet whose evaluation is finished is
// forwarded, not executed. With every switch-VM run after the first armed
// to panic, a stateless packet still crosses its four transit switches and
// is delivered, on the Network and on the engine: one VM run (the ingress
// visit), six switches reached, nobody quarantined.
func TestTransitNeverEntersVM(t *testing.T) {
	cfg := compileLine(t)
	t.Cleanup(faultpoint.Reset)
	arm := func() {
		faultpoint.Enable(faultpoint.EngineRun, faultpoint.Plan{Kind: faultpoint.KindPanic, After: 1, Times: -1})
	}
	check := func(name string, ds []dataplane.Delivery, st dataplane.Stats) {
		t.Helper()
		if len(ds) != 1 || ds[0].Port != 2 {
			t.Fatalf("%s: deliveries %v, want one at port 2", name, ds)
		}
		if st.Hops != 5 || st.Dropped != 0 || st.ContainedPanics != 0 {
			t.Fatalf("%s: hops=%d dropped=%d contained panics=%d, want 5, 0, 0", name, st.Hops, st.Dropped, st.ContainedPanics)
		}
	}

	arm()
	net := dataplane.New(cfg)
	in := linePacket(1, 2)
	ds, err := net.Inject(in.Port, in.Packet)
	if err != nil {
		t.Fatal(err)
	}
	check("network", ds, net.Stats())

	eng := dataplane.NewEngine(cfg, dataplane.Options{Workers: 2})
	defer eng.Close()
	arm()
	out, err := eng.InjectBatch([]dataplane.Ingress{in})
	if err != nil {
		t.Fatal(err)
	}
	check("engine", out[0], eng.Stats())
	if q := eng.QuarantinedSwitches(); len(q) != 0 {
		t.Fatalf("switches %v quarantined by a packet in transit", q)
	}
	var ran, processed int64
	for _, l := range eng.Load() {
		ran, processed = ran+l.Ran, processed+l.Processed
	}
	if ran != 1 || processed != 6 {
		t.Fatalf("%d VM runs and %d switches reached, want 1 and 6 (hops + 1)", ran, processed)
	}
}

// TestForwardFailuresInTransit pins how a copy lost in transit is
// accounted, at the second of the line's four transit switches (switch 2):
// the switch is down, its link onward is dead, or it is quarantined. The
// packet has taken two hops (0→1, 1→2) in every case and is dropped at
// switch 2 under its (1, 2) cell of the observed matrix; a dead link is met
// after the switch was reached, the other two before. The figures are what
// the walk accounted when every hop was a VM visit.
func TestForwardFailuresInTransit(t *testing.T) {
	cfg := compileLine(t)
	t.Cleanup(faultpoint.Reset)
	type load = map[topo.NodeID]dataplane.SwitchLoad
	cases := []struct {
		name   string
		break_ func(*testing.T, *dataplane.Engine)
		reason dataplane.DropReason
		hop    string
		load   load
	}{
		{"switch down", func(t *testing.T, e *dataplane.Engine) {
			if err := e.FailSwitch(2); err != nil {
				t.Fatal(err)
			}
		}, dataplane.DropDownSwitch, "drop:down_switch",
			load{0: {Processed: 1, Ran: 1, Forwarded: 1}, 1: {Processed: 1, Forwarded: 1}}},
		{"link dead", func(t *testing.T, e *dataplane.Engine) {
			if err := e.FailLink(2, 3); err != nil {
				t.Fatal(err)
			}
		}, dataplane.DropDeadLink, "drop:dead_link",
			load{0: {Processed: 1, Ran: 1, Forwarded: 1}, 1: {Processed: 1, Forwarded: 1}, 2: {Processed: 1}}},
		{"switch quarantined", func(t *testing.T, e *dataplane.Engine) {
			// A packet entering at switch 2 (port 3) panics its VM.
			faultpoint.Enable(faultpoint.EngineRun, faultpoint.Plan{Kind: faultpoint.KindPanic, Times: 1})
			if _, err := e.InjectBatch([]dataplane.Ingress{linePacket(3, 2)}); err != nil {
				t.Fatal(err)
			}
			if q := e.QuarantinedSwitches(); !slices.Equal(q, []topo.NodeID{2}) {
				t.Fatalf("quarantined %v, want switch 2", q)
			}
		}, dataplane.DropQuarantine, "drop:quarantine",
			load{0: {Processed: 1, Ran: 1, Forwarded: 1}, 1: {Processed: 1, Forwarded: 1}, 2: {Processed: 1, Ran: 1}}},
	}
	for _, tc := range cases {
		eng := dataplane.NewEngine(cfg, dataplane.Options{Workers: 2, TraceSampling: 1})
		defer eng.Close()
		tc.break_(t, eng)
		before := eng.Stats()
		eng.ResetObserved()
		out, err := eng.InjectBatch([]dataplane.Ingress{linePacket(1, 2)})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st := eng.Stats()
		if len(out[0]) != 0 || st.Delivered != before.Delivered {
			t.Fatalf("%s: delivered %v across the failure", tc.name, out[0])
		}
		if got := st.Hops - before.Hops; got != 2 {
			t.Errorf("%s: %d hops, want 2", tc.name, got)
		}
		if d, r := st.Dropped-before.Dropped, st.Drops[tc.reason]-before.Drops[tc.reason]; d != 1 || r != 1 {
			t.Errorf("%s: %d dropped, %d of them %v; want 1 and 1", tc.name, d, r, tc.reason)
		}
		var sum int64
		for _, n := range st.Drops {
			sum += n
		}
		if sum != st.Dropped || st.QuarantineDrops != st.Drops[dataplane.DropQuarantine] {
			t.Errorf("%s: reasons %v do not sum to Dropped=%d (QuarantineDrops=%d)", tc.name, st.Drops, st.Dropped, st.QuarantineDrops)
		}
		if m := eng.ObservedMatrix(); len(m) != 1 || m[[2]int{1, 2}] != 1 {
			t.Errorf("%s: observed matrix %v, want the one drop under (1, 2)", tc.name, m)
		}
		got := load{}
		for id, l := range eng.Load() {
			if l != (dataplane.SwitchLoad{}) {
				got[id] = l
			}
		}
		if !maps.Equal(got, tc.load) {
			t.Errorf("%s: per-switch load %v, want %v", tc.name, got, tc.load)
		}
		traces := eng.Telemetry().Snapshot().Traces
		want := []telemetry.HopRecord{
			{Switch: 0, Outcome: "forward", Egress: 2},
			{Switch: 1, Outcome: "forward", Egress: 2},
			{Switch: 2, Outcome: tc.hop, Egress: 2},
		}
		if last := traces[len(traces)-1]; !slices.Equal(last.Hops, want) {
			t.Errorf("%s: traced hops %v, want %v", tc.name, last.Hops, want)
		}
	}
}

// TestWalkQueueStaysShort guards the packet-copy cost of the walk. A
// SimPacket is 1 104 bytes, so a walk that keeps every hop of an injection
// in its queue pays for it on long paths (+20 % ns_per_packet on the
// benchmark's 5.5-hop fwd-wan workload when tried). The VM runs each copy
// in its queue slot, where a copy that travels on stays, and the trace
// here is stateless unicast on the same kind of network, so the queue
// never holds more than that one slot: after the replay the inline
// walker's capacity must still be at most 2.
func TestWalkQueueStaysShort(t *testing.T) {
	tp, err := topo.NewIGen(40, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ports := len(tp.Ports)
	tm := traffic.Gravity(tp, 100, 1)
	policy := syntax.Then(apps.Assumption(ports), apps.AssignEgress(ports))
	comp, err := core.ColdStart(policy, tp, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 1})
	defer eng.Close()
	if err := eng.InjectReplay(trace(tm, 2000, 5)); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Delivered != st.Injected || st.Hops < 5*st.Injected {
		t.Fatalf("%d of %d delivered over %d hops; the trace must be unicast over ≥ 5 hops a packet",
			st.Delivered, st.Injected, st.Hops)
	}
	if c := eng.WalkQueueCap(); c < 1 || c > 2 {
		t.Errorf("walk queue capacity %d after a unicast trace, want the one in use at 1 or 2", c)
	}
}

// TestFabricCountersOffHotLines pins the fabric's layout. arrive reads
// maxHops and the failure flags on every hop, while the injector writes
// stats.injected once a run and every walker writes the other counters at
// fold, and the observed matrix's mutex is taken once a run: with both on
// one cache line, each of those writes costs every walking core a miss. A
// full line must lie between the hop-read fields and the counters, and
// between the counters and the matrix.
func TestFabricCountersOffHotLines(t *testing.T) {
	const line = 64
	if gap := dataplane.FabricCounters[0] - dataplane.FabricHotEnd; gap < line {
		t.Errorf("counters start %d bytes after the last hop-read field, want at least %d", gap, line)
	}
	if gap := dataplane.FabricObserved - dataplane.FabricCounters[1]; gap < line {
		t.Errorf("observed matrix starts %d bytes after the counters, want at least %d", gap, line)
	}
}

// TestInjectBatchOfOneAllocs bounds what one collected round trip
// allocates, the other half of the same cost: with the walker's memory
// held by the engine and deliveries compared instead of keyed, a warmed
// single-packet InjectBatch on the campus monitor allocates its results
// and little else (5 when written; 30 with a per-call scratch, a seen-map
// and Packet.Key strings).
func TestInjectBatchOfOneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise clean paths")
	}
	comp, _, tm := compileCampus(t, 1)
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 1})
	defer eng.Close()
	one := trace(tm, 1, 3)
	inject := func() {
		if _, err := eng.InjectBatch(one); err != nil {
			t.Fatal(err)
		}
	}
	inject()
	if n := testing.AllocsPerRun(200, inject); n > 8 {
		t.Fatalf("InjectBatch of one packet allocates %.0f times, want at most 8", n)
	}
}

// TestDeadLinkFollowsThePlane: the walk reads a link's failure from a flag
// on the plane, by link index, so the flag has to follow the failure across
// plane epochs: a link failed under traffic drops from then on, still drops
// after a swap onto a fresh plane, and carries again once Recover names it.
func TestDeadLinkFollowsThePlane(t *testing.T) {
	cfg := compileLine(t)
	eng := dataplane.NewEngine(cfg, dataplane.Options{Workers: 2})
	defer eng.Close()
	delivered := func() int64 {
		t.Helper()
		before := eng.Stats().Delivered
		if _, err := eng.InjectBatch([]dataplane.Ingress{linePacket(1, 2)}); err != nil {
			t.Fatal(err)
		}
		return eng.Stats().Delivered - before
	}

	if n := delivered(); n != 1 {
		t.Fatalf("%d delivered over the healthy line, want 1", n)
	}
	ch, done := make(chan dataplane.Ingress), make(chan error, 1)
	go func() { done <- eng.InjectStream(ch) }()
	for i := 0; i < 200; i++ {
		if i == 100 {
			if err := eng.FailLink(3, 2); err != nil {
				t.Fatal(err)
			}
		}
		ch <- linePacket(1, 2)
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Packets admitted before the failure may still be short of the link.
	if st := eng.Stats(); st.Drops[dataplane.DropDeadLink] < 100 || st.Delivered+st.Drops[dataplane.DropDeadLink] != 201 {
		t.Fatalf("link failed after 100 of 200 packets: %d delivered, %d dropped at it", st.Delivered, st.Drops[dataplane.DropDeadLink])
	}
	if err := eng.ApplyConfig(cfg, nil); err != nil {
		t.Fatal(err)
	}
	if n := delivered(); n != 0 {
		t.Fatal("the swap revived a failed link")
	}
	if _, err := eng.Recover(cfg, nil, nil, [][2]topo.NodeID{{2, 3}}); err != nil {
		t.Fatal(err)
	}
	if n := delivered(); n != 1 {
		t.Fatal("the recovered link still drops")
	}
	if _, err := eng.Recover(cfg, nil, nil, [][2]topo.NodeID{{2, 3}}); err == nil {
		t.Fatal("Recover accepted a link that is not failed")
	}
}

// TestTwoWriteReplayAllocs: a campus packet from the protected subnet
// resolves two remote writes, the firewall's established[srcip][dstip] and
// the monitor's count[inport]++, and spills past the SNAP-header's one
// inline pending slot. The walk's entry slot keeps the spill's storage
// across injections, so a warmed replay allocates nothing per packet: what
// it allocates stays within its per-call bookkeeping however many packets
// spill.
func TestTwoWriteReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise clean paths")
	}
	tp := topo.Campus(1000)
	tm := traffic.Gravity(tp, 100, 1)
	fw, ok := apps.ByName("stateful-firewall")
	if !ok {
		t.Fatal("stateful-firewall app missing")
	}
	comp, err := core.ColdStart(campusWorkload(syntax.Then(fw.MustPolicy(), apps.Monitor())), tp, tm,
		place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	cfg := comp.Config
	in, _ := tp.PortByID(6)
	if cfg.Placement["established"] == in.Switch || cfg.Placement["count"] == in.Switch {
		t.Fatalf("port 6's switch %d owns a written variable (%v): its packets do not carry two writes", in.Switch, cfg.Placement)
	}
	tr := trace(tm, 1000, 9)
	spills := 0
	for _, ing := range tr {
		if ing.Port == 6 {
			spills++
		}
	}
	if spills < 100 {
		t.Fatalf("%d of %d packets enter at port 6, want ≥ 100", spills, len(tr))
	}
	eng := dataplane.NewEngine(cfg, dataplane.Options{Workers: 1, Window: 256})
	defer eng.Close()
	replay := func() {
		if err := eng.InjectReplay(tr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ { // insert every state key, size every pool
		replay()
	}
	if n := testing.AllocsPerRun(20, replay); n > 50 {
		t.Fatalf("warmed replay of %d packets, %d spilling a write, allocates %.0f times, want per-call bookkeeping only (≤ 50)", len(tr), spills, n)
	}
}

// TestForkCopiesSuspendPastTheSlot: a leaf that multicasts every packet into
// two copies, each carrying its own write to a variable owned away from the
// edge, emits two suspended copies from one visit. The first travels on in
// the visited slot and the second past it, so the walk queue must grow to
// two; every injection's deliveries, and the state after it, equal
// semantics.Eval's.
func TestForkCopiesSuspendPastTheSlot(t *testing.T) {
	netw := topo.Campus(1000)
	p := syntax.Then(apps.Assumption(6), syntax.Par(
		syntax.Then(syntax.IncrState("s", syntax.F(pkt.SrcIP)), syntax.Assign(pkt.Outport, values.Int(5))),
		syntax.Then(syntax.IncrState("t", syntax.F(pkt.DstIP)), syntax.Assign(pkt.Outport, values.Int(6))),
	))
	plane, _ := deploy(t, p, netw, map[string]topo.NodeID{"s": 8, "t": 11})
	eng := dataplane.NewEngine(plane.Config(), dataplane.Options{Workers: 1})
	defer eng.Close()

	rng := rand.New(rand.NewSource(5))
	ref := state.NewStore()
	for i := 0; i < 200; i++ {
		port, pk := campusPacket(rng)
		want, err := semantics.Eval(p, ref, pk)
		if err != nil {
			t.Fatal(err)
		}
		ref = want.Store
		wantKeys := make([]string, 0, len(want.Packets))
		for _, wp := range want.Packets {
			wantKeys = append(wantKeys, fmt.Sprintf("%d|%s", wp.Field(pkt.Outport).Num, wp.Key()))
		}
		slices.Sort(wantKeys)
		for name, inject := range map[string]func() ([]dataplane.Delivery, error){
			"network": func() ([]dataplane.Delivery, error) { return plane.Inject(port, pk) },
			"engine": func() ([]dataplane.Delivery, error) {
				got, err := eng.InjectBatch([]dataplane.Ingress{{Port: port, Packet: pk}})
				return got[0], err
			},
		} {
			got, err := inject()
			if err != nil {
				t.Fatalf("%s, packet %d: %v", name, i, err)
			}
			if keys := sortedKeys(got); len(want.Packets) != 2 || !slices.Equal(keys, wantKeys) {
				t.Fatalf("%s, packet %d: deliveries %v, want %v", name, i, keys, wantKeys)
			}
		}
		if !plane.GlobalState().Equal(ref) || !eng.GlobalState().Equal(ref) {
			t.Fatalf("packet %d: state\nnetwork %s\nengine %s\nwant %s", i, plane.GlobalState(), eng.GlobalState(), ref)
		}
	}
	if st := eng.Stats(); st.Suspends < 2*st.Injected {
		t.Fatalf("%d suspends over %d injections: each copy must suspend toward its owner", st.Suspends, st.Injected)
	}
	if c := eng.WalkQueueCap(); c < 2 {
		t.Errorf("walk queue capacity %d, want the second suspended copy queued past the visited slot", c)
	}
}

// TestVMPanicDropsUnderPreRunPorts: the VM runs on the walk's queue slot in
// place, so a panic mid-program leaves that packet half-run. The copy is
// still dropped and counted, and under the ports the visit read before the
// run. The firewall and monitor both live on switch 8, which the hook
// there makes panic at its next state write: for a reply entering at port
// 1, the local count[inport]++ after the established test (the copy has no
// outport yet); for a packet from port 1 to port 2, committing its carried
// count write in the delivery phase (outport 2). The probe panics mid-run:
// two packets that the assumption drops at their ingress walk before it,
// and two that the quarantine drops after it, and the run still publishes
// every drop in Stats.Drops and the observed matrix.
func TestVMPanicDropsUnderPreRunPorts(t *testing.T) {
	tp := topo.Campus(1000)
	tm := traffic.Gravity(tp, 100, 1)
	fw, ok := apps.ByName("stateful-firewall")
	if !ok {
		t.Fatal("stateful-firewall app missing")
	}
	comp, err := core.ColdStart(campusWorkload(syntax.Then(fw.MustPolicy(), apps.Monitor())), tp, tm,
		place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	const owner = topo.NodeID(8)
	if pl := comp.Config.Placement; pl["established"] != owner || pl["count"] != owner {
		t.Fatalf("placement %v, want established and count on switch %d", pl, owner)
	}
	packet := func(in, src, dst int) dataplane.Ingress {
		return dataplane.Ingress{Port: in, Packet: pkt.New(map[pkt.Field]values.Value{
			pkt.Inport: values.Int(int64(in)),
			pkt.SrcIP:  values.IPv4(10, 0, byte(src), 1),
			pkt.DstIP:  values.IPv4(10, 0, byte(dst), 1),
		})}
	}
	for _, c := range []struct {
		name  string
		probe dataplane.Ingress
		out   int
	}{
		{"mid-program", packet(1, 1, 6), -1},
		{"delivery-phase commit", packet(1, 1, 2), 2},
	} {
		eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 1})
		// The inside host opens the flow the probe's reply needs.
		if _, err := eng.InjectBatch([]dataplane.Ingress{packet(6, 6, 1)}); err != nil {
			t.Fatal(err)
		}
		eng.HookStateWrites(owner, func(netasm.PendingWrite) { panic("state-write observer") })
		before := eng.Stats()
		// One run: port 3's subnet is 3, so a source in subnet 4 fails the
		// assumption at switch 2, before any state is touched.
		run := []dataplane.Ingress{packet(3, 4, 6), packet(3, 4, 6), c.probe, packet(6, 6, 1), packet(6, 6, 1)}
		if err := eng.InjectReplay(run); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		st := eng.Stats()
		policy := st.Drops[dataplane.DropPolicy] - before.Drops[dataplane.DropPolicy]
		if st.Delivered != before.Delivered || st.ContainedPanics != 1 || policy != 2 ||
			st.Dropped-before.Dropped != 5 || st.QuarantineDrops != 3 || st.Drops[dataplane.DropQuarantine] != 3 {
			t.Errorf("%s: %d delivered, %d contained panics, %d dropped (%d by policy), %d quarantine drops; want 0, 1, 5 (2), 3",
				c.name, st.Delivered-before.Delivered, st.ContainedPanics, st.Dropped-before.Dropped, policy, st.QuarantineDrops)
		}
		key := [2]int{c.probe.Port, c.out}
		if n := eng.ObservedMatrix()[key]; n != 1 {
			t.Errorf("%s: %v observed under %v, want the drop counted there once", c.name, n, key)
		}
		if n := eng.DropsByIngress()[c.probe.Port]; n != 1 {
			t.Errorf("%s: %d drops at port %d, want the probe's one", c.name, n, c.probe.Port)
		}
		eng.Close()
	}
}
