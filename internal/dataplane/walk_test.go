package dataplane_test

import (
	"slices"
	"testing"

	"snap/internal/apps"
	"snap/internal/core"
	"snap/internal/dataplane"
	"snap/internal/place"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
)

// TestWalkQueueStaysShort guards the packet-copy cost of the walk. A
// SimPacket is 1 120 bytes, so a walk that keeps every hop of an injection
// in its queue pays for it on long paths (+20 % ns_per_packet on the
// benchmark's 5.5-hop fwd-wan workload when tried). The trace here is
// stateless unicast on the same kind of network, so the queue never needs
// to hold more than the one continuation: after the replay its capacity
// must still be at most 2, on the inline path and on an SCR worker alike.
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
	replay := trace(tm, 2000, 5)
	for _, scr := range []bool{false, true} {
		eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 1, StateReplication: scr})
		if scr && eng.ExecMode() != dataplane.ModeReplication {
			t.Fatalf("replication refused: %v", eng.ReplicationFallback())
		}
		if err := eng.InjectReplay(replay); err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		if st.Delivered != st.Injected || st.Hops < 5*st.Injected {
			t.Fatalf("replication=%v: %d of %d delivered over %d hops; the trace must be unicast over ≥ 5 hops a packet",
				scr, st.Delivered, st.Injected, st.Hops)
		}
		caps := eng.WalkQueueCaps()
		if c := slices.Max(caps); c < 1 || c > 2 {
			t.Errorf("replication=%v: walk queue capacities %v after a unicast trace, want the one in use at 1 or 2", scr, caps)
		}
		eng.Close()
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
