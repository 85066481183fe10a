package dataplane_test

import (
	"slices"
	"strings"
	"testing"

	"snap/internal/apps"
	"snap/internal/core"
	"snap/internal/dataplane"
	"snap/internal/parser"
	"snap/internal/pkt"
	"snap/internal/place"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// compileCampus cold-starts the campus monitor workload with the given
// replication factor.
func compileCampus(t *testing.T, replicas int) (*core.Compilation, *topo.Topology, traffic.Matrix) {
	t.Helper()
	tp := topo.Campus(1000)
	tm := traffic.Gravity(tp, 100, 1)
	policy := campusWorkload(apps.Monitor())
	comp, err := core.ColdStart(policy, tp, tm, place.Options{Method: place.Heuristic, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	return comp, tp, tm
}

// trace draws n matrix-proportional packets honoring the campus workload:
// srcip in the ingress subnet (the assumption), dstip addressing the
// egress subnet (assign-egress forwards there).
func trace(tm traffic.Matrix, n int, seed int64) []dataplane.Ingress {
	pairs := tm.Replay(n, seed)
	out := make([]dataplane.Ingress, len(pairs))
	for i, uv := range pairs {
		u, v := uv[0], uv[1]
		out[i] = dataplane.Ingress{
			Port: u,
			Packet: pkt.New(map[pkt.Field]values.Value{
				pkt.Inport:  values.Int(int64(u)),
				pkt.SrcIP:   values.IPv4(10, 0, byte(u), byte(1+i%200)),
				pkt.DstIP:   values.IPv4(10, 0, byte(v), byte(1+i%200)),
				pkt.SrcPort: values.Int(int64(1024 + i%1000)),
				pkt.DstPort: values.Int(80),
			}),
		}
	}
	return out
}

// TestEngineReplicationMirrorsWrites: under K=2 every write the primary
// performs reaches its replica table; once flushed, the replica table
// equals the primary's and the lag is zero.
func TestEngineReplicationMirrorsWrites(t *testing.T) {
	comp, _, tm := compileCampus(t, 2)
	backups := comp.Result.Replicas["count"]
	if len(backups) != 1 {
		t.Fatalf("count backups = %v, want exactly one (K=2)", backups)
	}
	primary := comp.Config.Placement["count"]

	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
	defer eng.Close()
	if err := eng.InjectReplay(trace(tm, 2000, 3)); err != nil {
		t.Fatal(err)
	}
	eng.FlushReplication()
	rs := eng.ReplicaStats()
	if rs.Enqueued == 0 {
		t.Fatal("no mirror writes enqueued for a counting workload")
	}
	if rs.Lag != 0 || rs.Applied != rs.Enqueued {
		t.Fatalf("lag after flush: %+v", rs)
	}
	if rs.LostWrites != 0 {
		t.Fatalf("lost writes without failures: %+v", rs)
	}

	prim := eng.SwitchTable(primary)
	repl := eng.ReplicaTable(backups[0])
	if repl == nil {
		t.Fatalf("backup %d holds no replica table", backups[0])
	}
	if !prim.VarEqual(repl, "count") {
		t.Fatalf("replica diverges from primary\nprimary:\n%s\nreplica:\n%s", prim, repl)
	}
}

// TestObservedMatrixIncludesDrops is the regression test for the PR 3
// limitation: drops used to be invisible to the observed matrix, so a
// flow the plane dropped looked like vanished demand to drift detection.
// Drops must now be folded in at their ingress, keeping the matrix on the
// offered load.
func TestObservedMatrixIncludesDrops(t *testing.T) {
	tp := topo.Campus(1000)
	tm := traffic.Gravity(tp, 100, 1)
	// Drop everything entering at port 1; deliver the rest.
	policy := campusWorkload(syntax.Cond(
		syntax.FieldEq(pkt.Inport, values.Int(1)),
		syntax.Nothing(),
		syntax.Id(),
	))
	comp, err := core.ColdStart(policy, tp, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
	defer eng.Close()

	tr := trace(tm, 3000, 5)
	fromPort1 := int64(0)
	for _, ing := range tr {
		if ing.Port == 1 {
			fromPort1++
		}
	}
	if fromPort1 == 0 {
		t.Fatal("trace has no port-1 traffic; pick another seed")
	}
	if err := eng.InjectReplay(tr); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Dropped != fromPort1 {
		t.Fatalf("dropped %d, want %d (all port-1 traffic)", st.Dropped, fromPort1)
	}
	obs := eng.ObservedMatrix()
	if got, want := obs.Total(), float64(len(tr)); got != want {
		t.Fatalf("observed matrix total %.0f, want %.0f (drops folded in)", got, want)
	}
	var port1Mass float64
	for k, v := range obs {
		if k[0] == 1 {
			port1Mass += v
		}
	}
	if port1Mass != float64(fromPort1) {
		t.Fatalf("observed mass at ingress 1 = %.0f, want %d", port1Mass, fromPort1)
	}
	drops := eng.DropsByIngress()
	if drops[1] != fromPort1 || len(drops) != 1 {
		t.Fatalf("DropsByIngress = %v, want {1:%d}", drops, fromPort1)
	}
	// Drift detection now sees the offered load: port 1's share of the
	// observed mass matches its share of the demand, even though every one
	// of its packets is dropped. (Before the fix its row vanished.)
	var wantShare float64
	for k, v := range tm {
		if k[0] == 1 {
			wantShare += v
		}
	}
	wantShare /= tm.Total()
	gotShare := port1Mass / obs.Total()
	if gotShare < wantShare-0.05 || gotShare > wantShare+0.05 {
		t.Fatalf("ingress-1 observed share %.3f, offered share %.3f: dropped flow invisible again", gotShare, wantShare)
	}
}

// TestApplyConfigPortDiffError: a same-size topology with a re-attached
// port is rejected with the precise per-port diff, not a bare count check.
func TestApplyConfigPortDiffError(t *testing.T) {
	comp, tp, tm := compileCampus(t, 0)
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{})
	defer eng.Close()

	// Same switches and links, but port 6 moved from D4 (5) to D1 (2).
	ports := append([]topo.Port(nil), tp.Ports...)
	for i := range ports {
		if ports[i].ID == 6 {
			ports[i].Switch = 2
		}
	}
	moved, err := topo.New("campus-moved", tp.Switches, tp.Links, ports)
	if err != nil {
		t.Fatal(err)
	}
	comp2, err := core.ColdStart(campusWorkload(apps.Monitor()), moved, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	err = eng.ApplyConfig(comp2.Config, nil)
	if err == nil {
		t.Fatal("re-attached port accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "port 6") || !strings.Contains(msg, "switch 2") || !strings.Contains(msg, "switch 5") {
		t.Fatalf("error lacks the port diff: %v", err)
	}
}

// TestFailSwitchMidStream: killing a switch leaves the engine healthy —
// traffic through or into the victim drops, everything else delivers, and
// accounting stays exact.
func TestFailSwitchMidStream(t *testing.T) {
	comp, tp, tm := compileCampus(t, 0)
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
	defer eng.Close()

	tr := trace(tm, 2000, 7)
	if err := eng.InjectReplay(tr[:1000]); err != nil {
		t.Fatal(err)
	}
	// Kill D3, the edge switch of port 5.
	victim, _ := tp.PortByID(5)
	if err := eng.FailSwitch(victim.Switch); err != nil {
		t.Fatal(err)
	}
	if !eng.SwitchDown(victim.Switch) {
		t.Fatal("victim not marked down")
	}
	if err := eng.InjectReplay(tr[1000:]); err != nil {
		t.Fatalf("engine poisoned by a switch failure: %v", err)
	}
	st := eng.Stats()
	if st.Injected != int64(len(tr)) || st.Injected != st.Delivered+st.Dropped {
		t.Fatalf("accounting broken after kill: %+v", st)
	}
	if st.Dropped == 0 {
		t.Fatal("no drops although port 5 traffic had nowhere to go")
	}
	if got := eng.ObservedMatrix().Total(); got != float64(len(tr)) {
		t.Fatalf("observed total %.0f, want %d (failure drops folded in)", got, len(tr))
	}
}

// TestEngineFailoverPromotesReplicas is the acceptance property: with K=2
// and quiescent replicas, killing the state owner mid-stream and failing
// over loses zero state entries, preserves the pre-kill global state
// exactly, and serves all post-failover traffic on the surviving ports.
func TestEngineFailoverPromotesReplicas(t *testing.T) {
	comp, tp, tm := compileCampus(t, 2)
	owner := comp.Config.Placement["count"]
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
	defer eng.Close()

	if err := eng.InjectReplay(trace(tm, 2000, 9)); err != nil {
		t.Fatal(err)
	}
	eng.FlushReplication() // replicas quiescent: the zero-loss precondition
	before := eng.GlobalState()

	if err := eng.FailSwitch(owner); err != nil {
		t.Fatal(err)
	}
	degraded, err := tp.Degrade([]topo.NodeID{owner}, nil)
	if err != nil {
		t.Fatal(err)
	}
	comp2, err := comp.TopoFailover(degraded, tm)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := eng.Failover(comp2.Config, nil)
	if err != nil {
		t.Fatal(err)
	}
	if newOwner, ok := fs.Promoted["count"]; !ok || newOwner == owner {
		t.Fatalf("promotions = %v, want count promoted off switch %d", fs.Promoted, owner)
	}
	if fs.LostEntries != 0 || len(fs.LostVars) != 0 || fs.LostWrites != 0 {
		t.Fatalf("state lost despite quiescent replica: %s", fs)
	}
	if fs.Recovered == 0 {
		t.Fatal("nothing recovered although the owner held entries")
	}
	// Promotion hands the replica table over as it is; the only entries
	// copied one by one are the warm-up clone of count's 6 (one per
	// ingress port) into the degraded plane's new backup.
	if fs.Recovered != 6 {
		t.Fatalf("recovered %d entries, want count's 6", fs.Recovered)
	}
	if n := reseated(t, eng); n != 6 {
		t.Fatalf("failover reseated %d entries, want 6: the warm-up clone only", n)
	}
	if !eng.GlobalState().Equal(before) {
		t.Fatalf("global state changed across failover\nbefore:\n%s\nafter:\n%s", before, eng.GlobalState())
	}

	// Post-failover traffic on the surviving ports delivers in full.
	post := trace(comp2.Demands, 2000, 11)
	pre := eng.Stats()
	if err := eng.InjectReplay(post); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Delivered-pre.Delivered != int64(len(post)) {
		t.Fatalf("post-failover deliveries %d, want %d (drops: %d)",
			st.Delivered-pre.Delivered, len(post), st.Dropped-pre.Dropped)
	}

	// And the promoted variable keeps counting where the replica left off.
	countSumBefore := countSum(before)
	countSumAfter := countSum(eng.GlobalState())
	if countSumAfter <= countSumBefore {
		t.Fatalf("promoted counter stuck: %d -> %d", countSumBefore, countSumAfter)
	}
}

// TestEngineFailoverBoundedLoss quantifies the two loss sources. Without
// replication the orphan's entries are all lost; with replication but lag
// (manual pump, never flushed) exactly the queued writes are reported.
func TestEngineFailoverBoundedLoss(t *testing.T) {
	t.Run("unreplicated", func(t *testing.T) {
		comp, tp, tm := compileCampus(t, 0)
		owner := comp.Config.Placement["count"]
		eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
		defer eng.Close()
		if err := eng.InjectReplay(trace(tm, 1000, 13)); err != nil {
			t.Fatal(err)
		}
		entries := len(eng.SwitchTable(owner).Entries("count"))
		if entries == 0 {
			t.Fatal("owner holds no entries")
		}
		if err := eng.FailSwitch(owner); err != nil {
			t.Fatal(err)
		}
		degraded, err := tp.Degrade([]topo.NodeID{owner}, nil)
		if err != nil {
			t.Fatal(err)
		}
		comp2, err := comp.TopoFailover(degraded, tm)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := eng.Failover(comp2.Config, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(fs.LostVars) != 1 || fs.LostVars[0] != "count" || fs.LostEntries != entries {
			t.Fatalf("loss report %s, want count's %d entries", fs, entries)
		}
		if got := eng.GlobalState().Entries("count"); len(got) != 0 {
			t.Fatalf("lost variable still has %d entries", len(got))
		}
	})

	t.Run("replica-lag", func(t *testing.T) {
		comp, tp, tm := compileCampus(t, 2)
		owner := comp.Config.Placement["count"]
		eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
		defer eng.Close()
		eng.StopReplicationDrain()
		tr := trace(tm, 500, 17)
		if err := eng.InjectReplay(tr); err != nil {
			t.Fatal(err)
		}
		rs := eng.ReplicaStats()
		if rs.Lag == 0 {
			t.Fatal("manual replication should have queued every write")
		}
		if err := eng.FailSwitch(owner); err != nil {
			t.Fatal(err)
		}
		degraded, err := tp.Degrade([]topo.NodeID{owner}, nil)
		if err != nil {
			t.Fatal(err)
		}
		comp2, err := comp.TopoFailover(degraded, tm)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := eng.Failover(comp2.Config, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fs.LostWrites != rs.Lag {
			t.Fatalf("lost writes %d, want the whole lag %d", fs.LostWrites, rs.Lag)
		}
		// The replica never saw a write, so nothing was recoverable — but
		// the variable survives (empty) rather than erroring.
		if fs.Recovered != 0 {
			t.Fatalf("recovered %d entries from an empty replica", fs.Recovered)
		}
	})
}

// TestFailoverRejectsHealthyTopology: Failover demands a configuration
// compiled for the degraded graph; handing it the healthy one is refused.
func TestFailoverRejectsHealthyTopology(t *testing.T) {
	comp, tp, _ := compileCampus(t, 2)
	owner := comp.Config.Placement["count"]
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{})
	defer eng.Close()
	if err := eng.FailSwitch(owner); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Failover(comp.Config, nil); err == nil {
		t.Fatal("healthy-topology configuration accepted after a kill")
	}
	// Plain ApplyConfig must refuse too: re-seating state on a dead
	// switch would lose it silently.
	if err := eng.ApplyConfig(comp.Config, nil); err == nil {
		t.Fatal("ApplyConfig accepted a healthy topology on a failed engine")
	}
	_ = tp
}

// TestEngineFailoverThreeReplicas: K = 3, a variable indexed by a 5-tuple
// (wider than the VM's inline index) beside a narrow one, both on one
// primary with two backups. Writes flushed to the replicas survive the loss
// of the primary and the first backup, recovered from the second backup;
// writes still queued at the primary are the reported loss.
func TestEngineFailoverThreeReplicas(t *testing.T) {
	tp := topo.Campus(1000)
	tm := traffic.Gravity(tp, 100, 1)
	policy := campusWorkload(parser.MustParse(`flows[srcip][dstip][srcport][dstport][proto] <- True; count[inport]++`))
	comp, err := core.ColdStart(policy, tp, tm, place.Options{Method: place.Heuristic, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	primary := comp.Config.Placement["flows"]
	backups := comp.Config.Replicas["flows"]
	if comp.Config.Placement["count"] != primary || len(backups) != 2 ||
		!slices.Equal(comp.Config.Replicas["count"], backups) {
		t.Fatalf("want both variables on one primary with the same two backups: placement %v, replicas %v",
			comp.Config.Placement, comp.Config.Replicas)
	}

	// One packet from port u to port v: srcip in u's subnet (the
	// assumption), dstip in v's (assign-egress), proto 6.
	pk := func(u, v int, sport int64) dataplane.Ingress {
		return dataplane.Ingress{Port: u, Packet: pkt.New(map[pkt.Field]values.Value{
			pkt.Inport:  values.Int(int64(u)),
			pkt.SrcIP:   values.IPv4(10, 0, byte(u), 1),
			pkt.DstIP:   values.IPv4(10, 0, byte(v), 1),
			pkt.SrcPort: values.Int(sport),
			pkt.DstPort: values.Int(80),
			pkt.Proto:   values.Int(6),
		})}
	}
	flow := func(u, v int, sport int64) values.Tuple {
		return values.Tuple{values.IPv4(10, 0, byte(u), 1), values.IPv4(10, 0, byte(v), 1),
			values.Int(sport), values.Int(80), values.Int(6)}
	}

	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 1})
	defer eng.Close()
	eng.StopReplicationDrain()
	if err := eng.InjectReplay([]dataplane.Ingress{pk(1, 2, 1000), pk(1, 3, 1001), pk(2, 6, 1002), pk(1, 2, 1000)}); err != nil {
		t.Fatal(err)
	}
	eng.FlushReplication()
	want := state.NewStore()
	want.Set("flows", flow(1, 2, 1000), values.Bool(true))
	want.Set("flows", flow(1, 3, 1001), values.Bool(true))
	want.Set("flows", flow(2, 6, 1002), values.Bool(true))
	want.Set("count", values.Tuple{values.Int(1)}, values.Int(3))
	want.Set("count", values.Tuple{values.Int(2)}, values.Int(1))
	const flushedEntries = 5

	// Two more packets, two writes each, stay queued at the primary.
	if err := eng.InjectReplay([]dataplane.Ingress{pk(3, 4, 2000), pk(1, 2, 1000)}); err != nil {
		t.Fatal(err)
	}
	if rs := eng.ReplicaStats(); rs.Lag != 4 {
		t.Fatalf("queued writes %d, want 4", rs.Lag)
	}
	for _, s := range []topo.NodeID{primary, backups[0]} {
		if err := eng.FailSwitch(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.ReplicaTable(backups[1]); !got.Equal(want) {
		t.Fatalf("second backup holds\n%s\nwant\n%s", got, want)
	}

	degraded, err := tp.Degrade([]topo.NodeID{primary, backups[0]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	comp2, err := comp.TopoFailover(degraded, tm)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := eng.Failover(comp2.Config, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Recovered != flushedEntries || fs.LostWrites != 4 || fs.LostEntries != 0 || len(fs.LostVars) != 0 {
		t.Fatalf("failover %s, want %d recovered, 4 lost writes, no lost entries", fs, flushedEntries)
	}
	for _, v := range []string{"flows", "count"} {
		if _, ok := fs.Promoted[v]; !ok {
			t.Fatalf("%s not promoted: %v", v, fs.Promoted)
		}
	}
	if got := eng.GlobalState(); !got.Equal(want) {
		t.Fatalf("recovered state\n%s\nwant\n%s", got, want)
	}
}
