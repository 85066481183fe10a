package dataplane_test

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"snap/internal/apps"
	"snap/internal/ctrl"
	"snap/internal/dataplane"
	"snap/internal/parser"
	"snap/internal/pkt"
	"snap/internal/shard"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// campusWorkload is the standard test composition: assumption; (inner;
// assign-egress) on the Figure 2 campus.
func campusWorkload(inner syntax.Policy) syntax.Policy {
	return syntax.Then(
		apps.Assumption(6),
		syntax.Then(inner, apps.AssignEgress(6)),
	)
}

func deliveryKey(d dataplane.Delivery) string {
	return fmt.Sprintf("%d|%s", d.Port, d.Packet.Key())
}

func sortedKeys(ds []dataplane.Delivery) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = deliveryKey(d)
	}
	sort.Strings(out)
	return out
}

// TestEngineSequentialEquivalence: a batch through the concurrent engine
// must produce, per injection, the same delivery sets as N sequential
// Inject calls, and the same final global state under any execution
// order. The workload is chosen commutative — a per-ingress counter plus a
// monotone seen-flag — with forwarding independent of state, so the
// per-injection results are order-independent and the comparison is exact.
func TestEngineSequentialEquivalence(t *testing.T) {
	netw := topo.Campus(1000)
	seenWriter := syntax.Cond(
		syntax.FieldEq(pkt.SrcPort, values.Int(53)),
		syntax.WriteState("seen",
			syntax.Vec(syntax.F(pkt.DstIP), syntax.F(pkt.DNSRData)),
			syntax.V(values.Bool(true))),
		syntax.Id(),
	)
	p := campusWorkload(syntax.Par(seenWriter, apps.Monitor()))
	seqPlane, _ := deploy(t, p, netw, nil)

	rng := rand.New(rand.NewSource(11))
	batch := make([]dataplane.Ingress, 0, 300)
	for i := 0; i < 300; i++ {
		port, pk := campusPacket(rng)
		batch = append(batch, dataplane.Ingress{Port: port, Packet: pk})
	}

	// Sequential reference on a fresh plane.
	want := make([][]dataplane.Delivery, len(batch))
	for i, ing := range batch {
		ds, err := seqPlane.Inject(ing.Port, ing.Packet)
		if err != nil {
			t.Fatalf("sequential inject %d: %v", i, err)
		}
		want[i] = ds
	}

	// The replication row sets the inert StateReplication field, which must
	// leave the lock pool in charge.
	for _, c := range []struct {
		name string
		opts dataplane.Options
	}{
		{"workers=1", dataplane.Options{Workers: 1, Window: 64}},
		{"workers=4", dataplane.Options{Workers: 4, Window: 64}},
		{fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), dataplane.Options{Workers: runtime.GOMAXPROCS(0), Window: 64}},
		{"replication", dataplane.Options{Workers: 4, Window: 64, StateReplication: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := dataplane.NewEngine(seqPlane.Config(), c.opts)
			defer eng.Close()
			if eng.ExecMode() != dataplane.ModeLocks {
				t.Fatalf("exec mode = %v, want locks", eng.ExecMode())
			}
			got, err := eng.InjectBatch(batch)
			if err != nil {
				t.Fatalf("InjectBatch: %v", err)
			}
			for i := range batch {
				w, g := sortedKeys(want[i]), sortedKeys(got[i])
				if len(w) != len(g) {
					t.Fatalf("injection %d: want %d deliveries, got %d", i, len(w), len(g))
				}
				for j := range w {
					if w[j] != g[j] {
						t.Fatalf("injection %d delivery %d: want %s, got %s", i, j, w[j], g[j])
					}
				}
			}
			if !eng.GlobalState().Equal(seqPlane.GlobalState()) {
				t.Fatalf("final state diverges from sequential run\nengine:\n%s\nsequential:\n%s",
					eng.GlobalState(), seqPlane.GlobalState())
			}
			st := eng.Stats()
			if st.Injected != int64(len(batch)) {
				t.Fatalf("stats.Injected = %d, want %d", st.Injected, len(batch))
			}
			seq := seqPlane.Stats()
			if st.Delivered != seq.Delivered || st.Dropped != seq.Dropped || st.Suspends != seq.Suspends || st.Hops != seq.Hops {
				t.Fatalf("stats diverge: engine %+v vs sequential %+v", st, seq)
			}
		})
	}
}

// TestEngineBatchOfOneExactEquivalence: with batches of size 1 the engine
// is lockstep-equivalent to Network.Inject for *any* policy, including
// ones whose forwarding depends on state order (the stateful firewall).
func TestEngineBatchOfOneExactEquivalence(t *testing.T) {
	netw := topo.Campus(1000)
	fw, _ := apps.ByName("stateful-firewall")
	p := campusWorkload(fw.MustPolicy())
	seqPlane, d := deploy(t, p, netw, nil)

	eng := dataplane.NewEngine(seqPlane.Config(), dataplane.Options{})
	defer eng.Close()

	ref := state.NewStore()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		port, pk := campusPacket(rng)
		want, err := seqPlane.Inject(port, pk)
		if err != nil {
			t.Fatalf("packet %d: sequential: %v", i, err)
		}
		got, err := eng.InjectBatch([]dataplane.Ingress{{Port: port, Packet: pk}})
		if err != nil {
			t.Fatalf("packet %d: engine: %v", i, err)
		}
		w, g := sortedKeys(want), sortedKeys(got[0])
		if fmt.Sprint(w) != fmt.Sprint(g) {
			t.Fatalf("packet %d: deliveries diverge: want %v, got %v", i, w, g)
		}
		_, ref2, err := d.Eval(ref, pk)
		if err != nil {
			t.Fatalf("packet %d: ref eval: %v", i, err)
		}
		ref = ref2
		if !eng.GlobalState().Equal(ref) {
			t.Fatalf("packet %d: engine state diverges from semantics", i)
		}
	}
}

// TestEngineShardedStateEquivalence is the shard × engine property test: a
// sharded program executed concurrently leaves, after shard.Merge, the
// same final store as the unsharded program executed sequentially — over
// several random traces (the updates are per-ingress counters, so shards
// are disjoint and updates commute).
func TestEngineShardedStateEquivalence(t *testing.T) {
	netw := topo.Campus(1000)
	plan := shard.PortsPlan("count", []int{1, 2, 3, 4, 5, 6})
	shardedInner, err := shard.Apply(apps.Monitor(), plan)
	if err != nil {
		t.Fatalf("shard.Apply: %v", err)
	}
	seqPlane, _ := deploy(t, campusWorkload(apps.Monitor()), netw, nil)
	shardPlane, _ := deploy(t, campusWorkload(shardedInner), netw, nil)

	for _, seed := range []int64{1, 7, 23, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			batch := make([]dataplane.Ingress, 0, 250)
			for i := 0; i < 250; i++ {
				port, pk := campusPacket(rng)
				batch = append(batch, dataplane.Ingress{Port: port, Packet: pk})
			}

			// Unsharded sequential reference (fresh plane per seed).
			refPlane := dataplane.New(seqPlane.Config())
			for i, ing := range batch {
				if _, err := refPlane.Inject(ing.Port, ing.Packet); err != nil {
					t.Fatalf("sequential inject %d: %v", i, err)
				}
			}

			eng := dataplane.NewEngine(shardPlane.Config(), dataplane.Options{
				Window: 32,
			})
			defer eng.Close()
			if _, err := eng.InjectBatch(batch); err != nil {
				t.Fatalf("InjectBatch: %v", err)
			}
			merged, err := shard.Merge(eng.GlobalState(), plan, nil)
			if err != nil {
				t.Fatalf("merge: %v", err)
			}
			if !merged.Equal(refPlane.GlobalState()) {
				t.Fatalf("sharded concurrent state != unsharded sequential state\nmerged:\n%s\nref:\n%s",
					merged, refPlane.GlobalState())
			}
		})
	}
}

// TestEngineStreamAndLoad: InjectStream drains a replayed trace and the
// per-switch load accounting adds up to the global counters.
func TestEngineStreamAndLoad(t *testing.T) {
	netw := topo.Campus(1000)
	p := campusWorkload(apps.Monitor())
	plane, _ := deploy(t, p, netw, nil)

	eng := dataplane.NewEngine(plane.Config(), dataplane.Options{Workers: 4, Window: 16})
	defer eng.Close()

	const n = 500
	ch := make(chan dataplane.Ingress)
	go func() {
		defer close(ch)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < n; i++ {
			port, pk := campusPacket(rng)
			ch <- dataplane.Ingress{Port: port, Packet: pk}
		}
	}()
	if err := eng.InjectStream(ch); err != nil {
		t.Fatalf("InjectStream: %v", err)
	}
	st := eng.Stats()
	if st.Injected != n {
		t.Fatalf("Injected = %d, want %d", st.Injected, n)
	}
	if st.Delivered == 0 {
		t.Fatal("no deliveries recorded")
	}
	var processed, suspends, forwarded int64
	for _, l := range eng.Load() {
		processed += l.Processed
		suspends += l.Suspends
		forwarded += l.Forwarded
	}
	if processed == 0 || processed < st.Injected {
		t.Fatalf("processed = %d, want >= injected %d", processed, st.Injected)
	}
	if suspends != st.Suspends {
		t.Fatalf("per-switch suspends %d != global %d", suspends, st.Suspends)
	}
	if forwarded != st.Hops {
		t.Fatalf("per-switch forwarded %d != global hops %d", forwarded, st.Hops)
	}
}

// countSum adds up every binding of the count* variables in a store.
func countSum(st *state.Store) int64 {
	var n int64
	for _, v := range st.Vars() {
		if v != "count" && !strings.HasPrefix(v, "count@") {
			continue
		}
		for _, e := range st.Entries(v) {
			n += e.Val.AsInt()
		}
	}
	return n
}

// TestEngineBadPortDoesNotPoison: an unknown ingress port mid-stream is a
// caller input error. The stream reports it, but the engine must stay
// usable — the old behavior routed it through fail(), permanently
// poisoning every later batch.
func TestEngineBadPortDoesNotPoison(t *testing.T) {
	netw := topo.Campus(1000)
	plane, _ := deploy(t, campusWorkload(apps.Monitor()), netw, nil)
	eng := dataplane.NewEngine(plane.Config(), dataplane.Options{Window: 16})
	defer eng.Close()

	rng := rand.New(rand.NewSource(3))
	trace := make([]dataplane.Ingress, 0, 21)
	for i := 0; i < 20; i++ {
		port, pk := campusPacket(rng)
		trace = append(trace, dataplane.Ingress{Port: port, Packet: pk})
	}
	trace = append(trace, dataplane.Ingress{Port: 9999, Packet: pkt.New(map[pkt.Field]values.Value{})})

	if err := eng.InjectReplay(trace); err == nil {
		t.Fatal("expected unknown-port error from InjectReplay")
	}
	if got := countSum(eng.GlobalState()); got != 20 {
		t.Fatalf("pre-error packets: counted %d, want 20", got)
	}

	// The engine must accept new work after the input error.
	batch := make([]dataplane.Ingress, 0, 10)
	for i := 0; i < 10; i++ {
		port, pk := campusPacket(rng)
		batch = append(batch, dataplane.Ingress{Port: port, Packet: pk})
	}
	if _, err := eng.InjectBatch(batch); err != nil {
		t.Fatalf("InjectBatch after bad-port stream: %v", err)
	}
	if got := countSum(eng.GlobalState()); got != 30 {
		t.Fatalf("after recovery batch: counted %d, want 30", got)
	}
	ch := make(chan dataplane.Ingress, 1)
	close(ch)
	if err := eng.InjectStream(ch); err != nil {
		t.Fatalf("InjectStream after bad-port stream: %v", err)
	}
}

// TestEngineMulticastRunToCompletion: on a policy that forks every packet
// (one copy to port 5, one to port 6) every configuration of the walk runs
// an injection and both its copies to completion on one goroutine. Each
// must deliver both copies, agree with Network per injection, return from
// Close, and leave no goroutine behind — run under -race.
func TestEngineMulticastRunToCompletion(t *testing.T) {
	base := settleGoroutines()
	netw := topo.Campus(1000)
	p := syntax.Then(
		apps.Assumption(6),
		syntax.Par(
			syntax.Assign(pkt.Outport, values.Int(5)),
			syntax.Assign(pkt.Outport, values.Int(6)),
		),
	)
	plane, _ := deploy(t, p, netw, nil)

	rng := rand.New(rand.NewSource(9))
	batch := make([]dataplane.Ingress, 0, 400)
	want := make([][]string, 0, 400)
	for i := 0; i < 400; i++ {
		port, pk := campusPacket(rng)
		batch = append(batch, dataplane.Ingress{Port: port, Packet: pk})
		ds, err := plane.Inject(port, pk)
		if err != nil {
			t.Fatalf("sequential inject %d: %v", i, err)
		}
		if len(ds) != 2 {
			t.Fatalf("sequential inject %d: %d deliveries, want 2", i, len(ds))
		}
		want = append(want, sortedKeys(ds))
	}
	if st := plane.Stats(); st.Delivered != 2*int64(len(batch)) {
		t.Fatalf("sequential: delivered %d copies, want %d", st.Delivered, 2*len(batch))
	}

	for _, c := range []struct {
		name string
		opts dataplane.Options
	}{
		{"workers=1", dataplane.Options{Workers: 1, Window: 64}},
		{"locks", dataplane.Options{Workers: 4, Window: 64}},
		{"replication", dataplane.Options{Workers: 4, Window: 64, StateReplication: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := dataplane.NewEngine(plane.Config(), c.opts)
			// Close must return with every copy retired; a regression
			// here hangs.
			defer eng.Close()
			if eng.ExecMode() != dataplane.ModeLocks {
				t.Fatalf("exec mode = %v, want locks", eng.ExecMode())
			}
			got, err := eng.InjectBatch(batch)
			if err != nil {
				t.Fatalf("InjectBatch: %v", err)
			}
			for i := range batch {
				if g := sortedKeys(got[i]); !slices.Equal(g, want[i]) {
					t.Fatalf("injection %d: deliveries %v, want %v", i, g, want[i])
				}
			}
			if st := eng.Stats(); st.Delivered != 2*int64(len(batch)) {
				t.Fatalf("delivered %d copies, want %d", st.Delivered, 2*len(batch))
			}
		})
	}
	checkGoroutinesBack(t, base)
}

// TestEngineSnapshotsMidStream: GlobalState/SwitchTable/Load taken while
// traffic is in flight must not race with the VM state writes (the gate
// drains in-flight copies first). Run under -race.
func TestEngineSnapshotsMidStream(t *testing.T) {
	netw := topo.Campus(1000)
	plane, _ := deploy(t, campusWorkload(apps.Monitor()), netw, nil)
	eng := dataplane.NewEngine(plane.Config(), dataplane.Options{Workers: 4, Window: 16})
	defer eng.Close()

	rng := rand.New(rand.NewSource(21))
	trace := make([]dataplane.Ingress, 0, 2000)
	for i := 0; i < 2000; i++ {
		port, pk := campusPacket(rng)
		trace = append(trace, dataplane.Ingress{Port: port, Packet: pk})
	}
	done := make(chan error, 1)
	go func() { done <- eng.InjectReplay(trace) }()

	owner := plane.Config().Placement["count"]
	var last int64
	for i := 0; i < 40; i++ {
		st := eng.GlobalState()
		if n := countSum(st); n < last {
			t.Errorf("snapshot %d: count sum went backwards (%d -> %d)", i, last, n)
		} else {
			last = n
		}
		eng.SwitchTable(owner)
		eng.Load()
	}
	if err := <-done; err != nil {
		t.Fatalf("InjectReplay: %v", err)
	}
	if n := countSum(eng.GlobalState()); n != int64(len(trace)) {
		t.Fatalf("final count sum %d, want %d", n, len(trace))
	}
}

// TestEngineApplyConfigMigratesState: a hot swap onto a configuration with
// a different owner for the state variable must carry every entry to the
// new owner switch, leave the global view unchanged, and keep serving
// traffic that accumulates on the migrated entries — by handing the table
// over, not by reading it.
func TestEngineApplyConfigMigratesState(t *testing.T) {
	netw := topo.Campus(1000)
	p := campusWorkload(apps.Monitor())
	from, to := topo.NodeID(8), topo.NodeID(2)
	planeA, _ := deploy(t, p, netw, map[string]topo.NodeID{"count": from})
	planeB, _ := deploy(t, p, netw, map[string]topo.NodeID{"count": to})

	eng := dataplane.NewEngine(planeA.Config(), dataplane.Options{Window: 16})
	defer eng.Close()

	rng := rand.New(rand.NewSource(31))
	batch := make([]dataplane.Ingress, 0, 200)
	for i := 0; i < 200; i++ {
		port, pk := campusPacket(rng)
		batch = append(batch, dataplane.Ingress{Port: port, Packet: pk})
	}
	if _, err := eng.InjectBatch(batch); err != nil {
		t.Fatalf("warm batch: %v", err)
	}
	before := eng.GlobalState()
	if len(eng.SwitchTable(from).Entries("count")) == 0 {
		t.Fatal("expected count entries at the original owner")
	}

	if err := eng.ApplyConfig(planeB.Config(), nil); err != nil {
		t.Fatalf("ApplyConfig: %v", err)
	}
	if e := eng.Epoch(); e != 1 {
		t.Fatalf("Epoch = %d, want 1", e)
	}
	if !eng.GlobalState().Equal(before) {
		t.Fatalf("global state changed across swap:\nbefore:\n%s\nafter:\n%s", before, eng.GlobalState())
	}
	if n := len(eng.SwitchTable(to).Entries("count")); n == 0 {
		t.Fatal("count entries did not arrive at the new owner")
	}
	if n := len(eng.SwitchTable(from).Entries("count")); n != 0 {
		t.Fatalf("old owner still holds %d count entries", n)
	}

	// Traffic after the swap keeps accumulating on the migrated entries.
	if _, err := eng.InjectBatch(batch); err != nil {
		t.Fatalf("post-swap batch: %v", err)
	}
	if n := countSum(eng.GlobalState()); n != 2*int64(len(batch)) {
		t.Fatalf("count sum after swap %d, want %d", n, 2*len(batch))
	}
	if n := reseated(t, eng); n != 0 {
		t.Fatalf("a change of owner copied %d entries, want the table handed over", n)
	}

	// With a rewrite: swapping a sharded monitor for the unsharded one
	// folds the count family, whose entries — and only those — the
	// reseated counter reports; hits, which nothing folds, is handed over
	// as it is. The folded counts are the per-port totals.
	t.Run("fold", func(t *testing.T) {
		inner := parser.MustParse(`count[inport]++; hits[srcport]++`)
		plan := shard.PortsPlan("count", []int{1, 2, 3, 4, 5, 6})
		shardedInner, err := shard.Apply(inner, plan)
		if err != nil {
			t.Fatal(err)
		}
		sharded, _ := deploy(t, campusWorkload(shardedInner), netw, nil)
		plain, _ := deploy(t, campusWorkload(inner), netw, nil)

		eng := dataplane.NewEngine(sharded.Config(), dataplane.Options{Window: 16})
		defer eng.Close()
		rng := rand.New(rand.NewSource(31))
		batch := make([]dataplane.Ingress, 200)
		for i := range batch {
			port, pk := campusPacket(rng)
			batch[i] = dataplane.Ingress{Port: port, Packet: pk}
		}
		if _, err := eng.InjectBatch(batch); err != nil {
			t.Fatalf("warm batch: %v", err)
		}
		staged := eng.GlobalState()
		want, err := shard.Merge(staged, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		family := 0
		for _, n := range plan.Names() {
			family += len(staged.Entries(n))
		}
		if family == 0 || len(staged.Entries("hits")) == 0 {
			t.Fatalf("warm state holds %d count-family and %d hits entries, want both > 0", family, len(staged.Entries("hits")))
		}
		migration := ctrl.PlanMigration(sharded.Config(), plain.Config(), []shard.Plan{plan}, nil)
		if len(migration.Folds) != 1 {
			t.Fatalf("folds = %v, want the count family", migration.Folds)
		}
		if err := eng.ApplyConfig(plain.Config(), migration.Rewrite()); err != nil {
			t.Fatalf("ApplyConfig: %v", err)
		}
		if !eng.GlobalState().Equal(want) {
			t.Fatalf("folded state:\n%s\nwant:\n%s", eng.GlobalState(), want)
		}
		if n := reseated(t, eng); n != int64(family) {
			t.Fatalf("a shard fold reports %d reseated entries, want the count family's %d", n, family)
		}
		if _, err := eng.InjectBatch(batch); err != nil {
			t.Fatalf("post-swap batch: %v", err)
		}
		if n := countSum(eng.GlobalState()); n != 2*int64(len(batch)) {
			t.Fatalf("count sum after the fold %d, want %d", n, 2*len(batch))
		}
	})
}

// reseated reads snap_swap_reseated_entries_total from an engine's scrape.
func reseated(t *testing.T, eng *dataplane.Engine) int64 {
	t.Helper()
	for _, m := range eng.Telemetry().Snapshot().Metrics {
		if m.Name == "snap_swap_reseated_entries_total" {
			return int64(m.Samples[0].Value)
		}
	}
	t.Fatal("scrape has no snap_swap_reseated_entries_total")
	return 0
}

// TestSwapHandsTablesOver: a swap hands each variable's table to its new
// owner instead of reading its entries, so what ApplyConfig allocates does
// not follow the number of entries seeded, and the global state reads the
// same before and after.
func TestSwapHandsTablesOver(t *testing.T) {
	netw := topo.Campus(1000)
	p := campusWorkload(parser.MustParse(`hits[srcport]++`))
	plane, _ := deploy(t, p, netw, nil)
	// The replication row sets the inert StateReplication field.
	for _, c := range []struct {
		name string
		opts dataplane.Options
	}{
		{"locks", dataplane.Options{Workers: 2}},
		{"replication", dataplane.Options{Workers: 2, StateReplication: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			swapBytes := func(entries int) uint64 {
				eng := dataplane.NewEngine(plane.Config(), c.opts)
				defer eng.Close()
				if eng.ExecMode() != dataplane.ModeLocks {
					t.Fatalf("exec mode = %v, want locks", eng.ExecMode())
				}
				rng := rand.New(rand.NewSource(3))
				trace := make([]dataplane.Ingress, entries)
				for i := range trace {
					port, pk := campusPacket(rng)
					trace[i] = dataplane.Ingress{Port: port, Packet: pk.With(pkt.SrcPort, values.Int(int64(i)))}
				}
				if err := eng.InjectReplay(trace); err != nil {
					t.Fatal(err)
				}
				before := eng.GlobalState()
				if n := len(before.Entries("hits")); n != entries {
					t.Fatalf("seeded %d entries, want %d", n, entries)
				}
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				err := eng.ApplyConfig(plane.Config(), nil)
				runtime.ReadMemStats(&m1)
				if err != nil {
					t.Fatalf("ApplyConfig: %v", err)
				}
				if !eng.GlobalState().Equal(before) {
					t.Fatal("global state changed across the swap")
				}
				if n := reseated(t, eng); n != 0 {
					t.Fatalf("a swap that moved nothing copied %d entries", n)
				}
				return m1.TotalAlloc - m0.TotalAlloc
			}
			small, large := swapBytes(1_000), swapBytes(100_000)
			t.Logf("ApplyConfig allocated %d B over 1 000 entries, %d B over 100 000", small, large)
			if large > 2*small {
				t.Fatalf("ApplyConfig allocated %d B over 1 000 entries and %d B over 100 000: the swap reads entries", small, large)
			}
		})
	}
}

// TestEngineApplyConfigMidStream: ApplyConfig issued while an InjectStream
// is feeding must swap between packets — the stream continues across the
// epoch, no packet or state entry is lost.
func TestEngineApplyConfigMidStream(t *testing.T) {
	netw := topo.Campus(1000)
	p := campusWorkload(apps.Monitor())
	planeA, _ := deploy(t, p, netw, map[string]topo.NodeID{"count": 8})
	planeB, _ := deploy(t, p, netw, map[string]topo.NodeID{"count": 2})

	eng := dataplane.NewEngine(planeA.Config(), dataplane.Options{Workers: 4, Window: 16})
	defer eng.Close()

	const n = 1500
	ch := make(chan dataplane.Ingress)
	done := make(chan error, 1)
	go func() { done <- eng.InjectStream(ch) }()

	rng := rand.New(rand.NewSource(41))
	for i := 0; i < n; i++ {
		port, pk := campusPacket(rng)
		ch <- dataplane.Ingress{Port: port, Packet: pk}
		switch i {
		case 500:
			if err := eng.ApplyConfig(planeB.Config(), nil); err != nil {
				t.Errorf("ApplyConfig #1: %v", err)
			}
		case 1000:
			if err := eng.ApplyConfig(planeA.Config(), nil); err != nil {
				t.Errorf("ApplyConfig #2: %v", err)
			}
		}
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatalf("InjectStream: %v", err)
	}
	if e := eng.Epoch(); e != 2 {
		t.Fatalf("Epoch = %d, want 2", e)
	}
	st := eng.Stats()
	if st.Injected != n {
		t.Fatalf("Injected = %d, want %d", st.Injected, n)
	}
	if lost := st.Injected - st.Delivered - st.Dropped; lost != 0 {
		t.Fatalf("%d packets lost across swaps", lost)
	}
	if got := countSum(eng.GlobalState()); got != n {
		t.Fatalf("count sum %d, want %d", got, n)
	}
}

// TestEngineUnknownPort: injecting at a nonexistent port errors cleanly.
func TestEngineUnknownPort(t *testing.T) {
	netw := topo.Campus(1000)
	plane, _ := deploy(t, campusWorkload(apps.Monitor()), netw, nil)
	eng := dataplane.NewEngine(plane.Config(), dataplane.Options{})
	defer eng.Close()
	if _, err := eng.InjectBatch([]dataplane.Ingress{{Port: 9999, Packet: pkt.New(map[pkt.Field]values.Value{})}}); err == nil {
		t.Fatal("expected error for unknown ingress port")
	}
}

// TestEngineStreamRejectsMidRun: an unknown port inside a run of a replay
// ends the stream there. The packets before it run, are counted in full and
// nothing after it is admitted; the error names the port, and the engine
// takes the next replay. A ResetObserved between the two replays leaves the
// observed matrix holding the second one's counts alone.
func TestEngineStreamRejectsMidRun(t *testing.T) {
	comp, _, tm := compileCampus(t, 1)
	second := trace(tm, 64, 4)
	alone := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 1})
	if err := alone.InjectReplay(second); err != nil {
		t.Fatal(err)
	}
	wantObs := alone.ObservedMatrix()
	alone.Close()
	total := func(m traffic.Matrix) (n float64) {
		for _, c := range m {
			n += c
		}
		return n
	}
	for _, workers := range []int{1, 2} {
		eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: workers})
		tr := trace(tm, 64, 3)
		tr[37].Port = 9999 // runs of 32: the second run's sixth packet
		if err := eng.InjectReplay(tr); err == nil || !strings.Contains(err.Error(), "9999") {
			t.Fatalf("workers=%d: replay with port 9999 at index 37 returned %v", workers, err)
		}
		if st := eng.Stats(); st.Injected != 37 || st.Delivered+st.Dropped != 37 {
			t.Fatalf("workers=%d: injected %d, retired %d; want the 37 packets before the bad port", workers, st.Injected, st.Delivered+st.Dropped)
		}
		if n := total(eng.ObservedMatrix()); n != 37 {
			t.Fatalf("workers=%d: observed matrix holds %v packets, want the 37 before the bad port", workers, n)
		}
		eng.ResetObserved()
		if err := eng.InjectReplay(second); err != nil {
			t.Fatalf("workers=%d: replay after a rejected one: %v", workers, err)
		}
		if st := eng.Stats(); st.Injected != 37+64 || st.Injected != st.Delivered+st.Dropped {
			t.Fatalf("workers=%d: injected %d, retired %d; want 101 of each", workers, st.Injected, st.Delivered+st.Dropped)
		}
		if got := eng.ObservedMatrix(); !maps.Equal(got, wantObs) {
			t.Fatalf("workers=%d: observed matrix after a reset and the second replay %v, the second replay alone %v", workers, got, wantObs)
		}
		eng.Close()
	}
}

// TestEngineAccountingMatchesNetwork: a walker counts its run in its own
// memory and publishes it once, when the run ends. So once a replay of
// multi-packet runs returns, the engine's counters equal what the
// sequential Network counted packet by packet, at any worker count, and
// the per-switch load and the observed matrix do not depend on the worker
// count. The campus trace has policy drops (every seventh packet's source
// lies outside its ingress subnet, which the assumption drops), suspends
// (the monitor and the seen flag live on one switch) and dead-link drops
// (the same link is failed on every plane).
func TestEngineAccountingMatchesNetwork(t *testing.T) {
	netw := topo.Campus(1000)
	seenWriter := syntax.Cond(
		syntax.FieldEq(pkt.SrcPort, values.Int(53)),
		syntax.WriteState("seen",
			syntax.Vec(syntax.F(pkt.DstIP), syntax.F(pkt.DNSRData)),
			syntax.V(values.Bool(true))),
		syntax.Id(),
	)
	deployed, _ := deploy(t, campusWorkload(syntax.Par(seenWriter, apps.Monitor())), netw, nil)
	cfg := deployed.Config()
	rng := rand.New(rand.NewSource(23))
	tr := make([]dataplane.Ingress, 600)
	for i := range tr {
		port, pk := campusPacket(rng)
		if i%7 == 0 {
			pk.Set(pkt.SrcIP, values.IPv4(10, 0, byte(1+port%6), 1))
		}
		tr[i] = dataplane.Ingress{Port: port, Packet: pk}
	}
	// The first link whose failure the trace meets is the dead one.
	var dead topo.Link
	var want dataplane.Stats
	for _, dead = range netw.Links {
		seq := dataplane.New(cfg)
		seq.FailLink(dead.From, dead.To)
		for i := range tr {
			if _, err := seq.Inject(tr[i].Port, tr[i].Packet); err != nil {
				t.Fatalf("sequential inject %d: %v", i, err)
			}
		}
		if want = seq.Stats(); want.Drops[dataplane.DropDeadLink] > 0 {
			break
		}
	}
	if want.Drops[dataplane.DropPolicy] == 0 || want.Drops[dataplane.DropDeadLink] == 0 || want.Suspends == 0 || want.Delivered == 0 {
		t.Fatalf("trace lacks a case: %+v; want policy drops, dead-link drops, suspends and deliveries", want)
	}

	type view struct {
		load  map[topo.NodeID]dataplane.SwitchLoad
		obs   traffic.Matrix
		drops map[int]int64
	}
	var first *view
	for _, workers := range []int{1, 2, 4} {
		eng := dataplane.NewEngine(cfg, dataplane.Options{Workers: workers})
		if err := eng.FailLink(dead.From, dead.To); err != nil {
			t.Fatal(err)
		}
		longest := 0
		eng.WatchGate(func(n, _ int) { longest = max(longest, n) })
		if err := eng.InjectReplay(tr); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := eng.Stats()
		if longest < 2 {
			t.Errorf("workers=%d: longest run %d packets, want runs of more than one", workers, longest)
		}
		if got.Injected != want.Injected || got.Delivered != want.Delivered || got.Dropped != want.Dropped ||
			got.Drops != want.Drops || got.Hops != want.Hops || got.Suspends != want.Suspends {
			t.Errorf("workers=%d: engine counted %+v, network %+v", workers, got, want)
		}
		v := &view{eng.Load(), eng.ObservedMatrix(), eng.DropsByIngress()}
		eng.Close()
		if first == nil {
			first = v
			continue
		}
		if !maps.Equal(v.load, first.load) {
			t.Errorf("workers=%d: per-switch load %v, workers=1 %v", workers, v.load, first.load)
		}
		if !maps.Equal(v.obs, first.obs) {
			t.Errorf("workers=%d: observed matrix %v, workers=1 %v", workers, v.obs, first.obs)
		}
		if !maps.Equal(v.drops, first.drops) {
			t.Errorf("workers=%d: drops by ingress %v, workers=1 %v", workers, v.drops, first.drops)
		}
	}
}

// TestEngineStreamTrickle: a producer sends one packet and waits for it to
// retire before it sends the next. A run that waited to fill would hold
// the first packet back forever, and a stream that read an empty channel as
// its end would return before the second.
func TestEngineStreamTrickle(t *testing.T) {
	comp, _, tm := compileCampus(t, 1)
	tr := trace(tm, 20, 5)
	for _, workers := range []int{1, 2} {
		eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: workers})
		ch := make(chan dataplane.Ingress)
		done := make(chan error, 1)
		go func() { done <- eng.InjectStream(ch) }()
		deadline := time.After(10 * time.Second)
		finished := 0
	feed:
		for i := range tr {
			select {
			case ch <- tr[i]:
			case err := <-done:
				t.Fatalf("workers=%d: stream returned %v before packet %d was sent", workers, err, i)
			case <-deadline:
				break feed
			}
			for st := eng.Stats(); st.Delivered+st.Dropped < int64(i+1); st = eng.Stats() {
				select {
				case <-deadline:
					break feed
				case <-time.After(100 * time.Microsecond):
				}
			}
			finished++
		}
		close(ch)
		if err := <-done; err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		eng.Close()
		if finished != len(tr) {
			t.Fatalf("workers=%d: %d of %d trickled packets retired within 10 s", workers, finished, len(tr))
		}
	}
}

// TestEngineWindowHolds: runs are admitted whole, yet the gate never lets
// more than Window packets into flight. Two workers take runs of
// Window/4 packets, one at a window of 4 and two at a window of 8.
func TestEngineWindowHolds(t *testing.T) {
	comp, _, tm := compileCampus(t, 1)
	tr := trace(tm, 2000, 11)
	for _, tc := range []struct{ window, run int }{{4, 1}, {8, 2}} {
		eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2, Window: tc.window})
		high, longest := 0, 0 // written by the injecting goroutine
		eng.WatchGate(func(n, inflight int) {
			high, longest = max(high, inflight), max(longest, n)
		})
		if err := eng.InjectReplay(tr); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		if high > tc.window {
			t.Fatalf("window %d: %d packets in flight", tc.window, high)
		}
		if longest != tc.run {
			t.Fatalf("window %d: the longest run carried %d packets, want %d", tc.window, longest, tc.run)
		}
	}
}

// TestLockContentionCounters: the engine attributes blocked switch-lock
// acquisitions to variables and survives reconfiguration by folding
// retired planes into the engine history. On a single-core runner
// contention may legitimately be zero, so the assertions are structural:
// consistency between Stats and the per-variable map, and monotonicity
// across an ApplyConfig.
func TestLockContentionCounters(t *testing.T) {
	netw := topo.Campus(1000)
	plane, _ := deploy(t, campusWorkload(apps.Monitor()), netw, nil)
	eng := dataplane.NewEngine(plane.Config(), dataplane.Options{Workers: 4, Window: 32})
	defer eng.Close()
	rng := rand.New(rand.NewSource(11))
	batch := make([]dataplane.Ingress, 0, 400)
	for i := 0; i < 400; i++ {
		port, pk := campusPacket(rng)
		batch = append(batch, dataplane.Ingress{Port: port, Packet: pk})
	}
	if err := eng.InjectReplay(batch); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.LockSuspends < 0 || st.LockWaitNs < 0 {
		t.Fatalf("negative contention counters: %+v", st)
	}
	if st.LockSuspends > 0 && st.LockWaitNs == 0 {
		t.Fatal("suspends recorded with zero cumulative wait")
	}
	before := eng.LockContention()
	var total int64
	for v, c := range before {
		if c.Suspends <= 0 && c.WaitNs <= 0 {
			t.Fatalf("empty contention entry for %q", v)
		}
		total += c.Suspends
	}
	if total > st.LockSuspends {
		t.Fatalf("per-variable suspends %d exceed engine total %d", total, st.LockSuspends)
	}
	// Reconfigure to the same config: history must fold, not reset.
	if err := eng.ApplyConfig(plane.Config(), nil); err != nil {
		t.Fatal(err)
	}
	after := eng.LockContention()
	for v, c := range before {
		if after[v].Suspends < c.Suspends || after[v].WaitNs < c.WaitNs {
			t.Fatalf("contention for %q shrank across reconfiguration: %+v -> %+v", v, c, after[v])
		}
	}
}

// TestSnapshotAfterClose: the control-plane readers keep working on a
// closed engine and read what they read before it closed.
func TestSnapshotAfterClose(t *testing.T) {
	policy := campusWorkload(apps.Monitor())
	netw := topo.Campus(1000)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			plane, _ := deploy(t, policy, netw, nil)
			eng := dataplane.NewEngine(plane.Config(), dataplane.Options{Workers: workers})
			defer eng.Close()
			rng := rand.New(rand.NewSource(11))
			trace := make([]dataplane.Ingress, 300)
			for i := range trace {
				port, p := campusPacket(rng)
				trace[i] = dataplane.Ingress{Port: port, Packet: p}
			}
			if err := eng.InjectReplay(trace); err != nil {
				t.Fatal(err)
			}
			before := eng.GlobalState()
			if len(before.Vars()) == 0 {
				t.Fatal("replay wrote no state")
			}
			owner := plane.Config().Placement["count"]
			eng.Close()

			type snapshot struct{ global, table *state.Store }
			done := make(chan snapshot, 1)
			go func() { done <- snapshot{eng.GlobalState(), eng.SwitchTable(owner)} }()
			select {
			case after := <-done:
				if !after.global.Equal(before) {
					t.Fatalf("state read after Close differs\nbefore:\n%s\nafter:\n%s", before, after.global)
				}
				if len(after.table.Entries("count")) != len(before.Entries("count")) {
					t.Fatalf("owner table after Close holds %d entries, want %d",
						len(after.table.Entries("count")), len(before.Entries("count")))
				}
			case <-time.After(10 * time.Second):
				t.Fatal("snapshot after Close did not return")
			}
		})
	}
}

// TestStateReplicationIsInert: Options.StateReplication no longer selects a
// discipline. An engine built with it runs the lock pool: it reports
// ModeLocks, its visits take the owner's lock (a visit that finds it held
// blocks and is counted), and it leaves the same state as an
// engine built without it.
func TestStateReplicationIsInert(t *testing.T) {
	plane, _ := deploy(t, campusWorkload(apps.Monitor()), topo.Campus(1000), nil)
	cfg := plane.Config()
	eng := dataplane.NewEngine(cfg, dataplane.Options{Workers: 2, StateReplication: true})
	defer eng.Close()
	ref := dataplane.NewEngine(cfg, dataplane.Options{Workers: 2})
	defer ref.Close()
	if eng.ExecMode() != dataplane.ModeLocks {
		t.Fatalf("exec mode = %v, want locks", eng.ExecMode())
	}
	// Every monitor packet updates count at its owner: while the test
	// holds the owner's lock, the first visit there blocks and counts.
	rng := rand.New(rand.NewSource(5))
	trace := make([]dataplane.Ingress, 200)
	for i := range trace {
		port, p := campusPacket(rng)
		trace[i] = dataplane.Ingress{Port: port, Packet: p}
	}
	release := eng.HoldSwitch(cfg.Placement["count"])
	done := make(chan error, 1)
	go func() { done <- eng.InjectReplay(trace) }()
	for deadline := time.Now().Add(10 * time.Second); eng.Stats().LockSuspends == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			release()
			t.Fatal("no visit blocked on the held switch lock")
		}
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := ref.InjectReplay(trace); err != nil {
		t.Fatal(err)
	}
	if got, want := eng.GlobalState(), ref.GlobalState(); !got.Equal(want) {
		t.Fatalf("state with the option differs from the lock engine's\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestDisjointSwitchesDoNotContend: a switch's lock guards exactly the
// variables placed there. With count and y on different switches, a replay
// whose every packet writes y at its ingress switch, and touches nothing
// else, runs to the end while count's owner is held, and never blocks.
func TestDisjointSwitchesDoNotContend(t *testing.T) {
	netw := topo.Campus(1000)
	p := campusWorkload(syntax.Cond(syntax.FieldEq(pkt.Inport, values.Int(1)),
		syntax.IncrState("y", syntax.Vec(syntax.F(pkt.SrcIP))),
		syntax.IncrState("count", syntax.Vec(syntax.F(pkt.Inport)))))
	ingress, _ := netw.PortByID(1)
	plane, _ := deploy(t, p, netw, map[string]topo.NodeID{"count": 6, "y": ingress.Switch})
	cfg := plane.Config()
	if cfg.Placement["count"] == cfg.Placement["y"] {
		t.Fatalf("count and y share switch %d", cfg.Placement["y"])
	}
	// One worker: the replay's own visits never contend with each other,
	// so any blocked visit is one that met the held lock.
	eng := dataplane.NewEngine(cfg, dataplane.Options{Workers: 1})
	defer eng.Close()
	rng := rand.New(rand.NewSource(7))
	trace := make([]dataplane.Ingress, 200)
	for i := range trace {
		for trace[i].Port != 1 {
			trace[i].Port, trace[i].Packet = campusPacket(rng)
		}
	}
	release := eng.HoldSwitch(cfg.Placement["count"])
	done := make(chan error, 1)
	go func() { done <- eng.InjectReplay(trace) }()
	select {
	case err := <-done:
		release()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("a replay touching only y blocked on count's owner")
	}
	if n := eng.Stats().LockSuspends; n != 0 {
		t.Fatalf("%d visits blocked, want 0", n)
	}
	if got := len(eng.GlobalState().Entries("y")); got == 0 {
		t.Fatal("the replay wrote no y entry")
	}
}
