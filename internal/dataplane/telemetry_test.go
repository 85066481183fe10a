package dataplane_test

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"snap/internal/bench"
	"snap/internal/core"
	"snap/internal/dataplane"
	"snap/internal/place"
	"snap/internal/topo"
	"snap/internal/traffic"
)

// TestEngineTelemetrySeries: after real traffic one scrape of the engine's
// registry exposes the whole dashboard — packet outcomes agreeing with
// Stats, per-switch load, the lock-wait histogram, and the replication
// gauges — without any instrumentation calls from the test.
func TestEngineTelemetrySeries(t *testing.T) {
	comp, _, tm := compileCampus(t, 2)
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
	defer eng.Close()
	if err := eng.InjectReplay(trace(tm, 2000, 3)); err != nil {
		t.Fatal(err)
	}
	eng.FlushReplication()

	var buf bytes.Buffer
	if err := eng.Telemetry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, series := range []string{
		`snap_packets_total{outcome="delivered"}`,
		`snap_packets_total{outcome="dropped"}`,
		"snap_hops_total",
		"snap_suspends_total",
		"# TYPE snap_lock_wait_seconds histogram",
		`snap_replica_lag{kind="mirror"}`,
		`snap_mirror_writes_total{stage="applied"}`,
		"snap_mirror_queue_depth",
		"snap_switch_load_total",
		"snap_epoch 0",
		"snap_swap_reseated_entries_total 0",
		"snap_down_switches 0",
		"snap_go_goroutines",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("scrape is missing %s", series)
		}
	}

	// The counters are scrape-time views over the engine's own atomics, so
	// they must agree with Stats exactly at quiescence.
	st := eng.Stats()
	for _, want := range []string{
		fmt.Sprintf(`snap_packets_total{outcome="delivered"} %d`, st.Delivered),
		fmt.Sprintf(`snap_packets_total{outcome="dropped"} %d`, st.Dropped),
		fmt.Sprintf("snap_hops_total %d", st.Hops),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape disagrees with Stats: missing %q", want)
		}
	}
}

// TestEngineTraceSampling: with 1-in-N sampling on, exactly every Nth
// injection leaves a finished hop-by-hop record in the trace ring, each
// ending in a terminal outcome with a measured latency. Default engines
// (sampling off) keep a nil sampler, so the ring stays absent.
func TestEngineTraceSampling(t *testing.T) {
	comp, _, tm := compileCampus(t, 1)
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2, TraceSampling: 10})
	defer eng.Close()
	if err := eng.InjectReplay(trace(tm, 1000, 7)); err != nil {
		t.Fatal(err)
	}

	recs := eng.Telemetry().Snapshot().Traces
	if len(recs) != 100 {
		t.Fatalf("sampled %d traces from 1000 injections at 1-in-10, want 100", len(recs))
	}
	for _, r := range recs {
		if len(r.Hops) == 0 {
			t.Fatalf("trace seq=%d has no hops", r.Seq)
		}
		last := r.Hops[len(r.Hops)-1].Outcome
		if last != "deliver" && !strings.HasPrefix(last, "drop:") {
			t.Fatalf("trace seq=%d ends in %q, want a terminal outcome", r.Seq, last)
		}
		if r.Latency <= 0 {
			t.Fatalf("trace seq=%d has latency %v", r.Seq, r.Latency)
		}
	}

	off := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
	defer off.Close()
	if err := off.InjectReplay(trace(tm, 100, 7)); err != nil {
		t.Fatal(err)
	}
	if got := off.Telemetry().Snapshot().Traces; len(got) != 0 {
		t.Fatalf("sampling off, yet %d traces recorded", len(got))
	}
}

// settleGoroutines samples the goroutine count until it stops falling:
// goroutines that have been told to exit get a moment to do so.
func settleGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return n
		}
		n = m
	}
	return n
}

// checkGoroutinesBack fails the test unless the goroutine count returns to
// base (taken with settleGoroutines before the engines were built).
func checkGoroutinesBack(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked across engine lifecycles: %d before, %d after\n%s",
			base, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestEngineCloseNoGoroutineLeak: every engine lifecycle — plain, mirror
// replication, and a mid-life failover — winds all its goroutines (workers,
// the mirror drainer) down on Close, and Close is idempotent.
func TestEngineCloseNoGoroutineLeak(t *testing.T) {
	base := settleGoroutines()

	// No mirrors.
	{
		comp, _, tm := compileCampus(t, 1)
		eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
		if err := eng.InjectReplay(trace(tm, 500, 1)); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		eng.Close()
	}

	// Mirror replication plus a failover: the swap must stop the old
	// plane's helpers, and Close after it must stop the new ones.
	{
		comp, tp, tm := compileCampus(t, 2)
		owner := comp.Config.Placement["count"]
		eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
		if err := eng.InjectReplay(trace(tm, 500, 3)); err != nil {
			t.Fatal(err)
		}
		eng.FlushReplication()
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
		if _, err := eng.Failover(comp2.Config, nil); err != nil {
			t.Fatal(err)
		}
		if err := eng.InjectReplay(trace(tm.Restrict(degraded), 500, 4)); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		eng.Close()
	}

	checkGoroutinesBack(t, base)
}

// TestEngineGoroutinesFollowWorkers: the goroutines an engine starts are its
// Options.Workers, whatever the size of the network, so the goroutine count
// is the parallelism bound.
func TestEngineGoroutinesFollowWorkers(t *testing.T) {
	netw := topo.IGen(120, 1000)
	policy, err := bench.MonitorWorkload(false, len(netw.Ports))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.ColdStart(policy, netw, traffic.Gravity(netw, 100, 1), place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	const workers, slack = 2, 2
	base := settleGoroutines()
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: workers})
	defer eng.Close()
	if n := runtime.NumGoroutine() - base; n > workers+slack {
		t.Fatalf("NewEngine on %d switches with Workers: %d started %d goroutines", netw.Switches, workers, n)
	}
}

// TestEngineInjectSteadyStateAllocs: with telemetry registered and
// sampling off (the defaults), the warmed packet loop must not allocate
// per packet — the registry reads the hot path's atomics at scrape time
// instead of interposing on it. The budget below covers only per-call
// bookkeeping (the stream closure, scratch, wait group); one allocation
// per packet would cost ≥200 and trip it.
func TestEngineInjectSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise clean paths")
	}
	comp, _, tm := compileCampus(t, 1)
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 1, Window: 256})
	defer eng.Close()
	tr := trace(tm, 200, 9)
	for i := 0; i < 5; i++ { // insert every state key, size every pool
		if err := eng.InjectReplay(tr); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := eng.InjectReplay(tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 50 {
		t.Fatalf("steady-state replay of %d packets costs %.0f allocs/run, want per-call bookkeeping only (≤50)", len(tr), allocs)
	}
	// The channel-fed frontend receives each packet into a pooled record:
	// per call it adds the channel and its feeding goroutine, nothing per
	// packet.
	allocs = testing.AllocsPerRun(20, func() {
		ch := make(chan dataplane.Ingress, len(tr))
		go func() {
			for i := range tr {
				ch <- tr[i]
			}
			close(ch)
		}()
		if err := eng.InjectStream(ch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 50 {
		t.Fatalf("steady-state stream of %d packets costs %.0f allocs/run, want per-call bookkeeping only (≤50)", len(tr), allocs)
	}
}

// TestInjectReplayCopiesPacketOnce: an admitted injection reaches the
// goroutine that walks it as a pointer to its packet (into the caller's
// trace, or into the pooled record of a channel-fed one), so the 808-byte
// Ingress is copied once, by the walk, into the SimPacket the VM runs on.
// Carried by value it was copied four more times between InjectReplay and
// the walk, 14 % of a forwarded packet's time.
func TestInjectReplayCopiesPacketOnce(t *testing.T) {
	if dataplane.ItemBytes > 32 {
		t.Fatalf("an admitted injection is handed over in %d bytes: it carries the packet, not a pointer to it", dataplane.ItemBytes)
	}
	comp, _, tm := compileCampus(t, 1)
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
	defer eng.Close()
	tr := trace(tm, 300, 9)
	want := slices.Clone(tr)
	if err := eng.InjectReplay(tr); err != nil {
		t.Fatal(err)
	}
	for i := range tr {
		if tr[i].Port != want[i].Port || !tr[i].Packet.Equal(want[i].Packet) {
			t.Fatalf("InjectReplay wrote to the caller's trace at %d", i)
		}
	}
	if st := eng.Stats(); st.Injected != int64(len(tr)) || st.Delivered+st.Dropped < st.Injected {
		t.Fatalf("replay of %d by pointer: %+v", len(tr), st)
	}
}
