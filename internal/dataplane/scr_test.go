// Unit tests for the replication-discipline plumbing around scr.go: the
// link-time safety classification (and its fallback to locks), the
// once-per-program wide-index diagnostics, and the lock-discipline
// contention counters the replication mode exists to eliminate.
package dataplane_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"snap/internal/apps"
	"snap/internal/dataplane"
	"snap/internal/pkt"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/values"
)

// TestReplicationFallbackMixedActs: a policy that both assigns and
// increments the same variable has no convergent merge order, so the
// engine must refuse replication and run the lock discipline instead,
// reporting why.
func TestReplicationFallbackMixedActs(t *testing.T) {
	policy := campusWorkload(syntax.Then(
		syntax.WriteState("v", syntax.F(pkt.SrcIP), syntax.V(values.Int(1))),
		syntax.IncrState("v", syntax.F(pkt.DstIP)),
		apps.Monitor(),
	))
	eng, _, ok := newReplicatedEngine(t, policy, 2, 64)
	if ok {
		eng.Close()
		t.Fatal("mixed set/incr policy was classified replication-safe")
	}
	// newReplicatedEngine closed the refused engine; rebuild to inspect.
	netw := topo.Campus(1000)
	plane, _ := deploy(t, policy, netw, nil)
	eng2 := dataplane.NewEngine(plane.Config(), dataplane.Options{
		Workers: 2, StateReplication: true,
	})
	defer eng2.Close()
	if eng2.ExecMode() != dataplane.ModeLocks {
		t.Fatalf("exec mode = %v, want locks fallback", eng2.ExecMode())
	}
	reasons := eng2.ReplicationFallback()
	if len(reasons) == 0 {
		t.Fatal("fallback engine reports no refusal reasons")
	}
	found := false
	for _, r := range reasons {
		if strings.Contains(r, "mix") && strings.Contains(r, "v") {
			found = true
		}
	}
	if !found {
		t.Fatalf("refusal reasons do not name the mixed-act variable: %v", reasons)
	}
	// The refusal also lands in the link diagnostics, so snapsim -v shows
	// it without a dedicated API call.
	diags := eng2.LinkDiagnostics()
	joined := strings.Join(diags, "\n")
	if !strings.Contains(joined, "replication requested but refused") {
		t.Fatalf("link diagnostics omit the refusal: %v", diags)
	}
}

// TestReplicationExcludesMirrors: fault-tolerance mirror replication
// (cfg.Replicas) shares tables across switches through the lock plane, so
// requesting state replication on top must fall back.
func TestReplicationExcludesMirrors(t *testing.T) {
	comp, _, _ := compileCampus(t, 2)
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{
		Workers: 2, StateReplication: true,
	})
	defer eng.Close()
	if eng.ExecMode() != dataplane.ModeLocks {
		t.Fatalf("exec mode = %v, want locks (mirror replication present)", eng.ExecMode())
	}
	if len(eng.ReplicationFallback()) == 0 {
		t.Fatal("no refusal reasons for mirrored config")
	}
}

// TestWideIndexDiagnostic: an index tuple wider than values.MaxVec drops
// the affected instructions to the interpreter slow path; the link step
// must say so exactly once per program, and (since the wide op is a write)
// it must also block replication.
func TestWideIndexDiagnostic(t *testing.T) {
	wide := syntax.Vec(
		syntax.F(pkt.SrcIP), syntax.F(pkt.DstIP), syntax.F(pkt.SrcPort),
		syntax.F(pkt.DstPort), syntax.F(pkt.Proto),
	)
	policy := campusWorkload(syntax.Then(
		syntax.IncrState("w", wide),
		apps.Monitor(),
	))
	netw := topo.Campus(1000)
	plane, _ := deploy(t, policy, netw, nil)

	diags := dataplane.LinkDiagnostics(plane.Config())
	seen := map[string]bool{}
	for _, d := range diags {
		if !strings.Contains(d, "interpreter slow path") {
			continue
		}
		// Once per distinct program: the "program of switch ..." prefix
		// must not repeat.
		prefix := d[:strings.Index(d, ":")]
		if seen[prefix] {
			t.Fatalf("wide-index diagnostic repeated for %q: %v", prefix, diags)
		}
		seen[prefix] = true
	}
	if len(seen) == 0 {
		t.Fatalf("no wide-index diagnostic in %v", diags)
	}

	eng := dataplane.NewEngine(plane.Config(), dataplane.Options{
		Workers: 2, StateReplication: true,
	})
	defer eng.Close()
	if eng.ExecMode() != dataplane.ModeLocks {
		t.Fatal("wide-index write was classified replication-safe")
	}
	if got := eng.LinkDiagnostics(); len(got) == 0 {
		t.Fatal("engine exposes no link diagnostics")
	}
}

// TestLockContentionCounters: the lock discipline attributes blocked
// stripe acquisitions to variables and survives reconfiguration by folding
// retired planes into the engine history. On a single-core runner
// contention may legitimately be zero, so the assertions are structural:
// consistency between Stats and the per-variable map, and monotonicity
// across an ApplyConfig.
func TestLockContentionCounters(t *testing.T) {
	netw := topo.Campus(1000)
	plane, _ := deploy(t, campusWorkload(apps.Monitor()), netw, nil)
	eng := dataplane.NewEngine(plane.Config(), dataplane.Options{Workers: 4, Window: 32})
	defer eng.Close()
	if eng.ExecMode() != dataplane.ModeLocks {
		t.Fatalf("exec mode = %v, want locks", eng.ExecMode())
	}
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
	// The replication discipline's entire point: same workload, zero lock
	// suspends (asserted hard in TestReplicatedConvergenceUnderLoad).
}

// TestSnapshotAfterClose: the control-plane readers keep working on a
// closed engine and read what they read before it closed. Under the
// replication discipline Close stops the worker goroutines that reconcile
// asks to drain, so a reader that still asked would block forever with the
// admission gate paused, and every later reader behind it.
func TestSnapshotAfterClose(t *testing.T) {
	policy := campusWorkload(apps.Monitor())
	netw := topo.Campus(1000)
	for _, replication := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			replication, workers := replication, workers
			t.Run(fmt.Sprintf("replication=%v/workers=%d", replication, workers), func(t *testing.T) {
				plane, _ := deploy(t, policy, netw, nil)
				eng := dataplane.NewEngine(plane.Config(), dataplane.Options{
					Workers: workers, StateReplication: replication,
				})
				defer eng.Close()
				if replication && eng.ExecMode() != dataplane.ModeReplication {
					t.Fatalf("monitor refused replication: %v", eng.ReplicationFallback())
				}
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

				type snapshot struct {
					global, table *state.Store
					audit         error
				}
				done := make(chan snapshot, 1)
				go func() {
					done <- snapshot{eng.GlobalState(), eng.SwitchTable(owner), eng.AuditReplicas()}
				}()
				select {
				case after := <-done:
					if !after.global.Equal(before) {
						t.Fatalf("state read after Close differs\nbefore:\n%s\nafter:\n%s", before, after.global)
					}
					if len(after.table.Entries("count")) != len(before.Entries("count")) {
						t.Fatalf("owner table after Close holds %d entries, want %d",
							len(after.table.Entries("count")), len(before.Entries("count")))
					}
					if after.audit != nil {
						t.Fatal(after.audit)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("snapshot after Close did not return")
				}
			})
		}
	}
}
