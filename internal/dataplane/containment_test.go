// Failure-containment tests: transactional reconfiguration rollback,
// panic quarantine on the sequential plane and the engine, and the
// mirror-drainer stall point. Every test arms process-global fault points,
// so none of them may run in parallel; t.Cleanup(faultpoint.Reset)
// restores the disarmed state even on failure.
package dataplane_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"snap/internal/apps"
	"snap/internal/dataplane"
	"snap/internal/faultpoint"
	"snap/internal/state"
	"snap/internal/topo"
)

// TestApplyConfigRollbackThenRetry: a failure injected at each stage of
// the prepare→validate→commit swap must roll the engine back to the prior
// plane — epoch unchanged, every state entry intact, traffic still served
// — and a clean retry of the same reconfiguration must then succeed.
func TestApplyConfigRollbackThenRetry(t *testing.T) {
	netw := topo.Campus(1000)
	p := campusWorkload(apps.Monitor())
	planeA, _ := deploy(t, p, netw, map[string]topo.NodeID{"count": 8})
	planeB, _ := deploy(t, p, netw, map[string]topo.NodeID{"count": 2})
	// bump writes count, which no fold touches, through the store of the
	// old plane's tables the swap stages: the store must copy the table
	// before writing it, or a rolled-back swap leaves the old plane's
	// count changed.
	bump := func(st *state.Store) (*state.Store, error) {
		for _, e := range st.Entries("count") {
			st.Add("count", e.Idx, 1000)
		}
		return st, nil
	}
	// The replication row sets the inert StateReplication field.
	for _, c := range []struct {
		name    string
		opts    dataplane.Options
		rewrite dataplane.StateRewrite
	}{
		{"locks", dataplane.Options{Window: 16}, nil},
		{"replication", dataplane.Options{Workers: 4, Window: 16, StateReplication: true}, nil},
		{"rewrite", dataplane.Options{Window: 16}, bump},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Cleanup(faultpoint.Reset)
			eng := dataplane.NewEngine(planeA.Config(), c.opts)
			defer eng.Close()
			if eng.ExecMode() != dataplane.ModeLocks {
				t.Fatalf("exec mode = %v, want locks", eng.ExecMode())
			}

			rng := rand.New(rand.NewSource(7))
			batch := make([]dataplane.Ingress, 0, 150)
			for i := 0; i < 150; i++ {
				port, pk := campusPacket(rng)
				batch = append(batch, dataplane.Ingress{Port: port, Packet: pk})
			}
			if _, err := eng.InjectBatch(batch); err != nil {
				t.Fatalf("warm batch: %v", err)
			}
			before := eng.GlobalState()

			points := []string{
				faultpoint.EngineApplyRewrite,
				faultpoint.EngineApplyLink,
				faultpoint.EngineApplyReseed,
			}
			for i, name := range points {
				faultpoint.Enable(name, faultpoint.Plan{Times: 1})
				err := eng.ApplyConfig(planeB.Config(), c.rewrite)
				if err == nil {
					t.Fatalf("%s: ApplyConfig succeeded despite injected failure", name)
				}
				if !errors.Is(err, faultpoint.ErrInjected) {
					t.Fatalf("%s: error does not unwrap to ErrInjected: %v", name, err)
				}
				if e := eng.Epoch(); e != 0 {
					t.Fatalf("%s: epoch advanced to %d on a failed swap", name, e)
				}
				if !eng.GlobalState().Equal(before) {
					t.Fatalf("%s: state changed across a rolled-back swap", name)
				}
				if got := eng.Stats().Rollbacks; got != int64(i+1) {
					t.Fatalf("%s: Rollbacks = %d, want %d", name, got, i+1)
				}
			}

			// The prior epoch keeps serving: a batch after three rollbacks
			// lands exactly as it would have without them.
			if _, err := eng.InjectBatch(batch); err != nil {
				t.Fatalf("post-rollback batch: %v", err)
			}
			if len(eng.SwitchTable(8).Entries("count")) == 0 {
				t.Fatal("count entries left the original owner without a committed swap")
			}
			if n := countSum(eng.GlobalState()); n != 2*int64(len(batch)) {
				t.Fatalf("count sum after the rollbacks %d, want %d", n, 2*len(batch))
			}

			// Retry with the faults cleared: the identical call now commits,
			// and the state is what the rewrite makes of it, exactly once.
			want := eng.GlobalState()
			if c.rewrite != nil {
				var err error
				if want, err = c.rewrite(want); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.ApplyConfig(planeB.Config(), c.rewrite); err != nil {
				t.Fatalf("retry ApplyConfig: %v", err)
			}
			if e := eng.Epoch(); e != 1 {
				t.Fatalf("epoch after successful retry = %d, want 1", e)
			}
			if !eng.GlobalState().Equal(want) {
				t.Fatalf("state after the retry:\n%s\nwant:\n%s", eng.GlobalState(), want)
			}
			if n := len(eng.SwitchTable(2).Entries("count")); n == 0 {
				t.Fatal("count entries did not migrate on the successful retry")
			}

			var buf strings.Builder
			if err := eng.Telemetry().WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "snap_reconfig_rollbacks_total 3") {
				t.Fatalf("/metrics does not report the rollbacks:\n%s", buf.String())
			}
		})
	}
}

// panicContainedCheck is the containment half of the worker-panic cycle,
// shared by every configuration of the walk: an injected VM panic must
// quarantine (not kill) the plane, conservation must hold with the
// quarantine drops counted, and no state entry may be lost. It returns the
// batch it injected twice.
func panicContainedCheck(t *testing.T, pl interface {
	Stats() dataplane.Stats
	GlobalState() *state.Store
}, inject func([]dataplane.Ingress) error) []dataplane.Ingress {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	batch := make([]dataplane.Ingress, 0, 200)
	for i := 0; i < 200; i++ {
		port, pk := campusPacket(rng)
		batch = append(batch, dataplane.Ingress{Port: port, Packet: pk})
	}
	if err := inject(batch); err != nil {
		t.Fatalf("warm batch: %v", err)
	}
	before := pl.GlobalState()

	faultpoint.Enable(faultpoint.EngineRun, faultpoint.Plan{Kind: faultpoint.KindPanic, Times: 1})
	if err := inject(batch); err != nil {
		t.Fatalf("batch with injected panic poisoned the plane: %v", err)
	}
	st := pl.Stats()
	if st.ContainedPanics != 1 {
		t.Fatalf("ContainedPanics = %d, want 1", st.ContainedPanics)
	}
	if st.QuarantineDrops == 0 {
		t.Fatal("no quarantine drops counted at the quarantined switch")
	}
	if lost := st.Injected - st.Delivered - st.Dropped; lost != 0 {
		t.Fatalf("conservation broken under quarantine: %d copies unaccounted", lost)
	}
	// Zero lost state: the panic fires before the VM writes, and
	// quarantine drops are pre-execution, so everything written before
	// the fault is still there.
	after := pl.GlobalState()
	for _, v := range before.Vars() {
		if b, a := len(before.Entries(v)), len(after.Entries(v)); a < b {
			t.Fatalf("state entries lost under quarantine: %s had %d, now %d", v, b, a)
		}
	}
	return batch
}

// panicQuarantineCheck drives one engine through the whole cycle:
// containment as above, exactly one switch quarantined, and the next
// committed reconfiguration heals.
func panicQuarantineCheck(t *testing.T, eng *dataplane.Engine) {
	t.Helper()
	batch := panicContainedCheck(t, eng, func(b []dataplane.Ingress) error {
		_, err := eng.InjectBatch(b)
		return err
	})
	if q := eng.QuarantinedSwitches(); len(q) != 1 {
		t.Fatalf("quarantined switches = %v, want exactly one", q)
	}

	// A committed reconfiguration (same config) lifts the quarantine.
	if err := eng.ApplyConfig(eng.Config(), nil); err != nil {
		t.Fatalf("healing ApplyConfig: %v", err)
	}
	if q := eng.QuarantinedSwitches(); len(q) != 0 {
		t.Fatalf("quarantine survived the committed swap: %v", q)
	}
	preDrops := eng.Stats().QuarantineDrops
	if _, err := eng.InjectBatch(batch); err != nil {
		t.Fatalf("post-heal batch: %v", err)
	}
	st := eng.Stats()
	if st.QuarantineDrops != preDrops {
		t.Fatal("healed engine still dropping at the formerly quarantined switch")
	}
	if lost := st.Injected - st.Delivered - st.Dropped; lost != 0 {
		t.Fatalf("conservation broken after heal: %d copies unaccounted", lost)
	}
}

// TestWorkerPanicQuarantineNetwork: panic containment on the sequential
// plane. A Network has no reconfiguration, so there is no heal half: the
// quarantine lasts as long as the Network does.
func TestWorkerPanicQuarantineNetwork(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	netw := topo.Campus(1000)
	plane, _ := deploy(t, campusWorkload(apps.Monitor()), netw, nil)
	panicContainedCheck(t, plane, func(b []dataplane.Ingress) error {
		for _, ing := range b {
			if _, err := plane.Inject(ing.Port, ing.Packet); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestWorkerPanicQuarantineLocks: panic containment on the engine.
func TestWorkerPanicQuarantineLocks(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	netw := topo.Campus(1000)
	plane, _ := deploy(t, campusWorkload(apps.Monitor()), netw, nil)
	eng := dataplane.NewEngine(plane.Config(), dataplane.Options{
		Workers: 2, Window: 16,
	})
	defer eng.Close()
	panicQuarantineCheck(t, eng)
}

// TestReplicatorDrainStall: stalling the background mirror drainer lets
// lag accumulate — visibly, at the primaries — and releasing the fault
// point plus a flush returns the pipeline to quiescence with nothing lost.
func TestReplicatorDrainStall(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	comp, _, tm := compileCampus(t, 2)
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
	defer eng.Close()

	faultpoint.Enable(faultpoint.ReplicatorDrain, faultpoint.Plan{Kind: faultpoint.KindStall, Times: -1})
	if err := eng.InjectReplay(trace(tm, 500, 29)); err != nil {
		t.Fatal(err)
	}
	rs := eng.ReplicaStats()
	if rs.Enqueued == 0 {
		t.Fatal("no mirror writes enqueued for a counting workload")
	}
	if rs.Lag == 0 {
		t.Fatal("stalled drainer shows zero lag")
	}

	faultpoint.Disable(faultpoint.ReplicatorDrain)
	eng.FlushReplication()
	rs = eng.ReplicaStats()
	if rs.Lag != 0 || rs.Applied != rs.Enqueued {
		t.Fatalf("pipeline did not recover after the stall: %+v", rs)
	}
	if rs.LostWrites != 0 {
		t.Fatalf("writes lost across a drainer stall: %+v", rs)
	}
}
