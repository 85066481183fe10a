// In-package tests for the controller's failure contract: the panic
// envelope, and the clean no-op a failed operation must be — every
// operation returns its error with nothing advanced, and issuing it again
// commits. In-package because the panic test calls containPanic directly.
// The fault-injection tests arm process-global fault points, so none of
// them may run in parallel.
package ctrl

import (
	"errors"
	"strings"
	"testing"

	"snap/internal/apps"
	"snap/internal/core"
	"snap/internal/dataplane"
	"snap/internal/fault"
	"snap/internal/faultpoint"
	"snap/internal/pkt"
	"snap/internal/place"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// monitorPolicy is the campus monitor workload the failure harness runs;
// extra is composed before the egress assignment, so a policy edit can
// insert a filter.
func monitorPolicy(extra syntax.Policy) syntax.Policy {
	return syntax.Then(apps.Assumption(6), syntax.Then(apps.Monitor(), syntax.Then(extra, apps.AssignEgress(6))))
}

// newFailureHarness cold-starts the campus monitor workload and wraps it
// in a controller with the given options.
func newFailureHarness(t *testing.T, opts Options) (*Controller, *dataplane.Engine, *topo.Topology) {
	t.Helper()
	tp := topo.Campus(1000)
	tm := traffic.Gravity(tp, 100, 1)
	comp, err := core.ColdStart(monitorPolicy(syntax.Id()), tp, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2, Window: 16})
	t.Cleanup(eng.Close)
	return New(comp, eng, opts), eng, tp
}

// replayIngress draws n matrix-proportional packets honoring the campus
// workload (srcip in the ingress subnet, dstip addressing the egress).
func replayIngress(tm traffic.Matrix, n int, seed int64) []dataplane.Ingress {
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

// entryCount sums the state entries across every variable of a store.
func entryCount(st *state.Store) int {
	n := 0
	for _, v := range st.Vars() {
		n += st.Len(v)
	}
	return n
}

// TestContainPanicConvertsPanic: the operation envelope turns a panic into
// a returned error instead of crashing the control loop.
func TestContainPanicConvertsPanic(t *testing.T) {
	ctl, _, _ := newFailureHarness(t, Options{})
	err := func() (err error) {
		defer ctl.containPanic("reconfig", &err)
		panic("kaboom")
	}()
	if err == nil {
		t.Fatal("contained panic produced no error")
	}
	if want := "ctrl: contained panic in reconfig: kaboom"; err.Error() != want {
		t.Fatalf("error = %q, want %q", err.Error(), want)
	}
}

// TestStepFailureIsCleanNoOp is the partial-failure regression test for
// every controller operation — Step, ApplyPolicy, Failover and Restore —
// with a one-shot fault at the recompile or at the engine's apply. The
// operation must return the injected error under its "ctrl: <op> <stage>:"
// prefix and leave the controller exactly where it was: lineage, engine
// epoch, history, observation window and state entries unchanged. The
// controller does not retry; issuing the identical operation again is the
// recovery, and it must commit with the epoch advanced by one. Failover
// issued again re-injects its failure, which must be idempotent.
func TestStepFailureIsCleanNoOp(t *testing.T) {
	link := fault.LinkDown(6, 10) // C1–C5: the survivors stay connected
	acl := syntax.Cond(syntax.FieldEq(pkt.SrcPort, values.Int(7777)), syntax.Nothing(), syntax.Id())
	ops := []struct {
		name, label string
		// setup brings the harness to the operation's precondition.
		setup func(t *testing.T, ctl *Controller, eng *dataplane.Engine, tp *topo.Topology)
		run   func(ctl *Controller) error
	}{
		{
			name: "step", label: "reconfig",
			setup: func(t *testing.T, ctl *Controller, eng *dataplane.Engine, tp *topo.Topology) {
				// Drifted traffic: the engine was compiled for gravity
				// seed 1, the replay draws from seed 2.
				if err := eng.InjectReplay(replayIngress(traffic.Gravity(tp, 100, 2), 3000, 7)); err != nil {
					t.Fatal(err)
				}
				if div, drifted := ctl.Drift(); !drifted {
					t.Fatalf("no drift (%.3f) on a shifted matrix; test setup broken", div)
				}
			},
			run: func(ctl *Controller) error {
				rec, err := ctl.Step()
				if err == nil && rec == nil {
					return errors.New("Step did not reconfigure on the retained drift evidence")
				}
				return err
			},
		},
		{
			name: "policy", label: "policy",
			run: func(ctl *Controller) error {
				_, err := ctl.ApplyPolicy(monitorPolicy(acl))
				return err
			},
		},
		{
			name: "failover", label: "failover",
			run: func(ctl *Controller) error {
				_, err := ctl.Failover(link)
				return err
			},
		},
		{
			name: "restore", label: "restore",
			setup: func(t *testing.T, ctl *Controller, _ *dataplane.Engine, _ *topo.Topology) {
				if _, err := ctl.Failover(link); err != nil {
					t.Fatal(err)
				}
			},
			run: func(ctl *Controller) error {
				_, err := ctl.Restore(link, nil)
				return err
			},
		},
	}
	stages := []struct{ name, stage, point string }{
		{"recompile-fails", "recompile", faultpoint.CtrlRecompile},
		{"apply-fails", "apply", faultpoint.EngineApplyLink},
	}
	for _, sg := range stages {
		t.Run(sg.name, func(t *testing.T) {
			for _, op := range ops {
				t.Run(op.name, func(t *testing.T) {
					t.Cleanup(faultpoint.Reset)
					ctl, eng, tp := newFailureHarness(t, Options{Threshold: 0.15, MinSample: 500})
					if err := eng.InjectReplay(replayIngress(traffic.Gravity(tp, 100, 1), 2000, 3)); err != nil {
						t.Fatal(err)
					}
					if op.setup != nil {
						op.setup(t, ctl, eng, tp)
					}

					compBefore, epochBefore := ctl.Compilation(), eng.Epoch()
					histBefore := len(ctl.History())
					obsBefore := eng.ObservedMatrix().Total()
					entriesBefore := entryCount(eng.GlobalState())
					rollbacksBefore := eng.Stats().Rollbacks
					divBefore, _ := ctl.Drift()

					faultpoint.Enable(sg.point, faultpoint.Plan{Times: 1})
					err := op.run(ctl)
					if !errors.Is(err, faultpoint.ErrInjected) {
						t.Fatalf("%s error does not unwrap to ErrInjected: %v", op.name, err)
					}
					if prefix := "ctrl: " + op.label + " " + sg.stage + ":"; !strings.HasPrefix(err.Error(), prefix) {
						t.Fatalf("%s error %q lacks the prefix %q", op.name, err, prefix)
					}

					// Clean no-op: nothing advanced.
					if ctl.Compilation() != compBefore {
						t.Fatal("failed operation replaced the compilation lineage")
					}
					if e := eng.Epoch(); e != epochBefore {
						t.Fatalf("engine epoch moved %d → %d on a failed operation", epochBefore, e)
					}
					if n := len(ctl.History()); n != histBefore {
						t.Fatalf("history grew to %d on a failed operation", n)
					}
					if got := eng.ObservedMatrix().Total(); got != obsBefore {
						t.Fatalf("observation window changed on a failed operation: %v → %v", obsBefore, got)
					}
					if got := entryCount(eng.GlobalState()); got != entriesBefore {
						t.Fatalf("state entries %d → %d on a failed operation", entriesBefore, got)
					}
					// Tolerance: Divergence sums floats in map order, so the
					// recomputation can differ in the last bits.
					if div, _ := ctl.Drift(); div < divBefore-1e-9 || div > divBefore+1e-9 {
						t.Fatalf("drift evidence changed: %.3f → %.3f", divBefore, div)
					}
					if sg.point == faultpoint.EngineApplyLink {
						if r := eng.Stats().Rollbacks - rollbacksBefore; r != 1 {
							t.Fatalf("engine rolled back %d times, want 1", r)
						}
					}

					// The fault was one-shot: the identical operation, issued
					// again, commits.
					if err := op.run(ctl); err != nil {
						t.Fatalf("%s issued again: %v", op.name, err)
					}
					if e := eng.Epoch(); e != epochBefore+1 {
						t.Fatalf("epoch after the operation was issued again = %d, want %d", e, epochBefore+1)
					}
					if ctl.Compilation() == compBefore {
						t.Fatal("committed operation did not advance the compilation lineage")
					}
				})
			}
		})
	}
}
