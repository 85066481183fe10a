// In-package tests for the recovery discipline (recovery.go): the retry
// loop and its deadline, the per-operation circuit-breaker lifecycle, the
// panic envelope, and the Step failure-atomicity regression — a failed
// control-loop iteration must be a clean no-op. In-package because the
// breaker tests drive a fake clock through the recoveryState.now/sleep
// hooks. The fault-injection tests arm process-global fault points, so
// none of them may run in parallel.
package ctrl

import (
	"errors"
	"testing"
	"time"

	"snap/internal/apps"
	"snap/internal/core"
	"snap/internal/dataplane"
	"snap/internal/faultpoint"
	"snap/internal/pkt"
	"snap/internal/place"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// newRecoveryHarness cold-starts the campus monitor workload and wraps it
// in a controller with the given options.
func newRecoveryHarness(t *testing.T, opts Options) (*Controller, *dataplane.Engine, *topo.Topology) {
	t.Helper()
	tp := topo.Campus(1000)
	tm := traffic.Gravity(tp, 100, 1)
	policy := syntax.Then(
		apps.Assumption(6),
		syntax.Then(apps.Monitor(), apps.AssignEgress(6)),
	)
	comp, err := core.ColdStart(policy, tp, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2, Window: 16})
	t.Cleanup(eng.Close)
	return New(comp, eng, opts), eng, tp
}

// fakeClock replaces the recovery state's wall clock: now reads a settable
// instant and sleep advances it, so backoff and cooldown are tested
// without real waiting.
type fakeClock struct{ cur time.Time }

func (f *fakeClock) install(c *Controller) {
	f.cur = time.Unix(1000, 0)
	c.rec.now = func() time.Time { return f.cur }
	c.rec.sleep = func(d time.Duration) { f.cur = f.cur.Add(d) }
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

// TestWithRecoveryRetriesThenSucceeds: a body that fails twice under
// MaxAttempts=3 is retried with doubling (jittered) backoff and the
// operation succeeds; the breaker never trips.
func TestWithRecoveryRetriesThenSucceeds(t *testing.T) {
	ctl, _, _ := newRecoveryHarness(t, Options{
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, JitterSeed: 5},
	})
	var clk fakeClock
	clk.install(ctl)

	boom := errors.New("boom")
	attempts := 0
	err := ctl.withRecovery("reconfig", func() error {
		attempts++
		if attempts < 3 {
			return boom
		}
		return nil
	})
	if err != nil {
		t.Fatalf("withRecovery = %v, want success on third attempt", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if got := ctl.Retries(); got != 2 {
		t.Fatalf("Retries = %d, want 2", got)
	}
	if s := ctl.BreakerState("reconfig"); s != BreakerClosed {
		t.Fatalf("breaker = %v, want closed", s)
	}
	// Two backoffs elapsed on the fake clock: 1ms and 2ms plus up to half
	// jitter each — bounded by [3ms, 4.5ms].
	elapsed := clk.cur.Sub(time.Unix(1000, 0))
	if elapsed < 3*time.Millisecond || elapsed > 4500*time.Microsecond {
		t.Fatalf("backoff elapsed %v, want within [3ms, 4.5ms]", elapsed)
	}
}

// TestWithRecoveryDeadline: a retry whose backoff would cross the deadline
// is not taken — the operation fails with the body's error, not a sleep
// that overshoots the budget.
func TestWithRecoveryDeadline(t *testing.T) {
	ctl, _, _ := newRecoveryHarness(t, Options{
		Retry: RetryPolicy{
			MaxAttempts: 10,
			BaseDelay:   time.Millisecond,
			Deadline:    3 * time.Millisecond,
			JitterSeed:  5,
		},
	})
	var clk fakeClock
	clk.install(ctl)

	boom := errors.New("boom")
	attempts := 0
	err := ctl.withRecovery("reconfig", func() error {
		attempts++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("withRecovery = %v, want the body's error", err)
	}
	// Attempt 1 retries after ~1-1.5ms; attempt 2's ~2-3ms backoff would
	// cross the 3ms deadline, so it is the last.
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (deadline stops the third)", attempts)
	}
	if clk.cur.Sub(time.Unix(1000, 0)) >= 3*time.Millisecond {
		t.Fatal("slept past the deadline")
	}
}

// TestBreakerLifecycle drives one operation's breaker around the full
// closed → open → half-open → (re-open | closed) cycle on a fake clock.
func TestBreakerLifecycle(t *testing.T) {
	ctl, _, _ := newRecoveryHarness(t, Options{
		Retry:   RetryPolicy{MaxAttempts: 1},
		Breaker: BreakerPolicy{Threshold: 2, Cooldown: time.Minute},
	})
	var clk fakeClock
	clk.install(ctl)

	boom := errors.New("boom")
	calls := 0
	fail := func() error { calls++; return boom }
	succeed := func() error { calls++; return nil }

	// Two consecutive exhausted operations open the breaker.
	if err := ctl.withRecovery("reconfig", fail); !errors.Is(err, boom) {
		t.Fatalf("first failure: %v", err)
	}
	if s := ctl.BreakerState("reconfig"); s != BreakerClosed {
		t.Fatalf("breaker after one strike = %v, want closed", s)
	}
	if err := ctl.withRecovery("reconfig", fail); !errors.Is(err, boom) {
		t.Fatalf("second failure: %v", err)
	}
	if s := ctl.BreakerState("reconfig"); s != BreakerOpen {
		t.Fatalf("breaker after threshold = %v, want open", s)
	}
	if !ctl.Degraded() {
		t.Fatal("controller not degraded with an open breaker")
	}

	// Open + not cooled: rejected without running the body.
	before := calls
	if err := ctl.withRecovery("reconfig", fail); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("cooling-down call = %v, want ErrCircuitOpen", err)
	}
	if calls != before {
		t.Fatal("open breaker still ran the body")
	}
	// Other operations are unaffected: breakers are per-op.
	if s := ctl.BreakerState("failover"); s != BreakerClosed {
		t.Fatalf("unrelated op's breaker = %v, want closed", s)
	}

	// Cooled down: one probe is admitted; its failure re-opens immediately.
	clk.cur = clk.cur.Add(time.Minute + time.Second)
	before = calls
	if err := ctl.withRecovery("reconfig", fail); !errors.Is(err, boom) {
		t.Fatalf("half-open probe = %v, want the body's error", err)
	}
	if calls != before+1 {
		t.Fatal("half-open breaker did not admit the probe")
	}
	if s := ctl.BreakerState("reconfig"); s != BreakerOpen {
		t.Fatalf("breaker after failed probe = %v, want open (single strike)", s)
	}
	if err := ctl.withRecovery("reconfig", fail); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("post-reopen call = %v, want ErrCircuitOpen", err)
	}

	// Cooled down again: a successful probe closes the breaker.
	clk.cur = clk.cur.Add(time.Minute + time.Second)
	if err := ctl.withRecovery("reconfig", succeed); err != nil {
		t.Fatalf("successful probe = %v", err)
	}
	if s := ctl.BreakerState("reconfig"); s != BreakerClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", s)
	}
	if ctl.Degraded() {
		t.Fatal("controller still degraded after the breaker closed")
	}
}

// TestContainPanicConvertsPanic: the operation envelope turns a panic into
// a returned error instead of crashing the control loop.
func TestContainPanicConvertsPanic(t *testing.T) {
	ctl, _, _ := newRecoveryHarness(t, Options{})
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

// TestStepFailureIsCleanNoOp is the partial-failure regression test: a
// Step whose recompile or apply fails must leave the controller exactly
// where it was — lineage, reference matrix, observation window, history,
// engine epoch all unchanged — and the next Step must fire on the same
// drift evidence and succeed once the fault clears.
func TestStepFailureIsCleanNoOp(t *testing.T) {
	cases := []struct {
		name  string
		point string
	}{
		{"recompile-fails", faultpoint.CtrlRecompile},
		{"apply-fails", faultpoint.EngineApplyLink},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(faultpoint.Reset)
			ctl, eng, tp := newRecoveryHarness(t, Options{Threshold: 0.15, MinSample: 500})

			// Drive drifted traffic: the engine was compiled for gravity
			// seed 1, the replay draws from seed 2.
			shifted := traffic.Gravity(tp, 100, 2)
			if err := eng.InjectReplay(replayIngress(shifted, 3000, 7)); err != nil {
				t.Fatal(err)
			}
			div, drifted := ctl.Drift()
			if !drifted {
				t.Fatalf("no drift (%.3f) on a shifted matrix; test setup broken", div)
			}

			compBefore := ctl.Compilation()
			obsBefore := eng.ObservedMatrix().Total()
			histBefore := len(ctl.History())

			faultpoint.Enable(tc.point, faultpoint.Plan{Times: 1})
			rec, err := ctl.Step()
			if err == nil {
				t.Fatal("Step succeeded despite the injected fault")
			}
			if !errors.Is(err, faultpoint.ErrInjected) {
				t.Fatalf("Step error does not unwrap to ErrInjected: %v", err)
			}
			if rec != nil {
				t.Fatalf("failed Step returned a reconfig record: %+v", rec)
			}

			// Clean no-op: nothing advanced.
			if ctl.Compilation() != compBefore {
				t.Fatal("failed Step replaced the compilation lineage")
			}
			if ctl.LastGood() != compBefore {
				t.Fatal("failed Step moved the last-known-good anchor")
			}
			if e := eng.Epoch(); e != 0 {
				t.Fatalf("engine epoch advanced to %d on a failed Step", e)
			}
			if n := len(ctl.History()); n != histBefore {
				t.Fatalf("history grew to %d on a failed Step", n)
			}
			if got := eng.ObservedMatrix().Total(); got != obsBefore {
				t.Fatalf("observation window changed on a failed Step: %v → %v", obsBefore, got)
			}
			// Tolerance: Divergence sums floats in map order, so the
			// recomputation can differ in the last bits.
			if div2, drifted2 := ctl.Drift(); !drifted2 || div2 < div-1e-9 || div2 > div+1e-9 {
				t.Fatalf("drift evidence lost: was %.3f/true, now %.3f/%v", div, div2, drifted2)
			}
			if tc.point == faultpoint.EngineApplyLink {
				if r := eng.Stats().Rollbacks; r != 1 {
					t.Fatalf("engine Rollbacks = %d, want 1 (failed apply rolled back)", r)
				}
			}

			// The fault was one-shot: the very next Step fires on the same
			// evidence and commits.
			rec, err = ctl.Step()
			if err != nil {
				t.Fatalf("retry Step: %v", err)
			}
			if rec == nil {
				t.Fatal("retry Step did not reconfigure on the retained drift evidence")
			}
			if e := eng.Epoch(); e != 1 {
				t.Fatalf("epoch after retry = %d, want 1", e)
			}
			if ctl.LastGood() != ctl.Compilation() {
				t.Fatal("last-known-good not advanced with the committed Step")
			}
		})
	}
}

// TestStepRetriesThroughTransientFault: with a retry budget, a one-shot
// recompile fault is absorbed inside a single Step call — the operation
// retries and commits without surfacing an error.
func TestStepRetriesThroughTransientFault(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	ctl, eng, tp := newRecoveryHarness(t, Options{
		Threshold: 0.15,
		MinSample: 500,
		Retry:     RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, JitterSeed: 3},
	})
	var clk fakeClock
	clk.install(ctl)

	shifted := traffic.Gravity(tp, 100, 2)
	if err := eng.InjectReplay(replayIngress(shifted, 3000, 9)); err != nil {
		t.Fatal(err)
	}
	faultpoint.Enable(faultpoint.CtrlRecompile, faultpoint.Plan{Times: 1})
	rec, err := ctl.Step()
	if err != nil {
		t.Fatalf("Step with retry budget = %v, want absorbed fault", err)
	}
	if rec == nil {
		t.Fatal("Step did not reconfigure")
	}
	if got := ctl.Retries(); got != 1 {
		t.Fatalf("Retries = %d, want 1", got)
	}
	if e := eng.Epoch(); e != 1 {
		t.Fatalf("epoch = %d, want 1", e)
	}
}
