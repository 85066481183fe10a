// Replication-discipline equivalence suite: the state-compute replication
// engine mode (scr.go) against the formal semantics evaluator and the
// sequential Network, mirroring linked_equiv_test.go.
//
// Two claims are asserted, matching the discipline's contract:
//
//   - lockstep exactness at batch size 1: a worker publishes its packet's
//     update log before the injection is released and every worker drains
//     before walking, so one-packet-at-a-time replay is identical to the
//     sequential plane — deliveries AND state — at any worker count;
//   - convergence under concurrency: with many packets in flight on
//     different workers (including forced ring backpressure), all worker
//     replicas must be equal once the logs drain (AuditReplicas), and for
//     commutative policies the final state must equal the sequential
//     reference exactly.
package dataplane_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"snap/internal/apps"
	"snap/internal/dataplane"
	"snap/internal/pkt"
	"snap/internal/rules"
	"snap/internal/semantics"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/values"
)

// newReplicatedEngine builds an engine requesting the replication
// discipline; ok is false (with the fallback reasons) when the plane
// classified replication-unsafe and fell back to locks.
func newReplicatedEngine(t *testing.T, policy syntax.Policy, workers, ring int) (*dataplane.Engine, *dataplane.Network, bool) {
	t.Helper()
	netw := topo.Campus(1000)
	plane, _ := deploy(t, policy, netw, nil)
	eng := dataplane.NewEngine(plane.Config(), dataplane.Options{
		Workers:          workers,
		Window:           16,
		StateReplication: true,
		ReplicationRing:  ring,
	})
	if eng.ExecMode() != dataplane.ModeReplication {
		reasons := eng.ReplicationFallback()
		eng.Close()
		t.Logf("replication refused: %v", reasons)
		return nil, plane, false
	}
	return eng, plane, true
}

// checkReplicatedEquivalence verifies lockstep exactness at batch size 1:
// per packet, semantics deliveries == replicated-engine deliveries and the
// reconciled global state matches the evaluator's store, at the given
// worker count (round-robin dispatch exercises the rings between every
// consecutive packet pair).
func checkReplicatedEquivalence(t *testing.T, policy syntax.Policy, packets int, seed int64, workers int) bool {
	t.Helper()
	eng, _, ok := newReplicatedEngine(t, policy, workers, 0)
	if !ok {
		return false
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(seed))
	ref := state.NewStore()
	for i := 0; i < packets; i++ {
		port, p := richPacket(rng)

		res, err := semantics.Eval(policy, ref, p)
		if err != nil {
			var ce *semantics.ConflictError
			if errors.As(err, &ce) {
				t.Skipf("packet %d: dynamic state conflict, reference undefined: %v", i, err)
			}
			t.Fatalf("packet %d: semantics eval: %v", i, err)
		}
		ref = res.Store
		want := map[string]bool{}
		for _, wp := range res.Packets {
			out := wp.Field(pkt.Outport)
			if out.Kind != values.KindInt {
				continue
			}
			if _, ok := eng.Config().Topo.PortByID(int(out.Num)); !ok {
				continue
			}
			want[fmt.Sprintf("%d|%s", out.Num, wp.Key())] = true
		}

		got, err := eng.InjectBatch([]dataplane.Ingress{{Port: port, Packet: p}})
		if err != nil {
			t.Fatalf("packet %d: engine inject: %v", i, err)
		}
		if len(got[0]) != len(want) {
			t.Fatalf("packet %d (%v): replicated engine delivered %d, semantics says %d (%v vs %v)",
				i, p, len(got[0]), len(want), got[0], want)
		}
		for _, d := range got[0] {
			if !want[deliveryKey(d)] {
				t.Fatalf("packet %d: delivery %s not in semantics output %v", i, deliveryKey(d), want)
			}
		}
		if !eng.GlobalState().Equal(ref) {
			t.Fatalf("packet %d: replicated state diverges\nengine:\n%s\nref:\n%s", i, eng.GlobalState(), ref)
		}
		if err := eng.AuditReplicas(); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	return true
}

// TestReplicatedPlaneAppEquivalence runs every catalogue application that
// classifies replication-safe through the replicated engine, batch size 1,
// at 1, 2 and 4 workers. Unsafe apps fall back to locks and are skipped; a
// minimum number must actually exercise the replicated path.
func TestReplicatedPlaneAppEquivalence(t *testing.T) {
	packets := 40
	if testing.Short() {
		packets = 20
	}
	replicated := 0
	for _, app := range apps.All() {
		inner, err := app.Policy()
		if err != nil {
			t.Fatalf("%s: parse: %v", app.Name, err)
		}
		app := app
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s/workers=%d", app.Name, workers)
			ran := false
			t.Run(name, func(t *testing.T) {
				ran = checkReplicatedEquivalence(t, campusWorkload(inner), packets, int64(len(app.Name))*31, workers)
				if !ran {
					t.Skip("policy classified replication-unsafe; lock fallback covered by linked_equiv_test")
				}
			})
			if ran {
				replicated++
			}
		}
	}
	if replicated < 6 {
		t.Fatalf("only %d app×worker combinations exercised the replicated path", replicated)
	}
}

// repGen generates replication-safe random policies: value assignments
// only ever target variable "s" and deltas only ever target "t", so no
// variable mixes acts and classification must accept every generated
// policy. Everything else mirrors polGen (linked_equiv_test.go).
type repGen struct{ rng *rand.Rand }

func (g *repGen) value() values.Value {
	return []values.Value{values.Int(1), values.Int(2), values.Bool(true)}[g.rng.Intn(3)]
}
func (g *repGen) field() pkt.Field {
	return []pkt.Field{pkt.SrcPort, pkt.DstPort, pkt.Inport}[g.rng.Intn(3)]
}
func (g *repGen) expr() syntax.Expr {
	if g.rng.Intn(2) == 0 {
		return syntax.V(g.value())
	}
	return syntax.F(g.field())
}

func (g *repGen) pred(depth int) syntax.Pred {
	if depth <= 0 {
		switch g.rng.Intn(4) {
		case 0:
			return syntax.Id()
		case 1:
			return syntax.FieldEq(g.field(), g.value())
		case 2:
			return syntax.TestState([]string{"s", "t"}[g.rng.Intn(2)], g.expr(), g.expr())
		default:
			return syntax.Neg(syntax.FieldEq(g.field(), g.value()))
		}
	}
	switch g.rng.Intn(3) {
	case 0:
		return syntax.Or{X: g.pred(depth - 1), Y: g.pred(depth - 1)}
	case 1:
		return syntax.And{X: g.pred(depth - 1), Y: g.pred(depth - 1)}
	default:
		return g.pred(0)
	}
}

func (g *repGen) policy(depth int) syntax.Policy {
	if depth <= 0 {
		switch g.rng.Intn(5) {
		case 0:
			return g.pred(0)
		case 1:
			return syntax.Assign(g.field(), g.value())
		case 2:
			return syntax.WriteState("s", g.expr(), g.expr())
		case 3:
			return syntax.IncrState("t", g.expr())
		default:
			return syntax.DecrState("t", g.expr())
		}
	}
	switch g.rng.Intn(4) {
	case 0:
		return syntax.Seq{P: g.policy(depth - 1), Q: g.policy(depth - 1)}
	case 1:
		return syntax.Parallel{P: g.policy(depth - 1), Q: g.policy(depth - 1)}
	case 2:
		return syntax.Cond(g.pred(1), g.policy(depth-1), g.policy(depth-1))
	default:
		return g.policy(0)
	}
}

// replicableFuzzPolicies yields compiled replication-safe random policies
// from seeded generators, requiring a minimum survival rate.
func replicableFuzzPolicies(t *testing.T, seeds int) []syntax.Policy {
	t.Helper()
	var out []syntax.Policy
	for seed := int64(0); seed < int64(seeds); seed++ {
		g := &repGen{rng: rand.New(rand.NewSource(2000 + seed))}
		inner := g.policy(2 + g.rng.Intn(2))
		policy := syntax.Then(
			apps.Assumption(6),
			syntax.Then(inner, apps.AssignEgress(6)),
		)
		if !compiles(policy) {
			continue
		}
		out = append(out, policy)
	}
	if len(out) < seeds/3 {
		t.Fatalf("only %d/%d replication-safe random policies compiled — generator drifted?", len(out), seeds)
	}
	return out
}

// TestReplicatedPlaneFuzzEquivalence: seeded replication-safe random
// policies, batch size 1, against the semantics evaluator at 2 workers
// (rings exercised between every consecutive packet).
func TestReplicatedPlaneFuzzEquivalence(t *testing.T) {
	seeds, packets := 12, 30
	if testing.Short() {
		seeds, packets = 6, 15
	}
	for i, policy := range replicableFuzzPolicies(t, seeds) {
		policy := policy
		t.Run(fmt.Sprintf("policy=%d", i), func(t *testing.T) {
			if !checkReplicatedEquivalence(t, policy, packets, int64(i), 2) {
				t.Fatalf("replication-safe policy refused the replicated path: %v", policy)
			}
		})
	}
}

// TestReplicatedConvergenceUnderLoad replays concurrent traffic (full
// admission window, workers ∈ {2,4,8}) through replicated planes with a
// deliberately tiny update ring (capacity 4), forcing publish backpressure
// and the drain-while-spinning path. After quiescence every worker replica
// must audit equal; for the delta-only monitor the global state must
// additionally equal the sequential Network reference exactly — delta
// merges are commutative, so concurrency must not change the sums.
func TestReplicatedConvergenceUnderLoad(t *testing.T) {
	packets := 600
	if testing.Short() {
		packets = 200
	}
	policies := map[string]syntax.Policy{
		"monitor": campusWorkload(apps.Monitor()),
	}
	for i, p := range replicableFuzzPolicies(t, 6) {
		policies[fmt.Sprintf("fuzz=%d", i)] = p
	}
	for name, policy := range policies {
		exactState := name == "monitor" // delta-only: order-independent
		for _, workers := range []int{2, 4, 8} {
			policy, workers := policy, workers
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				eng, plane, ok := newReplicatedEngine(t, policy, workers, 4)
				if !ok {
					t.Fatalf("policy classified replication-unsafe")
				}
				defer eng.Close()

				rng := rand.New(rand.NewSource(7 * int64(workers)))
				trace := make([]dataplane.Ingress, packets)
				for i := range trace {
					port, p := richPacket(rng)
					trace[i] = dataplane.Ingress{Port: port, Packet: p}
				}
				if err := eng.InjectReplay(trace); err != nil {
					t.Fatalf("replay: %v", err)
				}
				if err := eng.AuditReplicas(); err != nil {
					t.Fatal(err)
				}
				st := eng.Stats()
				if st.Injected != int64(packets) {
					t.Fatalf("injected %d of %d", st.Injected, packets)
				}
				if st.LockSuspends != 0 {
					t.Fatalf("replication mode took %d lock suspensions", st.LockSuspends)
				}
				if exactState {
					for _, ing := range trace {
						if _, err := plane.Inject(ing.Port, ing.Packet); err != nil {
							t.Fatalf("reference inject: %v", err)
						}
					}
					if !eng.GlobalState().Equal(plane.GlobalState()) {
						t.Fatalf("delta-only state diverged from sequential reference\nengine:\n%s\nref:\n%s",
							eng.GlobalState(), plane.GlobalState())
					}
				}
			})
		}
	}
}

// TestReplicatedReconfigure drives an epoch swap on a live replicated
// engine: replay, ApplyConfig of the same configuration (every worker's
// replica of the state must reach the same worker of the next plane),
// replay again, and compare against an uninterrupted sequential reference.
func TestReplicatedReconfigure(t *testing.T) {
	policy := campusWorkload(apps.Monitor())
	eng, plane, ok := newReplicatedEngine(t, policy, 4, 0)
	if !ok {
		t.Fatalf("monitor must classify replication-safe")
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(11))
	trace := make([]dataplane.Ingress, 300)
	for i := range trace {
		port, p := campusPacket(rng)
		trace[i] = dataplane.Ingress{Port: port, Packet: p}
	}
	half := len(trace) / 2
	if err := eng.InjectReplay(trace[:half]); err != nil {
		t.Fatalf("first half: %v", err)
	}
	if err := eng.ApplyConfig(eng.Config(), nil); err != nil {
		t.Fatalf("ApplyConfig: %v", err)
	}
	if eng.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", eng.Epoch())
	}
	if eng.ExecMode() != dataplane.ModeReplication {
		t.Fatalf("post-swap mode = %v, want replication", eng.ExecMode())
	}
	if err := eng.InjectReplay(trace[half:]); err != nil {
		t.Fatalf("second half: %v", err)
	}
	if err := eng.AuditReplicas(); err != nil {
		t.Fatal(err)
	}
	for _, ing := range trace {
		if _, err := plane.Inject(ing.Port, ing.Packet); err != nil {
			t.Fatalf("reference inject: %v", err)
		}
	}
	if !eng.GlobalState().Equal(plane.GlobalState()) {
		t.Fatalf("state after epoch swap diverged\nengine:\n%s\nref:\n%s",
			eng.GlobalState(), plane.GlobalState())
	}
}

// TestSwapAcrossDisciplines: an edit that introduces a replication blocker
// (v assigned as well as incremented) takes a replicated plane to locks,
// and the edit that removes it takes it back. Each swap must preserve every
// entry — worker 0's tables become the shared ones; the shared ones are
// handed to worker 0 and spelled out for the others — and the replicas must
// converge afterwards.
func TestSwapAcrossDisciplines(t *testing.T) {
	netw := topo.Campus(1000)
	deltas := campusWorkload(syntax.Then(
		syntax.IncrState("v", syntax.F(pkt.SrcIP)),
		syntax.IncrState("v", syntax.F(pkt.DstIP)),
		apps.Monitor(),
	))
	mixed := campusWorkload(syntax.Then(
		syntax.WriteState("v", syntax.F(pkt.SrcIP), syntax.V(values.Int(1))),
		syntax.IncrState("v", syntax.F(pkt.DstIP)),
		apps.Monitor(),
	))
	replicable, _ := deploy(t, deltas, netw, nil)
	blocked, _ := deploy(t, mixed, netw, nil)

	eng := dataplane.NewEngine(replicable.Config(), dataplane.Options{Workers: 4, Window: 16, StateReplication: true})
	defer eng.Close()

	rng := rand.New(rand.NewSource(13))
	injected := 0
	replay := func(want dataplane.ExecMode) {
		t.Helper()
		if eng.ExecMode() != want {
			t.Fatalf("exec mode = %v, want %v: %v", eng.ExecMode(), want, eng.ReplicationFallback())
		}
		trace := make([]dataplane.Ingress, 300)
		for i := range trace {
			port, p := campusPacket(rng)
			trace[i] = dataplane.Ingress{Port: port, Packet: p}
		}
		if err := eng.InjectReplay(trace); err != nil {
			t.Fatal(err)
		}
		injected += len(trace)
		if err := eng.AuditReplicas(); err != nil {
			t.Fatal(err)
		}
		if n := countSum(eng.GlobalState()); n != int64(injected) {
			t.Fatalf("count sum %d after %d packets", n, injected)
		}
	}
	swap := func(cfg *rules.Config) {
		t.Helper()
		before := eng.GlobalState()
		if len(before.Entries("v")) == 0 || len(before.Entries("count")) == 0 {
			t.Fatalf("nothing to preserve:\n%s", before)
		}
		if err := eng.ApplyConfig(cfg, nil); err != nil {
			t.Fatalf("ApplyConfig: %v", err)
		}
		if err := eng.AuditReplicas(); err != nil {
			t.Fatal(err)
		}
		if after := eng.GlobalState(); !after.Equal(before) {
			t.Fatalf("state changed across the swap\nbefore:\n%s\nafter:\n%s", before, after)
		}
	}

	replay(dataplane.ModeReplication)
	swap(blocked.Config())
	if n := reseated(t, eng); n != 0 {
		t.Fatalf("replication to locks spelled out %d entries, want worker 0's tables handed over", n)
	}
	replay(dataplane.ModeLocks)
	swap(replicable.Config())
	if n := reseated(t, eng); n == 0 {
		t.Fatal("locks to replication reports no reseated entries: workers 1 to 3 need copies")
	}
	replay(dataplane.ModeReplication)
}
