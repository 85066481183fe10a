// Options.StateReplication stays as an inert field until the benchmark
// re-base deletes it (ROADMAP). These suites pin what it means now: an
// engine built with it runs the lock pool, and at batch size 1 matches the
// formal semantics evaluator packet by packet — deliveries and state — on
// every catalogue application and on seeded random policies, at any worker
// count. They go with the field.
package dataplane_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"snap/internal/apps"
	"snap/internal/dataplane"
	"snap/internal/pkt"
	"snap/internal/semantics"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/values"
)

// checkStateReplicationEquivalence replays packets one at a time through a
// campus engine built with StateReplication set, against semantics.Eval.
// It reports false when the reference hit a dynamic state conflict and the
// comparison was cut short.
func checkStateReplicationEquivalence(t *testing.T, policy syntax.Policy, packets int, seed int64, workers int) bool {
	t.Helper()
	plane, _ := deploy(t, policy, topo.Campus(1000), nil)
	eng := dataplane.NewEngine(plane.Config(), dataplane.Options{
		Workers:          workers,
		Window:           16,
		StateReplication: true,
	})
	defer eng.Close()
	if eng.ExecMode() != dataplane.ModeLocks {
		t.Fatalf("exec mode = %v, want locks", eng.ExecMode())
	}

	rng := rand.New(rand.NewSource(seed))
	ref := state.NewStore()
	for i := 0; i < packets; i++ {
		port, p := richPacket(rng)

		res, err := semantics.Eval(policy, ref, p)
		if err != nil {
			var ce *semantics.ConflictError
			if errors.As(err, &ce) {
				t.Logf("packet %d: dynamic state conflict, reference undefined: %v", i, err)
				return false
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
			t.Fatalf("packet %d (%v): engine delivered %d, semantics says %d (%v vs %v)",
				i, p, len(got[0]), len(want), got[0], want)
		}
		for _, d := range got[0] {
			if !want[deliveryKey(d)] {
				t.Fatalf("packet %d: delivery %s not in semantics output %v", i, deliveryKey(d), want)
			}
		}
		if !eng.GlobalState().Equal(ref) {
			t.Fatalf("packet %d: state diverges\nengine:\n%s\nref:\n%s", i, eng.GlobalState(), ref)
		}
	}
	return true
}

// TestReplicatedPlaneAppEquivalence runs every catalogue application
// through an engine built with StateReplication, batch size 1, at 1, 2 and
// 4 workers. An app whose reference hits a dynamic state conflict is
// skipped; a minimum number must compare to the end.
func TestReplicatedPlaneAppEquivalence(t *testing.T) {
	packets := 40
	if testing.Short() {
		packets = 20
	}
	compared := 0
	for _, app := range apps.All() {
		inner, err := app.Policy()
		if err != nil {
			t.Fatalf("%s: parse: %v", app.Name, err)
		}
		for _, workers := range []int{1, 2, 4} {
			ran := false
			t.Run(fmt.Sprintf("%s/workers=%d", app.Name, workers), func(t *testing.T) {
				ran = checkStateReplicationEquivalence(t, campusWorkload(inner), packets, int64(len(app.Name))*31, workers)
				if !ran {
					t.Skip("reference undefined on this trace")
				}
			})
			if ran {
				compared++
			}
		}
	}
	if compared < 42 {
		t.Fatalf("only %d app×worker combinations compared to the end", compared)
	}
}

// splitGen generates random policies in which value assignments only ever
// target variable "s" and deltas only ever target "t". Everything else
// mirrors polGen (linked_equiv_test.go).
type splitGen struct{ rng *rand.Rand }

func (g *splitGen) value() values.Value {
	return []values.Value{values.Int(1), values.Int(2), values.Bool(true)}[g.rng.Intn(3)]
}
func (g *splitGen) field() pkt.Field {
	return []pkt.Field{pkt.SrcPort, pkt.DstPort, pkt.Inport}[g.rng.Intn(3)]
}
func (g *splitGen) expr() syntax.Expr {
	if g.rng.Intn(2) == 0 {
		return syntax.V(g.value())
	}
	return syntax.F(g.field())
}

func (g *splitGen) pred(depth int) syntax.Pred {
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

func (g *splitGen) policy(depth int) syntax.Policy {
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

// TestReplicatedPlaneFuzzEquivalence: seeded random policies, batch size
// 1, through an engine built with StateReplication at 2 workers, against
// the semantics evaluator.
func TestReplicatedPlaneFuzzEquivalence(t *testing.T) {
	seeds, packets := 12, 30
	if testing.Short() {
		seeds, packets = 6, 15
	}
	var policies []syntax.Policy
	for seed := int64(0); seed < int64(seeds); seed++ {
		g := &splitGen{rng: rand.New(rand.NewSource(2000 + seed))}
		policy := campusWorkload(g.policy(2 + g.rng.Intn(2)))
		if compiles(policy) {
			policies = append(policies, policy)
		}
	}
	if len(policies) < seeds/3 {
		t.Fatalf("only %d/%d random policies compiled — generator drifted?", len(policies), seeds)
	}
	for i, policy := range policies {
		t.Run(fmt.Sprintf("policy=%d", i), func(t *testing.T) {
			if !checkStateReplicationEquivalence(t, policy, packets, int64(i), 2) {
				t.Skip("reference undefined on this trace")
			}
		})
	}
}
