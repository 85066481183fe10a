// Compiled-plane sequential-equivalence suite: the linked VM (dense state
// tables, flat extractors, inline pending writes) against the formal
// semantics evaluator (internal/semantics), packet by packet, over the
// example application catalogue, seeded random policies, and the sharded
// monitor workload — through both runtimes (sequential Network, concurrent
// Engine at batch size 1, which is lockstep-exact for any policy). Linking
// is a cost transformation, never a semantic one; this suite is the fence.
package dataplane_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"snap/internal/apps"
	"snap/internal/dataplane"
	"snap/internal/pkt"
	"snap/internal/place"
	"snap/internal/psmap"
	"snap/internal/rules"
	"snap/internal/semantics"
	"snap/internal/shard"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
	"snap/internal/xfdd"
)

// richPacket extends campusPacket with the deep fields the application
// catalogue branches on (DNS, TCP flags, session ids, payload markers),
// so app-specific paths are exercised, not just the forwarding skeleton.
func richPacket(rng *rand.Rand) (int, pkt.Packet) {
	port, p := campusPacket(rng)
	if rng.Intn(2) == 0 {
		p = p.With(pkt.DNSQName, values.String([]string{"a.com", "b.org", "evil.io"}[rng.Intn(3)]))
		p = p.With(pkt.DNSTTL, values.Int(int64(rng.Intn(3))))
	}
	if rng.Intn(2) == 0 {
		p = p.With(pkt.TCPFlags, values.Int([]int64{2, 16, 18}[rng.Intn(3)])) // SYN, ACK, SYN+ACK
		p = p.With(pkt.Proto, values.Int([]int64{6, 17}[rng.Intn(2)]))
	}
	if rng.Intn(3) == 0 {
		p = p.With(pkt.SessionID, values.Int(int64(1+rng.Intn(3))))
		p = p.With(pkt.FTPPort, values.Int(int64(2000+rng.Intn(3))))
	}
	return port, p
}

// checkCompiledEquivalence compiles policy onto the campus and verifies,
// per packet: semantics.Eval deliveries == Network deliveries == Engine
// (batch-of-1) deliveries, and all three global states agree.
func checkCompiledEquivalence(t *testing.T, policy syntax.Policy, packets int, seed int64) {
	t.Helper()
	netw := topo.Campus(1000)
	plane, _ := deploy(t, policy, netw, nil)
	eng := dataplane.NewEngine(plane.Config(), dataplane.Options{
		Workers: 1,
		Window:  16,
	})
	defer eng.Close()

	rng := rand.New(rand.NewSource(seed))
	ref := state.NewStore()
	for i := 0; i < packets; i++ {
		port, p := richPacket(rng)

		res, err := semantics.Eval(policy, ref, p)
		if err != nil {
			// A dynamic read/write conflict the static pipeline cannot
			// see: the semantics is undefined from here on (the xFDD fuzz
			// suite skips these the same way).
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
			if _, ok := netw.PortByID(int(out.Num)); !ok {
				continue
			}
			want[fmt.Sprintf("%d|%s", out.Num, wp.Key())] = true
		}

		got, err := plane.Inject(port, p)
		if err != nil {
			t.Fatalf("packet %d: network inject: %v", i, err)
		}
		gotE, err := eng.InjectBatch([]dataplane.Ingress{{Port: port, Packet: p}})
		if err != nil {
			t.Fatalf("packet %d: engine inject: %v", i, err)
		}

		for name, ds := range map[string][]dataplane.Delivery{"network": got, "engine": gotE[0]} {
			if len(ds) != len(want) {
				t.Fatalf("packet %d (%v): %s delivered %d, semantics says %d (%v vs %v)",
					i, p, name, len(ds), len(want), ds, want)
			}
			for _, d := range ds {
				if !want[deliveryKey(d)] {
					t.Fatalf("packet %d: %s delivery %s not in semantics output %v", i, name, deliveryKey(d), want)
				}
			}
		}
		if !plane.GlobalState().Equal(ref) {
			t.Fatalf("packet %d: network state diverges\nplane:\n%s\nref:\n%s", i, plane.GlobalState(), ref)
		}
		if !eng.GlobalState().Equal(ref) {
			t.Fatalf("packet %d: engine state diverges\nengine:\n%s\nref:\n%s", i, eng.GlobalState(), ref)
		}
	}
}

// TestCompiledPlaneAppEquivalence runs the whole application catalogue
// (wrapped in the campus assumption/assign-egress harness) through the
// compiled plane against the semantics evaluator.
func TestCompiledPlaneAppEquivalence(t *testing.T) {
	packets := 60
	if testing.Short() {
		packets = 25
	}
	compiled := 0
	for _, app := range apps.All() {
		inner, err := app.Policy()
		if err != nil {
			t.Fatalf("%s: parse: %v", app.Name, err)
		}
		app := app
		t.Run(app.Name, func(t *testing.T) {
			checkCompiledEquivalence(t, campusWorkload(inner), packets, int64(len(app.Name))*31)
		})
		compiled++
	}
	if compiled < 10 {
		t.Fatalf("only %d apps exercised", compiled)
	}
}

// --- Seeded random policies (the xFDD fuzz domain, end to end) ---

type polGen struct{ rng *rand.Rand }

func (g *polGen) value() values.Value {
	return []values.Value{values.Int(1), values.Int(2), values.Bool(true)}[g.rng.Intn(3)]
}
func (g *polGen) field() pkt.Field {
	return []pkt.Field{pkt.SrcPort, pkt.DstPort, pkt.Inport}[g.rng.Intn(3)]
}
func (g *polGen) stateVar() string { return []string{"s", "t"}[g.rng.Intn(2)] }
func (g *polGen) expr() syntax.Expr {
	if g.rng.Intn(2) == 0 {
		return syntax.V(g.value())
	}
	return syntax.F(g.field())
}

func (g *polGen) pred(depth int) syntax.Pred {
	if depth <= 0 {
		switch g.rng.Intn(4) {
		case 0:
			return syntax.Id()
		case 1:
			return syntax.FieldEq(g.field(), g.value())
		case 2:
			return syntax.TestState(g.stateVar(), g.expr(), g.expr())
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

func (g *polGen) policy(depth int) syntax.Policy {
	if depth <= 0 {
		switch g.rng.Intn(5) {
		case 0:
			return g.pred(0)
		case 1:
			return syntax.Assign(g.field(), g.value())
		case 2:
			return syntax.WriteState(g.stateVar(), g.expr(), g.expr())
		case 3:
			return syntax.IncrState(g.stateVar(), g.expr())
		default:
			return syntax.DecrState(g.stateVar(), g.expr())
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

// TestCompiledPlaneFuzzEquivalence compiles seeded random policies (the
// fuzz domain the xFDD equivalence tests use, taken end to end through
// placement, rules and the linked VM) and checks them packet by packet
// against the semantics evaluator. Seeds whose policy the pipeline
// rejects (inconsistent parallel state access and similar static errors)
// are skipped; a minimum number must survive.
func TestCompiledPlaneFuzzEquivalence(t *testing.T) {
	seeds := 24
	packets := 40
	if testing.Short() {
		seeds, packets = 10, 20
	}
	ok := 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		g := &polGen{rng: rand.New(rand.NewSource(1000 + seed))}
		inner := g.policy(2 + g.rng.Intn(2))
		policy := syntax.Then(
			apps.Assumption(6),
			syntax.Then(inner, apps.AssignEgress(6)),
		)
		if !compiles(policy) {
			continue
		}
		ok++
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkCompiledEquivalence(t, policy, packets, seed)
		})
	}
	if ok < 8 {
		t.Fatalf("only %d/%d random policies compiled — generator drifted?", ok, seeds)
	}
}

// compiles reports whether the full pipeline (translate → place → rules)
// accepts the policy; random compositions can be statically inconsistent.
func compiles(policy syntax.Policy) bool {
	d, order, err := xfdd.Translate(policy)
	if err != nil {
		return false
	}
	netw := topo.Campus(1000)
	in := place.Inputs{
		Topo:    netw,
		Demands: traffic.Gravity(netw, 100, 9),
		Mapping: psmap.Build(d, netw.PortIDs()),
		Order:   order,
	}
	res, err := place.Solve(in, place.Options{Method: place.Heuristic})
	if err != nil {
		return false
	}
	_, err = rules.Generate(d, netw, res.Placement, res.Routes)
	return err == nil
}

// TestCompiledPlaneShardedEquivalence: the sharded monitor workload
// through Network and Engine must, after shard.Merge, match the semantics
// evaluator's state for the unsharded policy, with identical deliveries.
func TestCompiledPlaneShardedEquivalence(t *testing.T) {
	packets := 200
	if testing.Short() {
		packets = 80
	}
	plan := shard.PortsPlan("count", []int{1, 2, 3, 4, 5, 6})
	shardedInner, err := shard.Apply(apps.Monitor(), plan)
	if err != nil {
		t.Fatalf("shard.Apply: %v", err)
	}
	unsharded := campusWorkload(apps.Monitor())
	sharded := campusWorkload(shardedInner)

	netw := topo.Campus(1000)
	shardNet, _ := deploy(t, sharded, netw, nil)
	eng := dataplane.NewEngine(shardNet.Config(), dataplane.Options{
		Workers: 1,
		Window:  16,
	})
	defer eng.Close()

	rng := rand.New(rand.NewSource(42))
	ref := state.NewStore()
	for i := 0; i < packets; i++ {
		port, p := campusPacket(rng)
		res, err := semantics.Eval(unsharded, ref, p)
		if err != nil {
			t.Fatalf("packet %d: eval: %v", i, err)
		}
		ref = res.Store
		got, err := shardNet.Inject(port, p)
		if err != nil {
			t.Fatalf("packet %d: network: %v", i, err)
		}
		gotE, err := eng.InjectBatch([]dataplane.Ingress{{Port: port, Packet: p}})
		if err != nil {
			t.Fatalf("packet %d: engine: %v", i, err)
		}
		if len(got) != len(res.Packets) || len(gotE[0]) != len(res.Packets) {
			t.Fatalf("packet %d: deliveries diverge: net %d, eng %d, semantics %d",
				i, len(got), len(gotE[0]), len(res.Packets))
		}
	}
	for name, st := range map[string]*state.Store{
		"network": shardNet.GlobalState(),
		"engine":  eng.GlobalState(),
	} {
		merged, err := shard.Merge(st, plan, nil)
		if err != nil {
			t.Fatalf("%s: merge: %v", name, err)
		}
		if !merged.Equal(ref) {
			t.Fatalf("%s: merged sharded state != semantics state\nmerged:\n%s\nref:\n%s", name, merged, ref)
		}
	}
}
