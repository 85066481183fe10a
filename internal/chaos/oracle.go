// The differential oracle: an independent shadow of the network's state,
// maintained by replaying every injected packet through the one-big-switch
// denotational semantics (internal/semantics.Eval) — the same reference the
// xFDD equivalence suites trust — never by copying engine internals. In any
// window the shadow can track (no open failure), the engine's merged global
// state must equal the shadow exactly at every quiescent boundary, and
// sampled probe flows injected in lockstep must produce exactly the
// delivery set the semantics predicts. Windows the shadow cannot track
// (failure injected but not yet failed over, failovers that lost
// unreplicated entries) end with an explicit, counted resync.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"snap/internal/apps"
	"snap/internal/parser"
	"snap/internal/pkt"
	"snap/internal/semantics"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// policyVariants builds the rotation of soak policies for a network with n
// OBS ports. All variants share the same two delta-written state variables
// (count, flows) — so live policy edits re-place and migrate real entries
// instead of dropping them — and differ in the stateful inner program:
// unconditional counting, or counting gated on the packet's L4 ports. All
// variants forward every admitted packet (the inner program never drops),
// which is what lets the harness demand zero drops in healthy windows
// regardless of which variant is live.
func policyVariants(n int) []syntax.Policy {
	count := parser.MustParse(`count[inport]++`)
	flows := parser.MustParse(`flows[srcip]++`)
	inner := []syntax.Policy{
		syntax.Then(count, flows),
		syntax.Then(
			syntax.Cond(syntax.FieldEq(pkt.DstPort, values.Int(80)), count, syntax.Identity{}),
			flows,
		),
		syntax.Then(
			count,
			syntax.Cond(syntax.FieldEq(pkt.DstPort, values.Int(53)), flows, syntax.Identity{}),
		),
	}
	out := make([]syntax.Policy, len(inner))
	for i, p := range inner {
		out[i] = syntax.Then(apps.Assumption(n), syntax.Then(p, apps.AssignEgress(n)))
	}
	return out
}

// flowPacket builds the packet a churn-trace flow injects: ingress at port
// u from subnet 10.0.u.0/24 (honoring the operator assumption), destined
// to subnet 10.0.v.0/24 (so AssignEgress forwards it out port v), with
// host address and L4 ports derived from the flow identity — recycling
// identities is what turns over the flows[srcip] state keys. The host
// space is capped at 32 per subnet: enough for real key churn, small
// enough that the shadow store the differential oracle drags through
// semantics.Eval (which clones the store at every AST node) stays cheap.
func flowPacket(u, v int, id uint32) pkt.Packet {
	host := byte(1 + id%32)
	return pkt.New(map[pkt.Field]values.Value{
		pkt.Inport:  values.Int(int64(u)),
		pkt.SrcIP:   values.IPv4(10, 0, byte(u), host),
		pkt.DstIP:   values.IPv4(10, 0, byte(v), 1),
		pkt.SrcPort: values.Int(int64(1024 + id%4096)),
		pkt.DstPort: values.Int([]int64{53, 80, 443}[id%3]),
	})
}

// drawPair samples one demand-proportional port pair, deterministically
// per rng state; ok is false when the matrix has no positive demand.
func drawPair(m traffic.Matrix, rng *rand.Rand) (pair [2]int, ok bool) {
	pairs := m.Pairs()
	cum := make([]float64, 0, len(pairs))
	var total float64
	kept := pairs[:0]
	for _, p := range pairs {
		if d := m[p]; d > 0 {
			total += d
			kept = append(kept, p)
			cum = append(cum, total)
		}
	}
	if len(kept) == 0 || total <= 0 {
		return pair, false
	}
	j := sort.SearchFloat64s(cum, rng.Float64()*total)
	if j >= len(kept) {
		j = len(kept) - 1
	}
	return kept[j], true
}

// oracle is the shadow semantics store plus its tracking status.
type oracle struct {
	policy syntax.Policy
	store  *state.Store
	// synced is true while the shadow tracks the engine exactly; an open
	// failure window (in-flight copies dropped mid-policy) or a lossy
	// failover breaks tracking until the next resync.
	synced bool
}

// eval advances the shadow by one packet and returns the delivery keys
// ("port|packetKey") the semantics predicts on the given topology.
func (o *oracle) eval(t *topo.Topology, p pkt.Packet) (map[string]bool, error) {
	res, err := semantics.Eval(o.policy, o.store, p)
	if err != nil {
		return nil, err
	}
	o.store = res.Store
	want := map[string]bool{}
	for _, wp := range res.Packets {
		out := wp.Field(pkt.Outport)
		if out.Kind != values.KindInt {
			continue
		}
		if _, ok := t.PortByID(int(out.Num)); !ok {
			continue
		}
		want[fmt.Sprintf("%d|%s", out.Num, wp.Key())] = true
	}
	return want, nil
}

// entryCount sums the state entries across every variable of a store.
func entryCount(st *state.Store) int {
	n := 0
	for _, v := range st.Vars() {
		n += st.Len(v)
	}
	return n
}
