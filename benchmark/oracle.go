// The correctness oracle: internal/semantics, the specification, never the
// compiler under test.
//
// semantics.Eval clones the whole store at every AST node, so evaluating a
// packet against a shadow store of 20 000 entries costs milliseconds. The
// oracle therefore evaluates each packet against the projection of the shadow
// onto the keys that packet can name: every state reference in the policy,
// its index expression evaluated on the input packet. That is sound as long
// as no index expression reads a field the policy assigns, which newOracle
// checks and refuses otherwise.
package main

import (
	"fmt"
	"sort"

	"snap/internal/dataplane"
	"snap/internal/pkt"
	"snap/internal/semantics"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/values"
)

type stateRef struct {
	name string
	idx  syntax.Expr
}

type oracle struct {
	policy syntax.Policy
	topo   *topo.Topology
	refs   []stateRef
	shadow *state.Store
}

func newOracle(p syntax.Policy, t *topo.Topology) (*oracle, error) {
	o := &oracle{policy: p, topo: t, shadow: state.NewStore()}
	assigned := map[pkt.Field]bool{}
	var walk func(syntax.Policy)
	walk = func(p syntax.Policy) {
		switch n := p.(type) {
		case syntax.StateTest:
			o.refs = append(o.refs, stateRef{n.Var, n.Idx})
		case syntax.SetState:
			o.refs = append(o.refs, stateRef{n.Var, n.Idx})
		case syntax.Incr:
			o.refs = append(o.refs, stateRef{n.Var, n.Idx})
		case syntax.Decr:
			o.refs = append(o.refs, stateRef{n.Var, n.Idx})
		case syntax.Modify:
			assigned[n.Field] = true
		case syntax.Not:
			walk(n.X)
		case syntax.Or:
			walk(n.X)
			walk(n.Y)
		case syntax.And:
			walk(n.X)
			walk(n.Y)
		case syntax.If:
			walk(n.Cond)
			walk(n.Then)
			walk(n.Else)
		case syntax.Parallel:
			walk(n.P)
			walk(n.Q)
		case syntax.Seq:
			walk(n.P)
			walk(n.Q)
		case syntax.Atomic:
			walk(n.P)
		}
	}
	walk(p)
	var reads func(syntax.Expr) error
	reads = func(e syntax.Expr) error {
		switch x := e.(type) {
		case syntax.FieldRef:
			if assigned[x.Field] {
				return fmt.Errorf("oracle: a state index reads %s, which the policy assigns; the projection would be unsound", x.Field)
			}
		case syntax.TupleExpr:
			for _, el := range x.Elems {
				if err := reads(el); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, r := range o.refs {
		if err := reads(r.idx); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// eval advances the shadow by one packet and returns the deliveries the
// semantics predicts, as sorted "port|packet" keys.
func (o *oracle) eval(in pkt.Packet) ([]string, error) {
	view := state.NewStore()
	for _, r := range o.refs {
		idx := semantics.EvalExpr(r.idx, in)
		if v := o.shadow.Get(r.name, idx); !values.Eq(v, state.Default) {
			view.Set(r.name, idx, v)
		}
	}
	res, err := semantics.Eval(o.policy, view, in)
	if err != nil {
		return nil, err
	}
	for _, name := range res.Store.Vars() {
		for _, e := range res.Store.Entries(name) {
			o.shadow.Set(name, e.Idx, e.Val)
		}
	}
	return o.deliveries(res.Packets), nil
}

// deliveries renders the semantics' output packets that leave at a real port
// as sorted "port|packet" keys.
func (o *oracle) deliveries(packets []pkt.Packet) []string {
	var want []string
	for _, p := range packets {
		out := p.Field(pkt.Outport)
		if out.Kind != values.KindInt {
			continue
		}
		if _, ok := o.topo.PortByID(int(out.Num)); !ok {
			continue
		}
		want = append(want, fmt.Sprintf("%d|%s", out.Num, p.Key()))
	}
	sort.Strings(want)
	return want
}

// deliveryKeys renders an engine delivery set the way eval renders the
// semantics' packet set: egress port and every field.
func deliveryKeys(ds []dataplane.Delivery) []string {
	got := make([]string, len(ds))
	for i, d := range ds {
		got[i] = fmt.Sprintf("%d|%s", d.Port, d.Packet.Key())
	}
	sort.Strings(got)
	return got
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// entryCount sums the bindings of every variable of a store.
func entryCount(st *state.Store) int {
	n := 0
	for _, v := range st.Vars() {
		n += len(st.Entries(v))
	}
	return n
}
