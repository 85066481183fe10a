// Package shard implements the state-sharding extension of §7.3 and
// Appendix C of the paper: a state variable such as count[inport] can be
// partitioned into per-value shards (count@1 … count@k plus a catch-all),
// each storing a disjoint slice of the original array. Shards need no
// synchronization, so the placement optimizer may spread them across the
// network — the paper's example of distributing s[inport] per port.
//
// The transformation is a source-to-source rewrite: every access s[e…]
// becomes a dispatch on the sharding field —
//
//	s[e…] = v   ⇒  (f = v1 & s@v1[e…] = v) | … | (f ∉ dom & s@rest[e…] = v)
//	s[e…] ← v   ⇒  if f = v1 then s@v1[e…] ← v else … else s@rest[e…] ← v
//
// which preserves the eval semantics exactly (tests below check this), and
// lets the packet-state mapping see that a flow entering at port i touches
// only shard i.
package shard

import (
	"fmt"

	"snap/internal/pkt"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/values"
)

// Plan describes one sharding: variable Var is dispatched on Field over
// Domain; accesses with a field value outside the domain go to the
// catch-all shard.
type Plan struct {
	Var    string
	Field  pkt.Field
	Domain []values.Value
}

// ShardName returns the name of the shard for domain value v.
func (p Plan) ShardName(v values.Value) string {
	return fmt.Sprintf("%s@%s", p.Var, v)
}

// RestName returns the catch-all shard's name.
func (p Plan) RestName() string { return p.Var + "@rest" }

// Names lists all shard names (domain order, catch-all last).
func (p Plan) Names() []string {
	out := make([]string, 0, len(p.Domain)+1)
	for _, v := range p.Domain {
		out = append(out, p.ShardName(v))
	}
	return append(out, p.RestName())
}

// Apply rewrites a policy under the plan. Accesses to other variables are
// untouched.
func Apply(p syntax.Policy, plan Plan) (syntax.Policy, error) {
	if len(plan.Domain) == 0 {
		return nil, fmt.Errorf("shard: empty domain for %s", plan.Var)
	}
	return rewritePolicy(p, plan)
}

func rewritePolicy(p syntax.Policy, plan Plan) (syntax.Policy, error) {
	switch n := p.(type) {
	case syntax.Identity, syntax.Drop, syntax.Test, syntax.Modify:
		return p, nil

	case syntax.StateTest:
		if n.Var != plan.Var {
			return p, nil
		}
		return dispatchPred(plan, func(shard string) syntax.Pred {
			return syntax.StateTest{Var: shard, Idx: n.Idx, Val: n.Val}
		}), nil

	case syntax.Not:
		x, err := rewritePred(n.X, plan)
		if err != nil {
			return nil, err
		}
		return syntax.Not{X: x}, nil
	case syntax.Or:
		x, err := rewritePred(n.X, plan)
		if err != nil {
			return nil, err
		}
		y, err := rewritePred(n.Y, plan)
		if err != nil {
			return nil, err
		}
		return syntax.Or{X: x, Y: y}, nil
	case syntax.And:
		x, err := rewritePred(n.X, plan)
		if err != nil {
			return nil, err
		}
		y, err := rewritePred(n.Y, plan)
		if err != nil {
			return nil, err
		}
		return syntax.And{X: x, Y: y}, nil

	case syntax.SetState:
		if n.Var != plan.Var {
			return p, nil
		}
		return dispatchWrite(plan, func(shard string) syntax.Policy {
			return syntax.SetState{Var: shard, Idx: n.Idx, Val: n.Val}
		}), nil
	case syntax.Incr:
		if n.Var != plan.Var {
			return p, nil
		}
		return dispatchWrite(plan, func(shard string) syntax.Policy {
			return syntax.Incr{Var: shard, Idx: n.Idx}
		}), nil
	case syntax.Decr:
		if n.Var != plan.Var {
			return p, nil
		}
		return dispatchWrite(plan, func(shard string) syntax.Policy {
			return syntax.Decr{Var: shard, Idx: n.Idx}
		}), nil

	case syntax.Parallel:
		a, err := rewritePolicy(n.P, plan)
		if err != nil {
			return nil, err
		}
		b, err := rewritePolicy(n.Q, plan)
		if err != nil {
			return nil, err
		}
		return syntax.Parallel{P: a, Q: b}, nil
	case syntax.Seq:
		a, err := rewritePolicy(n.P, plan)
		if err != nil {
			return nil, err
		}
		b, err := rewritePolicy(n.Q, plan)
		if err != nil {
			return nil, err
		}
		return syntax.Seq{P: a, Q: b}, nil
	case syntax.If:
		c, err := rewritePred(n.Cond, plan)
		if err != nil {
			return nil, err
		}
		a, err := rewritePolicy(n.Then, plan)
		if err != nil {
			return nil, err
		}
		b, err := rewritePolicy(n.Else, plan)
		if err != nil {
			return nil, err
		}
		return syntax.If{Cond: c, Then: a, Else: b}, nil
	case syntax.Atomic:
		// Sharding inside a transaction would split the co-location the
		// transaction demands.
		if touches(n.P, plan.Var) {
			return nil, fmt.Errorf("shard: %s is accessed inside atomic(...); sharding would break the transaction", plan.Var)
		}
		return p, nil
	}
	return nil, fmt.Errorf("shard: unknown policy node %T", p)
}

func rewritePred(x syntax.Pred, plan Plan) (syntax.Pred, error) {
	p, err := rewritePolicy(x, plan)
	if err != nil {
		return nil, err
	}
	pred, ok := p.(syntax.Pred)
	if !ok {
		return nil, fmt.Errorf("shard: predicate rewrite produced a policy")
	}
	return pred, nil
}

// dispatchPred builds (f=v1 & test(s@v1)) | … | (f∉dom & test(s@rest)).
func dispatchPred(plan Plan, mk func(shard string) syntax.Pred) syntax.Pred {
	var arms []syntax.Pred
	for _, v := range plan.Domain {
		arms = append(arms, syntax.Conj(
			syntax.FieldEq(plan.Field, v),
			mk(plan.ShardName(v)),
		))
	}
	arms = append(arms, syntax.Conj(
		notInDomain(plan),
		mk(plan.RestName()),
	))
	return syntax.Disj(arms...)
}

// dispatchWrite builds if f=v1 then w(s@v1) else … else w(s@rest).
func dispatchWrite(plan Plan, mk func(shard string) syntax.Policy) syntax.Policy {
	out := mk(plan.RestName())
	for i := len(plan.Domain) - 1; i >= 0; i-- {
		v := plan.Domain[i]
		out = syntax.Cond(syntax.FieldEq(plan.Field, v), mk(plan.ShardName(v)), out)
	}
	return out
}

func notInDomain(plan Plan) syntax.Pred {
	var tests []syntax.Pred
	for _, v := range plan.Domain {
		tests = append(tests, syntax.FieldEq(plan.Field, v))
	}
	return syntax.Neg(syntax.Disj(tests...))
}

func touches(p syntax.Policy, v string) bool {
	found := false
	var walk func(syntax.Policy)
	walk = func(p syntax.Policy) {
		switch n := p.(type) {
		case syntax.StateTest:
			found = found || n.Var == v
		case syntax.SetState:
			found = found || n.Var == v
		case syntax.Incr:
			found = found || n.Var == v
		case syntax.Decr:
			found = found || n.Var == v
		case syntax.Not:
			walk(n.X)
		case syntax.Or:
			walk(n.X)
			walk(n.Y)
		case syntax.And:
			walk(n.X)
			walk(n.Y)
		case syntax.Parallel:
			walk(n.P)
			walk(n.Q)
		case syntax.Seq:
			walk(n.P)
			walk(n.Q)
		case syntax.If:
			walk(n.Cond)
			walk(n.Then)
			walk(n.Else)
		case syntax.Atomic:
			walk(n.P)
		}
	}
	walk(p)
	return found
}

// Merge folds a store's shard variables back into the original array,
// undoing the Apply rewrite on the data: the result binds plan.Var where
// the input bound any s@v shard, and every other variable's table passes
// through as it is, shared rather than copied.
// Shards partition accesses by the dispatch field's value, not by index,
// so two shards may bind the same index (e.g. count[srcip] sharded by
// inport, one source entering at two ports); combine resolves such
// collisions (sum for counters, or for flags). A nil combine makes
// collisions an error — the right default when the index tuple contains
// the dispatch field and shards are provably disjoint.
func Merge(st *state.Store, plan Plan, combine func(a, b values.Value) values.Value) (*state.Store, error) {
	out := state.NewStore()
	shardSet := map[string]bool{}
	for _, n := range plan.Names() {
		shardSet[n] = true
	}
	for _, v := range st.Vars() {
		if !shardSet[v] {
			out.CopyVar(st, v)
		}
	}
	for _, n := range plan.Names() {
		for _, e := range st.Entries(n) {
			v := e.Val
			if cur, ok := out.Lookup(plan.Var, e.Idx); ok {
				if combine == nil {
					return nil, fmt.Errorf("shard: merge collision on %s%s (pass a combine function)", plan.Var, e.Idx)
				}
				v = combine(cur, e.Val)
			}
			out.Set(plan.Var, e.Idx, v)
		}
	}
	return out, nil
}

// PortsPlan is the Appendix C example: shard by inport over a port list.
func PortsPlan(v string, ports []int) Plan {
	dom := make([]values.Value, len(ports))
	for i, p := range ports {
		dom[i] = values.Int(int64(p))
	}
	return Plan{Var: v, Field: pkt.Inport, Domain: dom}
}
