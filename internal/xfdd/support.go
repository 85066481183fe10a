package xfdd

import (
	"snap/internal/pkt"
	"snap/internal/syntax"
)

// support is the read-set of a test, an action sequence or a diagram node:
// the packet fields and state variables it mentions. The composition
// operators key their apply caches on it, through Context.project.
//
// The read-set invariant. ⊕, ⊙ and seqAS consult the context only through
// refine, Infer, EExprEqual, ResolveExpr, resolveSTKey and rewriteFF, and
// only about tests and expressions drawn from their operands (or built from
// them: a rewritten test mentions no field or variable its source test and
// action sequence do not). On a chain of field-value and state facts, each
// of those queries reads
//
//   - for a field f: the field-value facts on f, and nothing else;
//   - for a state test on s: the state facts on s, each keyed under what the
//     chain knew about that fact's own index and value fields when it was
//     recorded, plus the field-value facts on the queried test's fields.
//
// So the facts on fields and variables outside the operands' support (closed
// under "the fields of a retained state fact") cannot change any answer, and
// dropping them cannot change the result. A field-field fact breaks the
// first clause (a value known for one field answers for its whole equality
// class) and an assignment rewrites what earlier facts mean, so a chain
// holding either is opaque and is never projected.
//
// A new operator may query the context only about its operands' support; a
// new test or action kind must report every field and variable it mentions
// in testSupport or seqSupport.
type support struct {
	fields uint32 // bit f: packet field f
	vars   uint64 // bit i: the state variable the store numbered i
}

// Every valid field needs a bit.
const _ = uint(32 - pkt.NumFields)

func (s support) union(o support) support {
	return support{fields: s.fields | o.fields, vars: s.vars | o.vars}
}

func (s support) within(o support) bool {
	return s.fields&^o.fields == 0 && s.vars&^o.vars == 0
}

// reaches reports whether a query about something with support s can read a
// fact with support f: a state fact by its variable, a field fact by its
// field.
func (s support) reaches(f support) bool {
	if f.vars != 0 {
		return s.vars&f.vars != 0
	}
	return s.fields&f.fields != 0
}

// fieldSupport is empty for a field outside the universe (only a hand-built
// AST can name one): contexts record nothing about such a field, so it is
// never known, which costs pruning and nothing else.
func fieldSupport(f pkt.Field) support {
	if !f.Valid() {
		return support{}
	}
	return support{fields: 1 << f}
}

func exprSupport(e syntax.Expr) support {
	switch x := e.(type) {
	case syntax.FieldRef:
		return fieldSupport(x.Field)
	case syntax.TupleExpr:
		return idxSupport(x.Elems)
	}
	return support{}
}

func idxSupport(idx []syntax.Expr) support {
	var s support
	for _, e := range idx {
		s = s.union(exprSupport(e))
	}
	return s
}

// varSupport numbers state variables in first-seen order. Variables past
// the 63rd share the last bit: their facts are kept or dropped together,
// which only ever keeps more.
func (st *Store) varSupport(v string) support {
	i, ok := st.varBits[v]
	if !ok {
		i = uint(len(st.varBits))
		if i > 63 {
			i = 63
		}
		st.varBits[v] = i
	}
	return support{vars: 1 << i}
}

func (st *Store) testSupport(t Test) support {
	switch x := t.(type) {
	case FVTest:
		return fieldSupport(x.Field)
	case FFTest:
		return fieldSupport(x.F1).union(fieldSupport(x.F2))
	case STest:
		return st.varSupport(x.Var).union(idxSupport(x.Idx)).union(exprSupport(x.Val))
	}
	return support{}
}

func (st *Store) seqSupport(s ActionSeq) support {
	var sup support
	for _, a := range s {
		switch a.Kind {
		case ActModify:
			sup = sup.union(fieldSupport(a.Field))
		case ActSet:
			sup = sup.union(st.varSupport(a.Var)).union(idxSupport(a.Idx)).union(exprSupport(a.SVal))
		case ActIncr, ActDecr:
			sup = sup.union(st.varSupport(a.Var)).union(idxSupport(a.Idx))
		}
	}
	return sup
}

// project returns the canonical context holding exactly the facts of c that
// a query with support s can read (see the read-set invariant above): the
// relevant (test, outcome) facts replayed in order from the store's root
// through the memoised With, so equal projections are pointer-equal and
// share one apply-cache key. Opaque chains come back unchanged.
func (c *Context) project(s support) *Context {
	if c.opaque || c.sup.within(s) {
		return c
	}
	var buf [64]*Context
	chain := buf[:0]
	for x := c; x.up != nil; x = x.up {
		chain = append(chain, x)
	}
	tests := c.store.tests
	// A retained state fact was keyed under what the chain knew about its
	// own fields at the time: keep the facts on those fields too. One pass
	// suffices, since it only adds fields and state facts are chosen by
	// variable.
	for _, x := range chain {
		if f := tests[x.testID-1].sup; f.vars&s.vars != 0 {
			s.fields |= f.fields
		}
	}
	cur := c.store.newContext()
	for i := len(chain) - 1; i >= 0; i-- {
		if x := chain[i]; s.reaches(tests[x.testID-1].sup) {
			cur = cur.withID(x.testID, x.outcome)
		}
	}
	return cur
}
