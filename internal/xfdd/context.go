package xfdd

import (
	"math/bits"

	"snap/internal/pkt"
	"snap/internal/syntax"
	"snap/internal/values"
)

// Context accumulates the tests (and their outcomes) passed on the current
// xFDD path, plus field assignments from action sequences, and answers
// inference queries: does a test's outcome follow from what we already know?
// This is the "context" argument threaded through ⊕ and the sequential
// composition algorithm in Figure 8 and Appendix E.
//
// Contexts are persistent: With returns an extension that shares every
// table with c except the one its fact touches, which it copies first. No
// table is ever written after its context is published. Field-value facts
// are per-field lists, newest first, that share their tails with the
// context they extend, so recording one copies the fixed array of list
// heads and prepends one node: the cost of an extension does not grow with
// the chain it extends.
type Context struct {
	// vals holds exact known field values (from passed exact-value tests or
	// field assignments of a preceding action sequence), at the class root;
	// bit f of known says vals[f] is set.
	known uint32
	vals  *[pkt.NumFields]values.Value
	// pos/neg hold passed and failed field-value tests (including prefix
	// tests, which constrain without pinning an exact value).
	pos *[pkt.NumFields]*fvFact
	neg *[pkt.NumFields]*negFact
	// eq holds what field-field facts established; nil until the first one.
	eq *eqFacts
	// st lists the recorded state-test outcomes, newest first.
	st *stFact

	// store/id tie the context into its hash-consing store: every context
	// descends from the store's root and carries a unique id used in the
	// apply-cache keys, and With extensions are memoized so identical
	// extension chains from the root yield pointer-identical contexts
	// (canonical context identity).
	store    *Store
	id       uint64
	withMemo map[withKey]*Context

	// How the context was built, which is what project replays:
	// the context it extends and the interned test and outcome it adds.
	// sup is the union of the chain's fact supports; opaque marks a chain
	// holding a field-field fact or an assignment (see support).
	up      *Context
	testID  int32
	outcome bool
	sup     support
	opaque  bool
}

// eqFacts is a union-find over fields known equal (parent, FieldNone at a
// class root) plus the root pairs known unequal.
type eqFacts struct {
	parent [pkt.NumFields]pkt.Field
	neq    [][2]pkt.Field
}

// fvFact is one passed field-value test on a field, in a list that runs
// newest first.
type fvFact struct {
	val   values.Value
	older *fvFact
}

// negFact is one failed field-value test on a field, in a list that runs
// newest first. Each node also indexes its whole list by match shape, so a
// query can nearly always rule the list out without walking it: bit L of
// lens says the list holds a failed prefix test of length L (at most 32, as
// values.Prefix builds them), and keys is a one-hash Bloom filter of the
// failed values' values.Hash.
type negFact struct {
	val   values.Value
	older *negFact
	lens  uint64
	keys  [8]uint64
}

// stFact records the outcome of one state test, under the canonical key it
// resolved to when it was recorded.
type stFact struct {
	key     string
	outcome bool
	older   *stFact
}

type withKey struct {
	test    int32
	outcome bool
}

// NewContext returns an empty context: the root context of a fresh store.
func NewContext() *Context { return NewStore().newContext() }

// extension returns a copy of c that shares all its tables, ready to have
// the touched ones replaced.
func (c *Context) extension() *Context {
	n := *c
	n.withMemo = nil
	n.up = c
	n.id = c.store.nextCtxID()
	return &n
}

func (c *Context) setVal(f pkt.Field, v values.Value) {
	vals := *c.vals
	vals[f] = v
	c.vals = &vals
	c.known |= 1 << f
}

func (c *Context) clearVal(f pkt.Field) {
	c.known &^= 1 << f
}

// withPos returns a copy of the list heads with v recorded first on f's
// list; the lists themselves are shared.
func withPos(heads *[pkt.NumFields]*fvFact, f pkt.Field, v values.Value) *[pkt.NumFields]*fvFact {
	h := *heads
	h[f] = &fvFact{val: v, older: h[f]}
	return &h
}

// withNeg is withPos for failed tests, extending the older node's index.
func withNeg(heads *[pkt.NumFields]*negFact, f pkt.Field, v values.Value) *[pkt.NumFields]*negFact {
	h := *heads
	n := &negFact{val: v, older: h[f]}
	if n.older != nil {
		n.lens, n.keys = n.older.lens, n.older.keys
	}
	if v.Kind == values.KindPrefix {
		n.lens |= 1 << v.Len
	}
	k := v.Hash()
	n.keys[k>>6&7] |= 1 << (k & 63)
	h[f] = n
	return &h
}

// mayRefute reports whether the list starting at n might hold a failed test
// that subsumes q, so that it must be walked. Such a test either equals q,
// and shares its hash, or is a prefix of one of the lengths in lens that
// contains q, and hashes like q's address cut to that length.
func (n *negFact) mayRefute(q values.Value) bool {
	has := func(k uint64) bool { return n.keys[k>>6&7]&(1<<(k&63)) != 0 }
	if has(q.Hash()) {
		return true
	}
	if q.Kind != values.KindIP && q.Kind != values.KindPrefix {
		return false
	}
	for lens := n.lens; lens != 0; lens &= lens - 1 {
		l := uint8(bits.TrailingZeros64(lens))
		if q.Kind == values.KindPrefix && l > q.Len {
			return false
		}
		if has(values.Prefix(uint32(q.Num), l).Hash()) {
			return true
		}
	}
	return false
}

func (c *Context) root(f pkt.Field) pkt.Field {
	if c.eq == nil || !f.Valid() {
		return f
	}
	for {
		p := c.eq.parent[f]
		if p == pkt.FieldNone {
			return f
		}
		f = p
	}
}

// KnownValue returns the exact value of f if the context pins one,
// consulting field-equality classes.
func (c *Context) KnownValue(f pkt.Field) (values.Value, bool) {
	if r := c.root(f); r.Valid() && c.known&(1<<r) != 0 {
		return c.vals[r], true
	}
	return values.None, false
}

// With returns c extended with the outcome of a test. Recording a test the
// context already decides is harmless. The extension is memoized: the same
// (test, outcome) extension of the same context returns the same object,
// keeping context identity canonical for the composition caches.
func (c *Context) With(t Test, outcome bool) *Context {
	return c.withID(c.store.TestID(t), outcome)
}

// withID is With for the store's interned test id: a branch carries its
// test's id, so the test is not hashed again.
func (c *Context) withID(id int32, outcome bool) *Context {
	mk := withKey{test: id, outcome: outcome}
	if n, ok := c.withMemo[mk]; ok {
		return n
	}
	rec := &c.store.tests[id-1]
	n := c.extend(rec.t, outcome)
	n.testID, n.outcome = id, outcome
	n.sup = c.sup.union(rec.sup)
	if c.withMemo == nil {
		c.withMemo = map[withKey]*Context{}
	}
	c.withMemo[mk] = n
	return n
}

func (c *Context) extend(t Test, outcome bool) *Context {
	n := c.extension()
	switch x := t.(type) {
	case FVTest:
		if !x.Field.Valid() {
			break
		}
		if outcome {
			if x.Val.Kind != values.KindPrefix {
				n.setVal(n.root(x.Field), x.Val)
			}
			n.pos = withPos(n.pos, x.Field, x.Val)
		} else {
			n.neg = withNeg(n.neg, x.Field, x.Val)
		}
	case FFTest:
		n.opaque = true
		if !x.F1.Valid() || !x.F2.Valid() {
			break
		}
		eq := new(eqFacts)
		if n.eq != nil {
			*eq = *n.eq
		}
		n.eq = eq
		r1, r2 := n.root(x.F1), n.root(x.F2)
		if outcome {
			if r1 != r2 {
				// Union; propagate a known value across the merged class.
				eq.parent[r2] = r1
				if n.known&(1<<r2) != 0 {
					n.setVal(r1, n.vals[r2])
					n.clearVal(r2)
				}
			}
		} else {
			eq.neq = append(eq.neq[:len(eq.neq):len(eq.neq)], fieldPair(r1, r2))
		}
	case STest:
		n.st = &stFact{key: c.resolveSTKey(x), outcome: outcome, older: c.st}
	}
	return n
}

// WithAssignments returns c extended with exact field values established by
// an action sequence's modifications (the update(T, fmap) of Appendix E).
// Assignment overrides any prior knowledge about the field, and detaches the
// field from its equality class (its value no longer tracks the class).
func (c *Context) WithAssignments(fmap map[pkt.Field]values.Value) *Context {
	if len(fmap) == 0 {
		return c
	}
	n := c.extension()
	n.opaque = true
	if n.eq != nil {
		eq := *n.eq
		n.eq = &eq
	}
	pos, neg := *n.pos, *n.neg
	for f := pkt.FieldNone + 1; f < pkt.NumFields; f++ {
		v, ok := fmap[f]
		if !ok {
			continue
		}
		// Detach f: make it its own singleton class.
		n.detach(f)
		n.setVal(f, v)
		pos[f], neg[f] = nil, nil
	}
	n.pos, n.neg = &pos, &neg
	return n
}

// detach removes f from its union-find class, re-rooting the remainder.
// c.eq, when present, is c's own copy.
func (c *Context) detach(f pkt.Field) {
	if c.eq == nil {
		return
	}
	parent := &c.eq.parent
	r := c.root(f)
	if r != f {
		// f was not the root: just unlink it.
		parent[f] = pkt.FieldNone
		return
	}
	// f was the root: the smallest other member becomes the root.
	var members uint32
	for g := pkt.FieldNone + 1; g < pkt.NumFields; g++ {
		if g != f && parent[g] != pkt.FieldNone && c.root(g) == f {
			members |= 1 << g
		}
	}
	if members == 0 {
		return
	}
	newRoot := pkt.Field(bits.TrailingZeros32(members))
	for g := newRoot; g < pkt.NumFields; g++ {
		if members&(1<<g) != 0 {
			parent[g] = newRoot
		}
	}
	parent[newRoot] = pkt.FieldNone
	if c.known&(1<<f) != 0 {
		c.setVal(newRoot, c.vals[f])
		c.clearVal(f)
	}
}

func fieldPair(a, b pkt.Field) [2]pkt.Field {
	if b < a {
		a, b = b, a
	}
	return [2]pkt.Field{a, b}
}

func (c *Context) knownUnequal(r1, r2 pkt.Field) bool {
	if c.eq == nil {
		return false
	}
	p := fieldPair(r1, r2)
	for _, q := range c.eq.neq {
		if q == p {
			return true
		}
	}
	return false
}

// Infer reports whether the context decides test t, and if so its outcome.
// This is the inferred() helper of Appendix E generalized to all test kinds.
func (c *Context) Infer(t Test) (outcome, known bool) {
	switch x := t.(type) {
	case FVTest:
		if v, ok := c.KnownValue(x.Field); ok {
			return x.Val.Matches(v), true
		}
		if !x.Field.Valid() {
			return false, false
		}
		// The scan order does not matter: every failed test that subsumes
		// the query answers false, and the passed tests of one path all
		// hold of its packets, so the query cannot subsume one of them and
		// be disjoint from another.
		for w := c.pos[x.Field]; w != nil; w = w.older {
			if x.Val.Subsumes(w.val) {
				return true, true
			}
			if values.Disjoint(x.Val, w.val) {
				return false, true
			}
		}
		if n := c.neg[x.Field]; n != nil && n.mayRefute(x.Val) {
			for w := n; w != nil; w = w.older {
				if w.val.Subsumes(x.Val) {
					return false, true
				}
			}
		}
		return false, false

	case FFTest:
		r1, r2 := c.root(x.F1), c.root(x.F2)
		if r1 == r2 {
			return true, true
		}
		v1, ok1 := c.KnownValue(x.F1)
		v2, ok2 := c.KnownValue(x.F2)
		if ok1 && ok2 {
			return values.Eq(v1, v2), true
		}
		if c.knownUnequal(r1, r2) {
			return false, true
		}
		return false, false

	case STest:
		key := c.resolveSTKey(x)
		for f := c.st; f != nil; f = f.older {
			if f.key == key {
				return f.outcome, true
			}
		}
		return false, false
	}
	return false, false
}

// ResolveExpr substitutes context knowledge into a scalar expression: known
// field values become constants; otherwise field refs are normalized to
// their equality-class root (the value() helper of Appendix E).
func (c *Context) ResolveExpr(e syntax.Expr) syntax.Expr {
	if fr, ok := e.(syntax.FieldRef); ok {
		if v, ok := c.KnownValue(fr.Field); ok {
			return syntax.Const{Val: v}
		}
		return syntax.FieldRef{Field: c.root(fr.Field)}
	}
	return e
}

// ResolveIdx applies ResolveExpr to each index component.
func (c *Context) ResolveIdx(idx []syntax.Expr) []syntax.Expr {
	out := make([]syntax.Expr, len(idx))
	for i, e := range idx {
		out[i] = c.ResolveExpr(e)
	}
	return out
}

// resolveSTKey canonicalizes a state test under the context, so that
// s[srcip]=v and s[dstip]=v share a key whenever srcip and dstip are known
// equal.
func (c *Context) resolveSTKey(t STest) string {
	return t.Var + IndexKey(c.ResolveIdx(t.Idx)) + "=" + ExprKey(c.ResolveExpr(t.Val))
}

// EqOutcome classifies expression-equality queries.
type EqOutcome int

// Possible eequal outcomes: the expressions are certainly equal, certainly
// unequal, or undetermined (branch on DecidingTest).
const (
	EqYes EqOutcome = iota
	EqNo
	EqBoth
)

// EExprEqual implements eequal (Algorithm 4): decide whether two expression
// vectors evaluate to equal value tuples under the context. When
// undetermined, it returns the field-field or field-value test whose outcome
// would decide the first undetermined component.
func (c *Context) EExprEqual(e1, e2 []syntax.Expr) (EqOutcome, Test) {
	if len(e1) != len(e2) {
		return EqNo, nil
	}
	for i := range e1 {
		a := c.ResolveExpr(e1[i])
		b := c.ResolveExpr(e2[i])
		ca, isCA := a.(syntax.Const)
		cb, isCB := b.(syntax.Const)
		switch {
		case isCA && isCB:
			if !values.Eq(ca.Val, cb.Val) {
				return EqNo, nil
			}
		case !isCA && !isCB:
			fa := a.(syntax.FieldRef).Field
			fb := b.(syntax.FieldRef).Field
			if fa == fb {
				continue
			}
			t := NewFF(fa, fb)
			if out, known := c.Infer(t); known {
				if !out {
					return EqNo, nil
				}
				continue
			}
			return EqBoth, t
		default:
			// One constant, one field: branch on a field-value test.
			var f pkt.Field
			var v values.Value
			if isCA {
				f, v = b.(syntax.FieldRef).Field, ca.Val
			} else {
				f, v = a.(syntax.FieldRef).Field, cb.Val
			}
			if v.Kind == values.KindPrefix {
				// A prefix literal used as an index value denotes the prefix
				// object itself; packet fields hold exact values, so the
				// component cannot be equal (documented restriction: fields
				// are never assigned prefix values).
				return EqNo, nil
			}
			t := FVTest{Field: f, Val: v}
			if out, known := c.Infer(t); known {
				if !out {
					return EqNo, nil
				}
				continue
			}
			return EqBoth, t
		}
	}
	return EqYes, nil
}
