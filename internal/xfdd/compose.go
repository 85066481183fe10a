package xfdd

import (
	"fmt"

	"snap/internal/deps"
	"snap/internal/pkt"
	"snap/internal/syntax"
	"snap/internal/values"
)

// Translator compiles policies to xFDDs under a fixed test order. Every
// node it produces is interned in its hash-consing store, so structural
// equality is pointer equality and the composition operators memoize
// subproblems in the store's apply caches.
type Translator struct {
	ord Orderer
	st  *Store
	// noPrune disables context-based refinement during composition — the
	// ablation baseline showing what the Figure 8 contexts buy (larger
	// diagrams and spurious race reports on guarded parallel writes).
	noPrune bool
	// memo maps structural policy hashes to previously translated
	// fragments. Valid for the translator's lifetime: the diagram for a
	// policy depends only on the policy and the test order, both fixed
	// here.
	memo map[uint64][]memoEntry
}

type memoEntry struct {
	p syntax.Policy
	d *Diagram
}

// NewTranslator builds a translator using the dependency order of state
// variables (which fixes the position of state tests in the total order).
func NewTranslator(order *deps.Order) *Translator {
	return &Translator{ord: Orderer{VarPos: order.Pos}, st: NewStore(), memo: map[uint64][]memoEntry{}}
}

// Store exposes the translator's hash-consing store (node interning and
// apply caches). Downstream passes can key memo tables by NodeID.
func (tr *Translator) Store() *Store { return tr.st }

// SetPruning toggles context-based refinement (enabled by default).
func (tr *Translator) SetPruning(on bool) { tr.noPrune = !on }

// Translate compiles a policy: it derives the state dependency order, runs
// to-xfdd, and rejects programs whose xFDD exhibits parallel updates to the
// same state variable (§4.2).
func Translate(p syntax.Policy) (*Diagram, *deps.Order, error) {
	order := deps.OrderOf(p)
	d, err := TranslateWithOrder(p, order)
	if err != nil {
		return nil, nil, err
	}
	return d, order, nil
}

// TranslateWithOrder compiles with a precomputed dependency order, letting
// callers time the dependency-analysis (P1) and xFDD-generation (P2)
// phases separately as the paper's evaluation does.
func TranslateWithOrder(p syntax.Policy, order *deps.Order) (*Diagram, error) {
	return NewTranslator(order).TranslateMemo(p)
}

// TranslateMemo is ToXFDD followed by the race check. On a translator that
// compiled a prior revision of p, only edited fragments and the spine above
// them are recompiled (see delta.go).
func (tr *Translator) TranslateMemo(p syntax.Policy) (*Diagram, error) {
	d, err := tr.ToXFDD(p)
	if err != nil {
		return nil, err
	}
	if err := CheckRaces(d); err != nil {
		return nil, err
	}
	return d, nil
}

// ToXFDD implements the to-xfdd translation of Figure 6, one case per
// policy construct. Every fragment goes through the fragment memo, keyed by
// structural hash and confirmed with syntax.Equal, so a fragment seen before
// on this translator resolves to its interned diagram without a walk.
func (tr *Translator) ToXFDD(p syntax.Policy) (*Diagram, error) {
	h := syntax.Hash(p)
	for _, e := range tr.memo[h] {
		if syntax.Equal(e.p, p) {
			return e.d, nil
		}
	}
	d, err := tr.toXFDD(p)
	if err != nil {
		return nil, err
	}
	tr.memo[h] = append(tr.memo[h], memoEntry{p: p, d: d})
	return d, nil
}

func (tr *Translator) toXFDD(p syntax.Policy) (*Diagram, error) {
	switch n := p.(type) {
	case syntax.Identity:
		return tr.st.IDLeaf(), nil
	case syntax.Drop:
		return tr.st.DropLeaf(), nil
	case syntax.Test:
		return tr.st.Branch(FVTest{Field: n.Field, Val: n.Val}, tr.st.IDLeaf(), tr.st.DropLeaf()), nil
	case syntax.StateTest:
		t, err := stateTestOf(n)
		if err != nil {
			return nil, err
		}
		return tr.st.Branch(t, tr.st.IDLeaf(), tr.st.DropLeaf()), nil
	case syntax.Not:
		d, err := tr.ToXFDD(n.X)
		if err != nil {
			return nil, err
		}
		return tr.negate(d)
	case syntax.Or:
		return tr.binop(n.X, n.Y, tr.unionCtx)
	case syntax.And:
		return tr.binop(n.X, n.Y, tr.seqCompose)
	case syntax.Modify:
		return tr.st.Leaf([]ActionSeq{{Action{Kind: ActModify, Field: n.Field, Val: n.Val}}}), nil
	case syntax.SetState:
		val, err := scalarExpr(n.Val)
		if err != nil {
			return nil, err
		}
		return tr.st.Leaf([]ActionSeq{{Action{Kind: ActSet, Var: n.Var, Idx: FlattenExpr(n.Idx), SVal: val}}}), nil
	case syntax.Incr:
		return tr.st.Leaf([]ActionSeq{{Action{Kind: ActIncr, Var: n.Var, Idx: FlattenExpr(n.Idx)}}}), nil
	case syntax.Decr:
		return tr.st.Leaf([]ActionSeq{{Action{Kind: ActDecr, Var: n.Var, Idx: FlattenExpr(n.Idx)}}}), nil
	case syntax.Parallel:
		return tr.binop(n.P, n.Q, tr.unionCtx)
	case syntax.Seq:
		return tr.binop(n.P, n.Q, tr.seqCompose)
	case syntax.If:
		// Catalogue compositions guard each app with a Cond, so an edited
		// guard-free app reuses its neighbours' branches from the memo.
		dx, err := tr.ToXFDD(n.Cond)
		if err != nil {
			return nil, err
		}
		nx, err := tr.negate(dx)
		if err != nil {
			return nil, err
		}
		dp, err := tr.ToXFDD(n.Then)
		if err != nil {
			return nil, err
		}
		dq, err := tr.ToXFDD(n.Else)
		if err != nil {
			return nil, err
		}
		ctx := tr.st.newContext()
		left, err := tr.seqCompose(dx, dp, ctx)
		if err != nil {
			return nil, err
		}
		right, err := tr.seqCompose(nx, dq, ctx)
		if err != nil {
			return nil, err
		}
		return tr.unionCtx(left, right, ctx)
	case syntax.Atomic:
		return tr.ToXFDD(n.P)
	}
	return nil, fmt.Errorf("to-xfdd: unknown policy node %T", p)
}

func (tr *Translator) binop(p, q syntax.Policy, op func(a, b *Diagram, c *Context) (*Diagram, error)) (*Diagram, error) {
	dp, err := tr.ToXFDD(p)
	if err != nil {
		return nil, err
	}
	dq, err := tr.ToXFDD(q)
	if err != nil {
		return nil, err
	}
	return op(dp, dq, tr.st.newContext())
}

func stateTestOf(n syntax.StateTest) (STest, error) {
	val, err := scalarExpr(n.Val)
	if err != nil {
		return STest{}, err
	}
	return STest{Var: n.Var, Idx: FlattenExpr(n.Idx), Val: val}, nil
}

func scalarExpr(e syntax.Expr) (syntax.Expr, error) {
	flat := FlattenExpr(e)
	if len(flat) != 1 {
		return nil, fmt.Errorf("state values must be scalars, got %d-vector %s", len(flat), e)
	}
	return flat[0], nil
}

// cmpTests orders two interned tests in the translator's total order.
func (tr *Translator) cmpTests(a, b int32) int {
	return tr.st.compareTests(tr.ord, a, b)
}

// refine walks past branch tests whose outcome the context already decides
// (Figure 8), pruning contradictions and redundancies from the top of d.
func (tr *Translator) refine(d *Diagram, ctx *Context) *Diagram {
	if tr.noPrune {
		return d
	}
	for !d.IsLeaf() {
		out, known := ctx.Infer(d.Test)
		if !known {
			return d
		}
		if out {
			d = d.True
		} else {
			d = d.False
		}
	}
	return d
}

// unionCtx implements ⊕ (parallel composition of xFDDs, Figure 8): merge
// same tests, interleave by the total order, and union leaf action sets.
// Results are memoized per (operands, context projected onto the operands'
// support): ⊕ is commutative, so the operand pair is normalized before the
// cache lookup.
func (tr *Translator) unionCtx(d1, d2 *Diagram, ctx *Context) (*Diagram, error) {
	d1 = tr.refine(d1, ctx)
	d2 = tr.refine(d2, ctx)
	if d1 == d2 {
		// d ⊕ d = d: leaf unions dedupe, branch merges recurse into the
		// same children. Pointer equality is structural equality here.
		return d1, nil
	}
	ctx = ctx.project(d1.sup.union(d2.sup))
	a, b := d1.id, d2.id
	if b < a {
		a, b = b, a
	}
	key := pairKey{a: a, b: b, ctx: ctx.id}
	if r, ok := tr.st.unionCache[key]; ok {
		tr.st.applyHits++
		return r, nil
	}
	tr.st.applyMisses++
	r, err := tr.unionSteps(d1, d2, ctx)
	if err != nil {
		return nil, err
	}
	tr.st.unionCache[key] = r
	return r, nil
}

func (tr *Translator) unionSteps(d1, d2 *Diagram, ctx *Context) (*Diagram, error) {
	switch {
	case d1.IsLeaf() && d2.IsLeaf():
		return tr.st.Leaf(append(append([]ActionSeq{}, d1.Seqs...), d2.Seqs...)), nil
	case d1.IsLeaf():
		d1, d2 = d2, d1
		fallthrough
	case d2.IsLeaf():
		tb, err := tr.unionCtx(d1.True, d2, ctx.withID(d1.testID, true))
		if err != nil {
			return nil, err
		}
		fb, err := tr.unionCtx(d1.False, d2, ctx.withID(d1.testID, false))
		if err != nil {
			return nil, err
		}
		return tr.st.Branch(d1.Test, tb, fb), nil
	}

	switch cmp := tr.cmpTests(d1.testID, d2.testID); {
	case cmp == 0:
		tb, err := tr.unionCtx(d1.True, d2.True, ctx.withID(d1.testID, true))
		if err != nil {
			return nil, err
		}
		fb, err := tr.unionCtx(d1.False, d2.False, ctx.withID(d1.testID, false))
		if err != nil {
			return nil, err
		}
		return tr.st.Branch(d1.Test, tb, fb), nil
	case cmp > 0:
		d1, d2 = d2, d1
		fallthrough
	default:
		tb, err := tr.unionCtx(d1.True, d2, ctx.withID(d1.testID, true))
		if err != nil {
			return nil, err
		}
		fb, err := tr.unionCtx(d1.False, d2, ctx.withID(d1.testID, false))
		if err != nil {
			return nil, err
		}
		return tr.st.Branch(d1.Test, tb, fb), nil
	}
}

// negate implements ⊖: complement the pass/drop leaves of a predicate xFDD.
// Memoized per node (negation is context-free).
func (tr *Translator) negate(d *Diagram) (*Diagram, error) {
	if r, ok := tr.st.negCache[d.id]; ok {
		return r, nil
	}
	r, err := tr.negateSteps(d)
	if err != nil {
		return nil, err
	}
	tr.st.negCache[d.id] = r
	return r, nil
}

func (tr *Translator) negateSteps(d *Diagram) (*Diagram, error) {
	if d.IsLeaf() {
		switch {
		case d.IsDrop():
			return tr.st.IDLeaf(), nil
		case d.IsID():
			return tr.st.DropLeaf(), nil
		default:
			return nil, fmt.Errorf("cannot negate a non-predicate xFDD (leaf {%v})", d)
		}
	}
	tb, err := tr.negate(d.True)
	if err != nil {
		return nil, err
	}
	fb, err := tr.negate(d.False)
	if err != nil {
		return nil, err
	}
	return tr.st.Branch(d.Test, tb, fb), nil
}

// restrict implements d|t (outcome=true) and d|~t (outcome=false) from
// Figure 7: ordered insertion of test t, guarding d behind the required
// outcome. t is the interned test tid. Memoized per (node, test, outcome).
func (tr *Translator) restrict(d *Diagram, t Test, tid int32, outcome bool) *Diagram {
	key := restrictKey{node: d.id, test: tid, outcome: outcome}
	if r, ok := tr.st.restrictCache[key]; ok {
		return r
	}
	r := tr.restrictSteps(d, t, tid, outcome)
	tr.st.restrictCache[key] = r
	return r
}

func (tr *Translator) restrictSteps(d *Diagram, t Test, tid int32, outcome bool) *Diagram {
	guard := func(sub *Diagram) *Diagram {
		if outcome {
			return tr.st.Branch(t, sub, tr.st.DropLeaf())
		}
		return tr.st.Branch(t, tr.st.DropLeaf(), sub)
	}
	if d.IsLeaf() {
		if d.IsDrop() {
			return d // restricting pure drop is drop; no guard needed
		}
		return guard(d)
	}
	switch cmp := tr.cmpTests(tid, d.testID); {
	case cmp == 0:
		if outcome {
			return tr.st.Branch(d.Test, d.True, tr.st.DropLeaf())
		}
		return tr.st.Branch(d.Test, tr.st.DropLeaf(), d.False)
	case cmp < 0:
		return guard(d)
	default:
		return tr.st.Branch(d.Test, tr.restrict(d.True, t, tid, outcome), tr.restrict(d.False, t, tid, outcome))
	}
}

// mkBranch builds (t ? dT : dF) while preserving the global test order: when
// t precedes both subtree roots it is emitted directly; otherwise the
// subtrees are restricted and re-merged so t lands at its ordered position.
func (tr *Translator) mkBranch(t Test, dT, dF *Diagram, ctx *Context) (*Diagram, error) {
	tid := tr.st.TestID(t)
	if tr.before(tid, dT) && tr.before(tid, dF) {
		return tr.st.Branch(t, dT, dF), nil
	}
	return tr.unionCtx(tr.restrict(dT, t, tid, true), tr.restrict(dF, t, tid, false), ctx)
}

func (tr *Translator) before(tid int32, d *Diagram) bool {
	return d.IsLeaf() || tr.cmpTests(tid, d.testID) < 0
}

// seqCompose implements ⊙ (sequential composition, Figure 7):
//
//	{as1..asn} ⊙ d = (as1 ⊙ d) ⊕ ... ⊕ (asn ⊙ d)
//	(t ? d1 : d2) ⊙ d = (d1 ⊙ d)|t ⊕ (d2 ⊙ d)|~t
//
// Results are memoized per (operands, projected context).
func (tr *Translator) seqCompose(d1, d2 *Diagram, ctx *Context) (*Diagram, error) {
	d1 = tr.refine(d1, ctx)
	ctx = ctx.project(d1.sup.union(d2.sup))
	key := pairKey{a: d1.id, b: d2.id, ctx: ctx.id}
	if r, ok := tr.st.seqCache[key]; ok {
		tr.st.applyHits++
		return r, nil
	}
	tr.st.applyMisses++
	r, err := tr.seqComposeSteps(d1, d2, ctx)
	if err != nil {
		return nil, err
	}
	tr.st.seqCache[key] = r
	return r, nil
}

func (tr *Translator) seqComposeSteps(d1, d2 *Diagram, ctx *Context) (*Diagram, error) {
	if d1.IsLeaf() {
		var acc *Diagram
		for i, as := range d1.Seqs {
			var di *Diagram
			var err error
			if pre := tr.siblingWrites(d1, i, d2); len(pre) > 0 {
				// Compose as if the copy had made its siblings' writes
				// itself, then take them out of the leaves again.
				joined := append(pre, as...)
				di, err = tr.seqAS(joined, tr.st.seqID(joined), d2, ctx)
				if err == nil {
					di = tr.dropPrefix(di, len(pre), map[*Diagram]*Diagram{})
				}
			} else {
				di, err = tr.seqAS(as, d1.seqIDs[i], d2, ctx)
			}
			if err != nil {
				return nil, err
			}
			if acc == nil {
				acc = di
				continue
			}
			acc, err = tr.unionCtx(acc, di, ctx)
			if err != nil {
				return nil, err
			}
		}
		return acc, nil
	}
	dT, err := tr.seqCompose(d1.True, d2, ctx.withID(d1.testID, true))
	if err != nil {
		return nil, err
	}
	dF, err := tr.seqCompose(d1.False, d2, ctx.withID(d1.testID, false))
	if err != nil {
		return nil, err
	}
	return tr.unionCtx(tr.restrict(dT, d1.Test, d1.testID, true), tr.restrict(dF, d1.Test, d1.testID, false), ctx)
}

// siblingWrites returns the state writes that the other sequences of leaf l
// make to variables d mentions, with their expressions in terms of the
// leaf's input packet. The copies of a multicast run against one store and
// what follows sees the merged result (eval of p;q threads the store p
// leaves behind into every copy, Appendix A), so the state tests copy i
// meets in d resolve against its siblings' writes as well as its own; a
// copy that drops never meets them. Race freedom leaves at most one writer
// per variable, so the order among siblings does not matter; a variable the
// copy writes too is a race CheckRaces reports, and is left alone here.
func (tr *Translator) siblingWrites(l *Diagram, i int, d *Diagram) ActionSeq {
	own := l.Seqs[i]
	if len(l.Seqs) < 2 || own.Drops() {
		return nil
	}
	read := d.sup
	var pre ActionSeq
	for j, sib := range l.Seqs {
		if j == i {
			continue
		}
		fmap := map[pkt.Field]values.Value{}
		for _, a := range sib {
			switch {
			case a.Kind == ActModify:
				fmap[a.Field] = a.Val
			case a.isStateAct() && read.vars&tr.st.varSupport(a.Var).vars != 0 && !own.WritesVar(a.Var):
				a.Idx = SubstIdx(a.Idx, fmap)
				if a.Kind == ActSet {
					a.SVal = SubstExpr(a.SVal, fmap)
				}
				pre = append(pre, a)
			}
		}
	}
	return pre
}

// dropPrefix removes the first k actions from every sequence of d that has
// them (restriction can leave a bare drop behind).
func (tr *Translator) dropPrefix(d *Diagram, k int, done map[*Diagram]*Diagram) *Diagram {
	if r, ok := done[d]; ok {
		return r
	}
	var r *Diagram
	if d.IsLeaf() {
		seqs := make([]ActionSeq, len(d.Seqs))
		for i, s := range d.Seqs {
			if !isPureDrop(s) {
				s = s[k:]
			}
			seqs[i] = s
		}
		r = tr.st.Leaf(seqs)
	} else {
		r = tr.st.Branch(d.Test, tr.dropPrefix(d.True, k, done), tr.dropPrefix(d.False, k, done))
	}
	done[d] = r
	return r
}

// seqAS composes an action sequence with an xFDD (Algorithm 1 of
// Appendix E): tests of d are rewritten in terms of the packet *before* as
// runs, using the context to resolve what the sequence's assignments and
// state writes imply. sid is the interned id of as, used for the
// apply-cache key and the store's cached sequence record.
func (tr *Translator) seqAS(as ActionSeq, sid uint32, d *Diagram, ctx *Context) (*Diagram, error) {
	ctx = ctx.project(tr.st.seqList[sid-1].sup.union(d.sup))
	key := seqASKey{seq: sid, node: d.id, ctx: ctx.id}
	if r, ok := tr.st.seqASCache[key]; ok {
		tr.st.applyHits++
		return r, nil
	}
	tr.st.applyMisses++
	r, err := tr.seqASSteps(as, sid, d, ctx)
	if err != nil {
		return nil, err
	}
	tr.st.seqASCache[key] = r
	return r, nil
}

func (tr *Translator) seqASSteps(as ActionSeq, sid uint32, d *Diagram, ctx *Context) (*Diagram, error) {
	if as.Drops() {
		// A dropped packet never reaches the second policy; its state
		// writes still take effect.
		return tr.st.Leaf([]ActionSeq{as}), nil
	}
	if d.IsLeaf() {
		out := make([]ActionSeq, 0, len(d.Seqs))
		for _, tail := range d.Seqs {
			joined := make(ActionSeq, 0, len(as)+len(tail))
			joined = append(joined, as...)
			joined = append(joined, tail...)
			out = append(out, joined)
		}
		return tr.st.Leaf(out), nil
	}

	if t, ok := d.Test.(STest); ok {
		return tr.seqASState(as, sid, t, d, ctx)
	}
	ctxNew := tr.ctxWithSeq(ctx, sid)

	switch t := d.Test.(type) {
	case FVTest:
		if out, known := ctxNew.Infer(t); known {
			if out {
				return tr.seqAS(as, sid, d.True, ctx)
			}
			return tr.seqAS(as, sid, d.False, ctx)
		}
		// Undecided implies the sequence does not assign t.Field, so the
		// test reads the original packet: emit it unchanged.
		return tr.emitBranch(as, sid, t, d.True, d.False, ctx)

	case FFTest:
		if out, known := ctxNew.Infer(t); known {
			if out {
				return tr.seqAS(as, sid, d.True, ctx)
			}
			return tr.seqAS(as, sid, d.False, ctx)
		}
		nt, err := rewriteFF(t, ctxNew)
		if err != nil {
			return nil, err
		}
		return tr.emitBranch(as, sid, nt, d.True, d.False, ctx)
	}
	return nil, fmt.Errorf("seq: unknown test %T", d.Test)
}

// ctxWithSeq extends ctx with the field assignments of the sequence,
// memoized per (context, sequence) so shared subproblems reuse the same
// extended context object (and hence the same downstream cache keys).
func (tr *Translator) ctxWithSeq(ctx *Context, sid uint32) *Context {
	k := ctxSeqKey{ctx: ctx.id, seq: sid}
	if n, ok := tr.st.assignCache[k]; ok {
		return n
	}
	n := ctx.WithAssignments(tr.st.seqList[sid-1].fmap)
	tr.st.assignCache[k] = n
	return n
}

// emitBranch composes as with onT under test t and with onF under its
// negation, and rebuilds an order-correct branch.
func (tr *Translator) emitBranch(as ActionSeq, sid uint32, t Test, onT, onF *Diagram, ctx *Context) (*Diagram, error) {
	dT, err := tr.seqAS(as, sid, onT, ctx.With(t, true))
	if err != nil {
		return nil, err
	}
	dF, err := tr.seqAS(as, sid, onF, ctx.With(t, false))
	if err != nil {
		return nil, err
	}
	return tr.mkBranch(t, dT, dF, ctx)
}

// rewriteFF rewrites a field-field test with context knowledge: fields with
// known values become field-value tests (the value() substitution of
// Algorithm 1).
func rewriteFF(t FFTest, ctx *Context) (Test, error) {
	v1, ok1 := ctx.KnownValue(t.F1)
	v2, ok2 := ctx.KnownValue(t.F2)
	switch {
	case ok1 && ok2:
		return nil, fmt.Errorf("rewriteFF: test %s should have been inferred", t)
	case ok1:
		return FVTest{Field: t.F2, Val: v1}, nil
	case ok2:
		return FVTest{Field: t.F1, Val: v2}, nil
	default:
		return NewFF(t.F1, t.F2), nil
	}
}

// seqASState composes an action sequence with a state test s[e1] = e2
// (Algorithm 1 lines 35–59, extended to handle the increment/decrement
// operators the paper's programs rely on, e.g. "susp-client[dstip]++; if
// susp-client[dstip] = threshold ..."). Substitution puts the test and every
// write in terms of the packet before as runs (each with the assignments
// that precede it), so they are compared under ctx, not under the context
// after the sequence's assignments: a field assigned after a write still
// has its old value in that write's index.
func (tr *Translator) seqASState(as ActionSeq, sid uint32, t STest, d *Diagram, ctx *Context) (*Diagram, error) {
	writes := filterWrites(as, t.Var)
	fmap := tr.st.seqList[sid-1].fmap
	testIdx := SubstIdx(t.Idx, fmap)
	testVal := SubstExpr(t.Val, fmap)

	// Walk the sequence's writes to s latest-first, accumulating the net
	// increment applied after the last determining write.
	var delta int64
	for i := len(writes) - 1; i >= 0; i-- {
		w := writes[i]
		eq, decider := ctx.EExprEqual(testIdx, w.Idx)
		switch eq {
		case EqNo:
			continue // writes a different entry
		case EqBoth:
			// Branch on the deciding test and retry: (decider ? d : d).
			return tr.emitBranch(as, sid, decider, d, d, ctx)
		}
		// The write targets the tested entry.
		switch w.Kind {
		case ActIncr:
			delta++
		case ActDecr:
			delta--
		case ActSet:
			return tr.resolveAgainstWrite(as, sid, w.SVal, delta, testVal, d, ctx)
		}
	}

	// No determining write in the sequence: the test reads the pre-state,
	// shifted by any net increment.
	preVal := testVal
	if delta != 0 {
		c, ok := constInt(ctx.ResolveExpr(testVal))
		if !ok {
			return nil, &UnsupportedError{Reason: fmt.Sprintf(
				"test %s follows %+d increment(s) of %s but compares against non-constant %s (symbolic arithmetic is outside the xFDD algebra)",
				t, delta, t.Var, t.Val)}
		}
		preVal = syntax.Const{Val: values.Int(c - delta)}
	}
	pre := STest{Var: t.Var, Idx: testIdx, Val: preVal}
	if out, known := ctx.Infer(pre); known {
		if out {
			return tr.seqAS(as, sid, d.True, ctx)
		}
		return tr.seqAS(as, sid, d.False, ctx)
	}
	return tr.emitBranch(as, sid, pre, d.True, d.False, ctx)
}

// resolveAgainstWrite decides a state test whose entry the sequence last
// wrote with value expression wval (plus delta subsequent increments).
func (tr *Translator) resolveAgainstWrite(as ActionSeq, sid uint32, wval syntax.Expr, delta int64, testVal syntax.Expr, d *Diagram, ctx *Context) (*Diagram, error) {
	effective := ctx.ResolveExpr(wval)
	if delta != 0 {
		c, ok := constInt(effective)
		if !ok {
			return nil, &UnsupportedError{Reason: fmt.Sprintf(
				"increments follow a non-constant write %s to the tested entry", wval)}
		}
		effective = syntax.Const{Val: values.Int(c + delta)}
	}
	eq, decider := ctx.EExprEqual([]syntax.Expr{testVal}, []syntax.Expr{effective})
	switch eq {
	case EqYes:
		return tr.seqAS(as, sid, d.True, ctx)
	case EqNo:
		return tr.seqAS(as, sid, d.False, ctx)
	default:
		return tr.emitBranch(as, sid, decider, d, d, ctx)
	}
}

func constInt(e syntax.Expr) (int64, bool) {
	c, ok := e.(syntax.Const)
	if !ok {
		return 0, false
	}
	switch c.Val.Kind {
	case values.KindInt, values.KindBool:
		return c.Val.AsInt(), true
	}
	return 0, false
}

// fieldMap returns the final field assignments of a sequence (Algorithm 2).
func fieldMap(as ActionSeq) map[pkt.Field]values.Value {
	fmap := map[pkt.Field]values.Value{}
	for _, a := range as {
		if a.Kind == ActModify {
			fmap[a.Field] = a.Val
		}
	}
	return fmap
}

// stateWrite is one write to a state variable with its expressions resolved
// against the field assignments preceding it in the sequence.
type stateWrite struct {
	Kind ActKind
	Idx  []syntax.Expr
	SVal syntax.Expr
}

// filterWrites implements Algorithm 3: extract the writes to variable s,
// substituting into each write the field values assigned before it.
func filterWrites(as ActionSeq, s string) []stateWrite {
	fmap := map[pkt.Field]values.Value{}
	var out []stateWrite
	for _, a := range as {
		switch a.Kind {
		case ActModify:
			fmap[a.Field] = a.Val
		case ActSet, ActIncr, ActDecr:
			if a.Var != s {
				continue
			}
			w := stateWrite{Kind: a.Kind, Idx: SubstIdx(a.Idx, fmap)}
			if a.Kind == ActSet {
				w.SVal = SubstExpr(a.SVal, fmap)
			}
			out = append(out, w)
		}
	}
	return out
}
