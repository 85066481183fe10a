package xfdd

import (
	"snap/internal/pkt"
	"snap/internal/syntax"
	"snap/internal/values"
)

// Store is the hash-consing backend of a translator: a unique table that
// interns every diagram node (branch and leaf), every test, and every leaf
// action sequence, so that structurally equal objects are pointer-equal and
// carry small integer ids. Canonical identity makes the BDD-style node
// reductions O(1) (no string keys), lets composition memoize subproblems in
// apply caches keyed by node ids, and turns the diagrams produced by one
// translator into DAGs whose shared subgraphs downstream passes visit once.
//
// All ids are 1-based. Every node, test, action sequence and context the
// translator touches comes from a store, so every id it reads is set.
type Store struct {
	// Expression and index interning. Scalar expressions (constants and
	// field references) are comparable and intern directly; anything else
	// falls back to its canonical string key.
	exprs     map[syntax.Expr]uint32
	exprByKey map[string]uint32
	exprList  []syntax.Expr
	idxs      map[string]uint32
	idxList   [][]syntax.Expr

	// Test interning, by kind. sTests keys resolve Idx/Val through the
	// expression tables so structurally equal state tests share an id.
	fvTests map[FVTest]int32
	ffTests map[FFTest]int32
	sTests  map[sTestKey]int32
	tests   []testRec

	// Action and action-sequence interning.
	actions map[actKey]uint32
	actList []Action
	seqs    map[string]uint32
	seqList []seqRec

	// The unique node table.
	leaves   map[string]*Diagram
	branches map[branchKey]*Diagram
	nodes    uint64

	idLeaf, dropLeaf *Diagram

	// Apply caches: composition subproblems solved once per (operands,
	// context projected onto the operands' support) triple, for the life of
	// the store, so an edit finds the subproblems of earlier translations
	// already solved. See compose.go for the call sites and support.go for
	// the projection. applyHits/applyMisses count the lookups of the three
	// context-keyed caches.
	unionCache    map[pairKey]*Diagram
	seqCache      map[pairKey]*Diagram
	seqASCache    map[seqASKey]*Diagram
	negCache      map[uint64]*Diagram
	restrictCache map[restrictKey]*Diagram
	applyHits     uint64
	applyMisses   uint64

	// Context identity: the shared empty root plus a counter handing out
	// ids to extensions (see context.go). assignCache memoizes
	// WithAssignments per (context, sequence).
	rootCtx     *Context
	ctxCount    uint64
	assignCache map[ctxSeqKey]*Context

	// varBits numbers state variables for support masks (see support.go).
	varBits map[string]uint

	// scratch is the reusable buffer for encoded id-list keys.
	scratch []byte
}

type testRec struct {
	t   Test
	cat int
	key string // ordering key within the category (same order as Test.key)
	sup support
}

type sTestKey struct {
	v        string
	idx, val uint32
}

type actKey struct {
	kind      ActKind
	field     pkt.Field
	val       values.Value
	v         string
	idx, sval uint32
}

type seqRec struct {
	seq   ActionSeq
	drops bool
	fmap  map[pkt.Field]values.Value // final field assignments (Algorithm 2)
	sup   support
}

type branchKey struct {
	test     int32
	tru, fls uint64
}

type pairKey struct{ a, b, ctx uint64 }

type seqASKey struct {
	seq  uint32
	node uint64
	ctx  uint64
}

type restrictKey struct {
	node    uint64
	test    int32
	outcome bool
}

type ctxSeqKey struct {
	ctx uint64
	seq uint32
}

// NewStore returns an empty hash-consing store.
func NewStore() *Store {
	return &Store{
		exprs:         map[syntax.Expr]uint32{},
		exprByKey:     map[string]uint32{},
		idxs:          map[string]uint32{},
		fvTests:       map[FVTest]int32{},
		ffTests:       map[FFTest]int32{},
		sTests:        map[sTestKey]int32{},
		actions:       map[actKey]uint32{},
		seqs:          map[string]uint32{},
		leaves:        map[string]*Diagram{},
		branches:      map[branchKey]*Diagram{},
		unionCache:    map[pairKey]*Diagram{},
		seqCache:      map[pairKey]*Diagram{},
		seqASCache:    map[seqASKey]*Diagram{},
		negCache:      map[uint64]*Diagram{},
		restrictCache: map[restrictKey]*Diagram{},
		assignCache:   map[ctxSeqKey]*Context{},
		varBits:       map[string]uint{},
	}
}

// canonValue folds Eq-coercible kinds together (False ≡ 0, True ≡ 1) so
// interned identity matches values.Eq, exactly as Value.Key does.
func canonValue(v values.Value) values.Value {
	if v.Kind == values.KindBool {
		return values.Value{Kind: values.KindInt, Num: v.Num}
	}
	return v
}

// encodeIDs appends the 4-byte little-endian encoding of each id to the
// store's scratch buffer and returns it as a string key.
func (st *Store) encodeIDs(ids []uint32) string {
	b := st.scratch[:0]
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	st.scratch = b
	return string(b)
}

// exprID interns a scalar expression. Constants are canonicalized through
// canonValue so Eq-equal constants share an id.
func (st *Store) exprID(e syntax.Expr) uint32 {
	switch x := e.(type) {
	case syntax.Const:
		k := syntax.Const{Val: canonValue(x.Val)}
		if id, ok := st.exprs[k]; ok {
			return id
		}
		st.exprList = append(st.exprList, e)
		id := uint32(len(st.exprList))
		st.exprs[k] = id
		return id
	case syntax.FieldRef:
		if id, ok := st.exprs[e]; ok {
			return id
		}
		st.exprList = append(st.exprList, e)
		id := uint32(len(st.exprList))
		st.exprs[e] = id
		return id
	default:
		// Non-comparable expression (tuples never reach here after
		// FlattenExpr, but stay safe): fall back to the canonical key.
		k := ExprKey(e)
		if id, ok := st.exprByKey[k]; ok {
			return id
		}
		st.exprList = append(st.exprList, e)
		id := uint32(len(st.exprList))
		st.exprByKey[k] = id
		return id
	}
}

// idxID interns an index component list.
func (st *Store) idxID(idx []syntax.Expr) uint32 {
	ids := make([]uint32, len(idx))
	for i, e := range idx {
		ids[i] = st.exprID(e)
	}
	k := st.encodeIDs(ids)
	if id, ok := st.idxs[k]; ok {
		return id
	}
	st.idxList = append(st.idxList, idx)
	id := uint32(len(st.idxList))
	st.idxs[k] = id
	return id
}

// TestID interns a test, returning its 1-based id. The cached ordering key
// is computed once per unique test, so composition never re-renders it.
func (st *Store) TestID(t Test) int32 {
	switch x := t.(type) {
	case FVTest:
		k := FVTest{Field: x.Field, Val: canonValue(x.Val)}
		if id, ok := st.fvTests[k]; ok {
			return id
		}
		id := st.addTest(t, 0)
		st.fvTests[k] = id
		return id
	case FFTest:
		if id, ok := st.ffTests[x]; ok {
			return id
		}
		id := st.addTest(t, 1)
		st.ffTests[x] = id
		return id
	case STest:
		k := sTestKey{v: x.Var, idx: st.idxID(x.Idx), val: st.exprID(x.Val)}
		if id, ok := st.sTests[k]; ok {
			return id
		}
		id := st.addTest(t, 2)
		st.sTests[k] = id
		return id
	}
	return 0
}

func (st *Store) addTest(t Test, cat int) int32 {
	st.tests = append(st.tests, testRec{t: t, cat: cat, key: t.key(), sup: st.testSupport(t)})
	return int32(len(st.tests))
}

// testByID returns the canonical test for an id.
func (st *Store) testByID(id int32) Test { return st.tests[id-1].t }

// compareTests orders two interned tests in the translator's total order
// using only cached data (category, precomputed key, variable position).
func (st *Store) compareTests(ord Orderer, a, b int32) int {
	if a == b {
		return 0
	}
	ra, rb := &st.tests[a-1], &st.tests[b-1]
	if ra.cat != rb.cat {
		return sign(ra.cat - rb.cat)
	}
	if ra.cat == 2 {
		sa, sb := ra.t.(STest), rb.t.(STest)
		pa, oka := ord.VarPos[sa.Var]
		pb, okb := ord.VarPos[sb.Var]
		switch {
		case oka && okb && pa != pb:
			return sign(pa - pb)
		case oka != okb:
			if oka {
				return -1
			}
			return 1
		case !oka && !okb && sa.Var != sb.Var:
			if sa.Var < sb.Var {
				return -1
			}
			return 1
		}
	}
	switch {
	case ra.key < rb.key:
		return -1
	case ra.key > rb.key:
		return 1
	default:
		return 0
	}
}

// actionID interns one leaf action.
func (st *Store) actionID(a Action) uint32 {
	k := actKey{kind: a.Kind, v: a.Var}
	switch a.Kind {
	case ActModify:
		k.field = a.Field
		k.val = canonValue(a.Val)
	case ActSet:
		k.idx = st.idxID(a.Idx)
		k.sval = st.exprID(a.SVal)
	case ActIncr, ActDecr:
		k.idx = st.idxID(a.Idx)
	}
	if id, ok := st.actions[k]; ok {
		return id
	}
	st.actList = append(st.actList, a)
	id := uint32(len(st.actList))
	st.actions[k] = id
	return id
}

// seqID interns an action sequence, caching its drop flag and final field
// assignments for composition.
func (st *Store) seqID(s ActionSeq) uint32 {
	ids := make([]uint32, len(s))
	for i, a := range s {
		ids[i] = st.actionID(a)
	}
	k := st.encodeIDs(ids)
	if id, ok := st.seqs[k]; ok {
		return id
	}
	st.seqList = append(st.seqList, seqRec{seq: s, drops: s.Drops(), fmap: fieldMap(s), sup: st.seqSupport(s)})
	id := uint32(len(st.seqList))
	st.seqs[k] = id
	return id
}

func (st *Store) seqByID(id uint32) ActionSeq { return st.seqList[id-1].seq }

// Leaf interns a canonicalized leaf: sequences dedupe by interned id,
// side-effect-free drop members are absorbed, and the empty set
// canonicalizes to the drop leaf.
func (st *Store) Leaf(seqs []ActionSeq) *Diagram {
	ids := make([]uint32, 0, len(seqs))
	for _, s := range seqs {
		ids = append(ids, st.seqID(s))
	}
	// Sort + dedupe by id (insertion sort: leaf sets are tiny).
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	ids = out
	if len(ids) > 1 {
		// Drop redundant pure-drop members: a multicast copy that does
		// nothing and emits nothing is redundant.
		kept := ids[:0]
		for _, id := range ids {
			if !isPureDrop(st.seqByID(id)) {
				kept = append(kept, id)
			}
		}
		if len(kept) > 0 {
			ids = kept
		} else {
			ids = ids[:1]
		}
	}
	if len(ids) == 0 {
		return st.DropLeaf()
	}
	k := st.encodeIDs(ids)
	if d, ok := st.leaves[k]; ok {
		return d
	}
	canon := make([]ActionSeq, len(ids))
	var sup support
	for i, id := range ids {
		canon[i] = st.seqByID(id)
		sup = sup.union(st.seqList[id-1].sup)
	}
	st.nodes++
	d := &Diagram{Seqs: canon, id: st.nodes, seqIDs: append([]uint32(nil), ids...), sup: sup}
	st.leaves[k] = d
	return d
}

// Branch interns a branch node, applying the BDD reduction: when both
// children are the same node the test is redundant. Children must be
// interned (pointer identity is structural identity).
func (st *Store) Branch(t Test, tr, fa *Diagram) *Diagram {
	if tr == fa {
		return tr
	}
	tid := st.TestID(t)
	k := branchKey{test: tid, tru: tr.id, fls: fa.id}
	if d, ok := st.branches[k]; ok {
		return d
	}
	st.nodes++
	d := &Diagram{Test: st.testByID(tid), True: tr, False: fa, id: st.nodes, testID: tid,
		sup: st.tests[tid-1].sup.union(tr.sup).union(fa.sup)}
	st.branches[k] = d
	return d
}

// IDLeaf returns the canonical {id} leaf: every call on the same store
// yields the same node.
func (st *Store) IDLeaf() *Diagram {
	if st.idLeaf == nil {
		st.idLeaf = st.Leaf([]ActionSeq{{}})
	}
	return st.idLeaf
}

// DropLeaf returns the canonical {drop} leaf.
func (st *Store) DropLeaf() *Diagram {
	if st.dropLeaf == nil {
		st.nodes++
		drop := ActionSeq{Action{Kind: ActDrop}}
		d := &Diagram{Seqs: []ActionSeq{drop}, id: st.nodes, seqIDs: []uint32{st.seqID(drop)}}
		st.leaves[st.encodeIDs(d.seqIDs)] = d
		st.dropLeaf = d
	}
	return st.dropLeaf
}

// NodeCount reports how many unique nodes the store has interned.
func (st *Store) NodeCount() int { return int(st.nodes) }

// ApplyStats are the store's exact work counters. They only grow; diff two
// readings to cost one translation.
type ApplyStats struct {
	// Contexts counts the contexts minted (the root and every distinct
	// extension).
	Contexts uint64
	// Hits and Misses count lookups in the ⊕, ⊙ and seqAS apply caches.
	Hits, Misses uint64
}

// ApplyStats reads the store's work counters.
func (st *Store) ApplyStats() ApplyStats {
	return ApplyStats{Contexts: st.ctxCount, Hits: st.applyHits, Misses: st.applyMisses}
}

// newContext hands out the store's shared empty context; extensions get
// their ids from nextCtxID via Context.With (see context.go). Sharing the
// root makes context chains canonical per (sequence of facts), which is
// what lets Context.project return pointer-equal projections.
func (st *Store) newContext() *Context {
	if st.rootCtx == nil {
		st.rootCtx = &Context{
			vals:  new([pkt.NumFields]values.Value),
			pos:   new([pkt.NumFields]*fvFact),
			neg:   new([pkt.NumFields]*negFact),
			store: st,
			id:    st.nextCtxID(),
		}
	}
	return st.rootCtx
}

func (st *Store) nextCtxID() uint64 {
	st.ctxCount++
	return st.ctxCount
}
