// Structural hashing and equality over the AST. The delta compiler keys
// its fragment memo tables by Hash and confirms candidates with Equal, so
// two policies compare in O(min size) without rendering either to a string.
// Equal implies equal Hash; the converse is resolved by the deep compare.
package syntax

import "snap/internal/values"

// Hash returns a structural FNV-1a hash of p: equal ASTs hash equally,
// and unrelated ASTs collide with ordinary 64-bit probability. It makes
// no attempt to identify semantically equal but structurally different
// policies (e.g. reassociated compositions) — those simply recompile.
func Hash(p Policy) uint64 {
	h := fnvOffset
	return hashPolicy(h, p)
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func mix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func mixString(h uint64, s string) uint64 {
	h = mix(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Per-node tags keep differently-shaped trees from hashing alike.
const (
	tagIdentity = iota + 1
	tagDrop
	tagTest
	tagNot
	tagOr
	tagAnd
	tagStateTest
	tagModify
	tagParallel
	tagSeq
	tagSetState
	tagIncr
	tagDecr
	tagIf
	tagAtomic
	tagConst
	tagFieldRef
	tagTuple
)

func hashPolicy(h uint64, p Policy) uint64 {
	switch n := p.(type) {
	case Identity:
		return mix(h, tagIdentity)
	case Drop:
		return mix(h, tagDrop)
	case Test:
		h = mix(h, tagTest)
		h = mix(h, uint64(n.Field))
		return hashValue(h, n.Val)
	case Not:
		return hashPolicy(mix(h, tagNot), n.X)
	case Or:
		h = hashPolicy(mix(h, tagOr), n.X)
		return hashPolicy(h, n.Y)
	case And:
		h = hashPolicy(mix(h, tagAnd), n.X)
		return hashPolicy(h, n.Y)
	case StateTest:
		h = mixString(mix(h, tagStateTest), n.Var)
		h = hashExpr(h, n.Idx)
		return hashExpr(h, n.Val)
	case Modify:
		h = mix(h, tagModify)
		h = mix(h, uint64(n.Field))
		return hashValue(h, n.Val)
	case Parallel:
		h = hashPolicy(mix(h, tagParallel), n.P)
		return hashPolicy(h, n.Q)
	case Seq:
		h = hashPolicy(mix(h, tagSeq), n.P)
		return hashPolicy(h, n.Q)
	case SetState:
		h = mixString(mix(h, tagSetState), n.Var)
		h = hashExpr(h, n.Idx)
		return hashExpr(h, n.Val)
	case Incr:
		h = mixString(mix(h, tagIncr), n.Var)
		return hashExpr(h, n.Idx)
	case Decr:
		h = mixString(mix(h, tagDecr), n.Var)
		return hashExpr(h, n.Idx)
	case If:
		h = hashPolicy(mix(h, tagIf), n.Cond)
		h = hashPolicy(h, n.Then)
		return hashPolicy(h, n.Else)
	case Atomic:
		return hashPolicy(mix(h, tagAtomic), n.P)
	}
	return mixString(h, "?unknown")
}

func hashExpr(h uint64, e Expr) uint64 {
	switch x := e.(type) {
	case Const:
		return hashValue(mix(h, tagConst), x.Val)
	case FieldRef:
		return mix(mix(h, tagFieldRef), uint64(x.Field))
	case TupleExpr:
		h = mix(h, tagTuple)
		h = mix(h, uint64(len(x.Elems)))
		for _, el := range x.Elems {
			h = hashExpr(h, el)
		}
		return h
	case nil:
		return mix(h, 0)
	}
	return mixString(h, "?expr")
}

func hashValue(h uint64, v values.Value) uint64 {
	h = mix(h, uint64(v.Kind))
	h = mix(h, uint64(v.Num))
	h = mix(h, uint64(v.Len))
	return mixString(h, v.Str())
}

// Equal reports structural equality of two policies: identical AST shape
// with identical fields, variables and values. The comparison is O(min
// size) with no allocation.
func Equal(p, q Policy) bool {
	switch a := p.(type) {
	case Identity:
		_, ok := q.(Identity)
		return ok
	case Drop:
		_, ok := q.(Drop)
		return ok
	case Test:
		b, ok := q.(Test)
		return ok && a == b
	case Not:
		b, ok := q.(Not)
		return ok && Equal(a.X, b.X)
	case Or:
		b, ok := q.(Or)
		return ok && Equal(a.X, b.X) && Equal(a.Y, b.Y)
	case And:
		b, ok := q.(And)
		return ok && Equal(a.X, b.X) && Equal(a.Y, b.Y)
	case StateTest:
		b, ok := q.(StateTest)
		return ok && a.Var == b.Var && EqualExpr(a.Idx, b.Idx) && EqualExpr(a.Val, b.Val)
	case Modify:
		b, ok := q.(Modify)
		return ok && a == b
	case Parallel:
		b, ok := q.(Parallel)
		return ok && Equal(a.P, b.P) && Equal(a.Q, b.Q)
	case Seq:
		b, ok := q.(Seq)
		return ok && Equal(a.P, b.P) && Equal(a.Q, b.Q)
	case SetState:
		b, ok := q.(SetState)
		return ok && a.Var == b.Var && EqualExpr(a.Idx, b.Idx) && EqualExpr(a.Val, b.Val)
	case Incr:
		b, ok := q.(Incr)
		return ok && a.Var == b.Var && EqualExpr(a.Idx, b.Idx)
	case Decr:
		b, ok := q.(Decr)
		return ok && a.Var == b.Var && EqualExpr(a.Idx, b.Idx)
	case If:
		b, ok := q.(If)
		return ok && Equal(a.Cond, b.Cond) && Equal(a.Then, b.Then) && Equal(a.Else, b.Else)
	case Atomic:
		b, ok := q.(Atomic)
		return ok && Equal(a.P, b.P)
	}
	return false
}

// EqualExpr reports structural equality of two expressions.
func EqualExpr(e, f Expr) bool {
	switch a := e.(type) {
	case Const:
		b, ok := f.(Const)
		return ok && a == b
	case FieldRef:
		b, ok := f.(FieldRef)
		return ok && a == b
	case TupleExpr:
		b, ok := f.(TupleExpr)
		if !ok || len(a.Elems) != len(b.Elems) {
			return false
		}
		for i := range a.Elems {
			if !EqualExpr(a.Elems[i], b.Elems[i]) {
				return false
			}
		}
		return true
	case nil:
		return f == nil
	}
	return false
}
