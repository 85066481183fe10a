// Package polygen generates random SNAP policies over a deliberately tiny
// domain (three fields, three values, two state variables), so random
// programs collide on fields, variables and indices and exercise the
// composition corner cases. It backs the xfdd semantics fuzz suite and the
// delta-vs-cold compilation equivalence suite; both need the same
// distribution, so it lives in one place.
package polygen

import (
	"math/rand"

	"snap/internal/deps"
	"snap/internal/pkt"
	"snap/internal/syntax"
	"snap/internal/values"
)

// The fuzz domain.
var (
	Fields = []pkt.Field{pkt.SrcPort, pkt.DstPort, pkt.Inport}
	Vals   = []values.Value{values.Int(1), values.Int(2), values.Bool(true)}
	Vars   = []string{"s", "t"}
)

// Gen is a seeded policy generator. All randomness flows through Rng, so
// a fixed seed reproduces the exact policy sequence.
type Gen struct{ Rng *rand.Rand }

// New returns a generator drawing from rng.
func New(rng *rand.Rand) *Gen { return &Gen{Rng: rng} }

// Value picks a random constant from the domain.
func (g *Gen) Value() values.Value { return Vals[g.Rng.Intn(len(Vals))] }

// Field picks a random packet field from the domain.
func (g *Gen) Field() pkt.Field { return Fields[g.Rng.Intn(len(Fields))] }

// Var picks a random state variable name from the domain.
func (g *Gen) Var() string { return Vars[g.Rng.Intn(len(Vars))] }

// Expr picks a random scalar expression: a constant or a field reference.
func (g *Gen) Expr() syntax.Expr {
	if g.Rng.Intn(2) == 0 {
		return syntax.V(g.Value())
	}
	return syntax.F(g.Field())
}

// Pred generates a random predicate of at most the given operator depth.
func (g *Gen) Pred(depth int) syntax.Pred {
	if depth <= 0 {
		switch g.Rng.Intn(4) {
		case 0:
			return syntax.Id()
		case 1:
			return syntax.Nothing()
		case 2:
			return syntax.FieldEq(g.Field(), g.Value())
		default:
			return syntax.TestState(g.Var(), g.Expr(), g.Expr())
		}
	}
	switch g.Rng.Intn(4) {
	case 0:
		return syntax.Neg(g.Pred(depth - 1))
	case 1:
		return syntax.Or{X: g.Pred(depth - 1), Y: g.Pred(depth - 1)}
	case 2:
		return syntax.And{X: g.Pred(depth - 1), Y: g.Pred(depth - 1)}
	default:
		return g.Pred(0)
	}
}

// Policy generates a random policy of at most the given operator depth.
func (g *Gen) Policy(depth int) syntax.Policy {
	if depth <= 0 {
		switch g.Rng.Intn(6) {
		case 0:
			return g.Pred(0)
		case 1:
			return syntax.Assign(g.Field(), g.Value())
		case 2:
			return syntax.WriteState(g.Var(), g.Expr(), g.Expr())
		case 3:
			return syntax.IncrState(g.Var(), g.Expr())
		case 4:
			return syntax.DecrState(g.Var(), g.Expr())
		default:
			return syntax.Assign(pkt.Outport, g.Value())
		}
	}
	switch g.Rng.Intn(5) {
	case 0:
		return syntax.Seq{P: g.Policy(depth - 1), Q: g.Policy(depth - 1)}
	case 1:
		return g.SafePar(depth - 1)
	case 2:
		return syntax.If{Cond: g.Pred(depth - 1), Then: g.Policy(depth - 1), Else: g.Policy(depth - 1)}
	case 3:
		return syntax.Atomic{P: g.Policy(depth - 1)}
	default:
		return g.Policy(0)
	}
}

// SafePar generates parallel compositions whose operands do not share any
// variable between one side's reads/writes and the other's writes: the
// formal semantics leaves such compositions undefined (⊥), so they are
// not equivalence-testable.
func (g *Gen) SafePar(depth int) syntax.Policy {
	for tries := 0; tries < 10; tries++ {
		p := g.Policy(depth)
		q := g.Policy(depth)
		if ParSafe(p, q) {
			return syntax.Parallel{P: p, Q: q}
		}
	}
	return g.Policy(depth)
}

// ParSafe reports whether p + q has defined semantics: no variable written
// by one side is read or written by the other.
func ParSafe(p, q syntax.Policy) bool {
	wp, wq := deps.WriteSet(p), deps.WriteSet(q)
	rp, rq := deps.ReadSet(p), deps.ReadSet(q)
	for v := range wp {
		if wq[v] || rq[v] {
			return false
		}
	}
	for v := range wq {
		if rp[v] {
			return false
		}
	}
	return true
}

// Spine generates k independent fragments meant to be Seq-composed — the
// shape a delta compiler sees: a pipeline of stages where an edit
// replaces one stage. Fragments are drawn from Policy at the given depth.
func (g *Gen) Spine(k, depth int) []syntax.Policy {
	out := make([]syntax.Policy, k)
	for i := range out {
		out[i] = g.Policy(depth)
	}
	return out
}

// Packet generates a random packet over the fuzz domain.
func Packet(rng *rand.Rand) pkt.Packet {
	return pkt.New(map[pkt.Field]values.Value{
		pkt.SrcPort: values.Int(int64(1 + rng.Intn(2))),
		pkt.DstPort: values.Int(int64(1 + rng.Intn(2))),
		pkt.Inport:  values.Int(int64(1 + rng.Intn(2))),
	})
}
