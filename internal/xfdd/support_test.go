package xfdd

import (
	"math/rand"
	"testing"

	"snap/internal/apps"
	"snap/internal/deps"
	"snap/internal/pkt"
	"snap/internal/polygen"
	"snap/internal/syntax"
	"snap/internal/values"
)

// translateFullContext translates p with projection switched off, by the
// rule projection already has: an opaque chain is never projected, and a
// chain inherits opacity from its root. Every operator then sees the whole
// path context, as it would under an all-ones support.
func translateFullContext(p syntax.Policy) (*Diagram, ApplyStats, error) {
	tr := NewTranslator(deps.OrderOf(p))
	tr.st.newContext().opaque = true
	return translateChecked(tr, p)
}

func translateChecked(tr *Translator, p syntax.Policy) (*Diagram, ApplyStats, error) {
	d, err := tr.ToXFDD(p)
	if err == nil {
		err = CheckRaces(d)
	}
	return d, tr.st.ApplyStats(), err
}

// TestProjectedEqualsFullContext: keying composition on the operands'
// support changes no output. Every program compiles to a structurally equal
// diagram, or is rejected with the same error text, whether the operators
// see projected contexts or the full path context.
func TestProjectedEqualsFullContext(t *testing.T) {
	programs := 5000
	if testing.Short() {
		programs = 600
	}
	var policies []syntax.Policy
	rng := rand.New(rand.NewSource(20160822))
	for i := 0; i < programs; i++ {
		policies = append(policies, polygen.New(rng).Policy(1+rng.Intn(4)))
	}
	for _, a := range apps.All() {
		p, err := a.Policy()
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		policies = append(policies, p, syntax.Then(apps.Assumption(8), p, apps.AssignEgress(8)))
	}

	var compiled, rejected int
	var projected, full uint64
	for i, p := range policies {
		got, gotStats, gotErr := translateChecked(NewTranslator(deps.OrderOf(p)), p)
		want, wantStats, wantErr := translateFullContext(p)
		projected += gotStats.Contexts
		full += wantStats.Contexts
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("program %d: projected err %v, full-context err %v\n%s", i, gotErr, wantErr, p)
		}
		if gotErr != nil {
			rejected++
			continue
		}
		compiled++
		if !StructuralEqual(got, want) || got.Size() != want.Size() {
			t.Fatalf("program %d: projected diagram (%d nodes) differs from full-context diagram (%d nodes)\n%s\nprojected:\n%s\nfull:\n%s",
				i, got.Size(), want.Size(), p, got, want)
		}
	}
	if compiled == 0 || rejected == 0 {
		t.Fatalf("compiled %d, rejected %d: the suite must cover both outcomes", compiled, rejected)
	}
	if projected >= full {
		t.Fatalf("projection minted %d contexts against %d without it: it never dropped a fact", projected, full)
	}
	t.Logf("%d compiled, %d rejected alike; contexts %d projected vs %d full", compiled, rejected, projected, full)
}

// factDomain draws tests over few fields, values and variables, so random
// chains hold several facts on the field or variable a random query reads.
type factDomain struct{ rng *rand.Rand }

var (
	domFields = []pkt.Field{pkt.SrcPort, pkt.DstPort, pkt.SrcIP, pkt.DstIP}
	domVals   = []values.Value{values.Int(1), values.Int(2), values.Prefix(10<<24, 8), values.Prefix(10<<24|1<<16, 16)}
	domVars   = []string{"s", "t", "u"}
)

func (g factDomain) field() pkt.Field { return domFields[g.rng.Intn(len(domFields))] }

func (g factDomain) expr() syntax.Expr {
	if g.rng.Intn(2) == 0 {
		return syntax.V(values.Int(int64(1 + g.rng.Intn(2))))
	}
	return syntax.F(g.field())
}

// test draws a field-value or state test, the two kinds a projectable chain
// holds.
func (g factDomain) test() Test {
	if g.rng.Intn(2) == 0 {
		return FVTest{Field: g.field(), Val: domVals[g.rng.Intn(len(domVals))]}
	}
	return STest{Var: domVars[g.rng.Intn(len(domVars))], Idx: []syntax.Expr{g.expr()}, Val: g.expr()}
}

// TestProjectionKeepsEveryAnswer is the read-set invariant as a property:
// for random chains of field-value and state facts and random queries t,
// the chain projected onto support(t) infers t, and keys it, exactly as the
// whole chain does.
func TestProjectionKeepsEveryAnswer(t *testing.T) {
	g := factDomain{rand.New(rand.NewSource(13))}
	dropped := 0
	for round := 0; round < 2000; round++ {
		st := NewStore()
		ctx := st.newContext()
		for n := g.rng.Intn(10); n > 0; n-- {
			ctx = ctx.With(g.test(), g.rng.Intn(2) == 0)
		}
		for q := 0; q < 8; q++ {
			query := g.test()
			proj := ctx.project(st.tests[st.TestID(query)-1].sup)
			if proj != ctx {
				dropped++
			}
			wantOut, wantKnown := ctx.Infer(query)
			gotOut, gotKnown := proj.Infer(query)
			if wantOut != gotOut || wantKnown != gotKnown {
				t.Fatalf("round %d: Infer(%s) = (%v, %v) on the chain, (%v, %v) on its projection",
					round, query, wantOut, wantKnown, gotOut, gotKnown)
			}
			if s, ok := query.(STest); ok && ctx.resolveSTKey(s) != proj.resolveSTKey(s) {
				t.Fatalf("round %d: resolveSTKey(%s) = %q on the chain, %q on its projection",
					round, query, ctx.resolveSTKey(s), proj.resolveSTKey(s))
			}
			if again := ctx.project(st.tests[st.TestID(query)-1].sup); again != proj {
				t.Fatalf("round %d: two projections of one chain onto one support are not pointer-equal", round)
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no projection ever dropped a fact")
	}
}

// TestOpaqueChainsAreNotProjected: a field-field fact or an assignment
// anywhere in the chain, and every extension after it, passes through
// project unchanged however narrow the support.
func TestOpaqueChainsAreNotProjected(t *testing.T) {
	srcport1 := FVTest{Field: pkt.SrcPort, Val: values.Int(1)}
	dstport2 := FVTest{Field: pkt.DstPort, Val: values.Int(2)}
	ff := NewFF(pkt.SrcIP, pkt.DstIP)
	assign := map[pkt.Field]values.Value{pkt.Outport: values.Int(3)}
	narrow := fieldSupport(pkt.SrcPort)

	cases := []struct {
		name   string
		build  func(root *Context) *Context
		opaque bool
	}{
		{"field-value facts only", func(c *Context) *Context { return c.With(srcport1, true).With(dstport2, false) }, false},
		{"field-field fact last", func(c *Context) *Context { return c.With(dstport2, true).With(ff, true) }, true},
		{"failed field-field fact first", func(c *Context) *Context { return c.With(ff, false).With(dstport2, true) }, true},
		{"assignment last", func(c *Context) *Context { return c.With(dstport2, true).WithAssignments(assign) }, true},
		{"assignment then fact", func(c *Context) *Context { return c.WithAssignments(assign).With(dstport2, true) }, true},
	}
	for _, tc := range cases {
		ctx := tc.build(NewStore().newContext())
		if ctx.opaque != tc.opaque {
			t.Errorf("%s: opaque = %v, want %v", tc.name, ctx.opaque, tc.opaque)
		}
		if proj := ctx.project(narrow); (proj == ctx) != tc.opaque {
			t.Errorf("%s: projected = %v, want %v", tc.name, proj != ctx, !tc.opaque)
		}
	}
}
