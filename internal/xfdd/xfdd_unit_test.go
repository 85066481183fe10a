package xfdd_test

import (
	"strings"
	"testing"

	"snap/internal/apps"
	"snap/internal/pkt"
	"snap/internal/syntax"
	"snap/internal/values"
	"snap/internal/xfdd"
)

func TestOrdererCategories(t *testing.T) {
	ord := xfdd.Orderer{VarPos: map[string]int{"a": 0, "b": 1}}
	fv := xfdd.FVTest{Field: pkt.SrcIP, Val: values.Int(1)}
	ff := xfdd.NewFF(pkt.SrcIP, pkt.DstIP)
	st := xfdd.STest{Var: "a", Idx: []syntax.Expr{syntax.F(pkt.SrcIP)}, Val: syntax.V(values.Bool(true))}

	// Field-value < field-field < state (§4.2).
	if ord.Compare(fv, ff) >= 0 || ord.Compare(ff, st) >= 0 || ord.Compare(fv, st) >= 0 {
		t.Fatal("category order violated")
	}
	// State tests order by dependency position.
	stB := xfdd.STest{Var: "b", Idx: st.Idx, Val: st.Val}
	if ord.Compare(st, stB) >= 0 {
		t.Fatal("state-variable order violated")
	}
	// Identity.
	if ord.Compare(fv, fv) != 0 || ord.Compare(st, st) != 0 {
		t.Fatal("identical tests must compare equal")
	}
	// Field-field tests normalize operand order.
	if !xfdd.SameTest(xfdd.NewFF(pkt.DstIP, pkt.SrcIP), ff) {
		t.Fatal("FF normalization")
	}
}

func TestContextInference(t *testing.T) {
	ctx := xfdd.NewContext()
	f1 := xfdd.FVTest{Field: pkt.SrcPort, Val: values.Int(5)}

	if _, known := ctx.Infer(f1); known {
		t.Fatal("empty context decided a test")
	}
	ctxT := ctx.With(f1, true)
	if out, known := ctxT.Infer(f1); !known || !out {
		t.Fatal("recorded test must be inferred true")
	}
	// A different value on the same field is now false.
	f2 := xfdd.FVTest{Field: pkt.SrcPort, Val: values.Int(9)}
	if out, known := ctxT.Infer(f2); !known || out {
		t.Fatal("contradicting value must infer false")
	}
	// Prefix nesting: dstip=10.0.6.0/24 passed ⇒ 10.0.0.0/8 passes,
	// 11.0.0.0/8 fails.
	p24 := xfdd.FVTest{Field: pkt.DstIP, Val: values.Prefix(10<<24|6<<8, 24)}
	p8 := xfdd.FVTest{Field: pkt.DstIP, Val: values.Prefix(10<<24, 8)}
	q8 := xfdd.FVTest{Field: pkt.DstIP, Val: values.Prefix(11<<24, 8)}
	ctxP := ctx.With(p24, true)
	if out, known := ctxP.Infer(p8); !known || !out {
		t.Fatal("wider prefix must infer true")
	}
	if out, known := ctxP.Infer(q8); !known || out {
		t.Fatal("disjoint prefix must infer false")
	}
	// Failing the wide prefix decides the narrow one.
	ctxN := ctx.With(p8, false)
	if out, known := ctxN.Infer(p24); !known || out {
		t.Fatal("failed superset must fail subset")
	}
}

func TestContextFieldEquality(t *testing.T) {
	ctx := xfdd.NewContext()
	ff := xfdd.NewFF(pkt.SrcIP, pkt.DstIP)
	eq := ctx.With(ff, true)

	// A known value for one field propagates to its class.
	eq2 := eq.With(xfdd.FVTest{Field: pkt.SrcIP, Val: values.IPv4(1, 2, 3, 4)}, true)
	if out, known := eq2.Infer(xfdd.FVTest{Field: pkt.DstIP, Val: values.IPv4(1, 2, 3, 4)}); !known || !out {
		t.Fatal("equality class must propagate known values")
	}
	// Recorded inequality decides the test negatively.
	ne := ctx.With(ff, false)
	if out, known := ne.Infer(ff); !known || out {
		t.Fatal("recorded inequality must infer false")
	}
}

func TestEExprEqual(t *testing.T) {
	ctx := xfdd.NewContext()
	srcip := syntax.Expr(syntax.F(pkt.SrcIP))
	dstip := syntax.Expr(syntax.F(pkt.DstIP))
	one := syntax.Expr(syntax.V(values.Int(1)))

	// Same field: trivially equal.
	if out, _ := ctx.EExprEqual([]syntax.Expr{srcip}, []syntax.Expr{srcip}); out != xfdd.EqYes {
		t.Fatal("same field must be EqYes")
	}
	// Distinct constants: EqNo.
	if out, _ := ctx.EExprEqual([]syntax.Expr{one}, []syntax.Expr{syntax.V(values.Int(2))}); out != xfdd.EqNo {
		t.Fatal("distinct constants must be EqNo")
	}
	// Arity mismatch: EqNo.
	if out, _ := ctx.EExprEqual([]syntax.Expr{srcip, dstip}, []syntax.Expr{srcip}); out != xfdd.EqNo {
		t.Fatal("length mismatch must be EqNo")
	}
	// Undetermined field-field: EqBoth with the deciding test.
	out, decider := ctx.EExprEqual([]syntax.Expr{srcip}, []syntax.Expr{dstip})
	if out != xfdd.EqBoth || decider == nil {
		t.Fatalf("want EqBoth with decider, got %v %v", out, decider)
	}
	// Under the decider's truth, the comparison resolves.
	ctxT := ctx.With(decider, true)
	if out, _ := ctxT.EExprEqual([]syntax.Expr{srcip}, []syntax.Expr{dstip}); out != xfdd.EqYes {
		t.Fatal("decided context must yield EqYes")
	}
}

// TestDNSTunnelXFDDShape checks the Figure 3 structure qualitatively: the
// root tests dstip=10.0.6.0/24 (the first field-value test), state tests
// appear below field tests, and orphan tests precede susp-client tests on
// every path.
func TestDNSTunnelXFDDShape(t *testing.T) {
	p := syntax.Then(apps.DNSTunnelDetect(), apps.AssignEgress(6))
	d, order, err := xfdd.Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	root, ok := d.Test.(xfdd.FVTest)
	if !ok {
		t.Fatalf("root is %T, want a field-value test", d.Test)
	}
	if root.Field != pkt.DstIP && root.Field != pkt.SrcIP && root.Field != pkt.SrcPort {
		t.Fatalf("root tests %v", root)
	}

	// On every path: field tests, then state tests in dependency order.
	var walk func(n *xfdd.Diagram, seenState []string)
	walk = func(n *xfdd.Diagram, seenState []string) {
		if n.IsLeaf() {
			return
		}
		if st, ok := n.Test.(xfdd.STest); ok {
			for _, prev := range seenState {
				if !order.Before(prev, st.Var) && prev != st.Var {
					t.Fatalf("state order violated: %s after %s", st.Var, prev)
				}
			}
			seenState = append(append([]string{}, seenState...), st.Var)
		} else if len(seenState) > 0 {
			t.Fatalf("field test %v below a state test", n.Test)
		}
		walk(n.True, seenState)
		walk(n.False, seenState)
	}
	walk(d, nil)

	// The rendering mentions all three variables.
	s := d.String()
	for _, v := range []string{"orphan", "susp-client", "blacklist"} {
		if !strings.Contains(s, v) {
			t.Errorf("xFDD rendering missing %s", v)
		}
	}
}

// TestLeafCanonicalization: leaves deduplicate and absorb pure drops.
func TestLeafCanonicalization(t *testing.T) {
	mod := xfdd.Action{Kind: xfdd.ActModify, Field: pkt.Outport, Val: values.Int(1)}
	dropAct := xfdd.Action{Kind: xfdd.ActDrop}
	st := xfdd.NewStore()

	l := st.Leaf([]xfdd.ActionSeq{{mod}, {mod}})
	if len(l.Seqs) != 1 {
		t.Fatalf("duplicate sequences kept: %v", l.Seqs)
	}
	l2 := st.Leaf([]xfdd.ActionSeq{{dropAct}, {mod}})
	if len(l2.Seqs) != 1 || l2.Seqs[0][0].Kind != xfdd.ActModify {
		t.Fatalf("pure drop not absorbed: %v", l2.Seqs)
	}
	l3 := st.Leaf(nil)
	if !l3.IsDrop() {
		t.Fatal("empty leaf must canonicalize to drop")
	}
	if !st.DropLeaf().IsDrop() || !st.IDLeaf().IsID() {
		t.Fatal("canonical leaves misclassified")
	}
}

// TestSeqWriteThenTestResolution: the Appendix E hard case — a write
// determines a later test on the same entry without emitting a state test.
func TestSeqWriteThenTestResolution(t *testing.T) {
	p := syntax.Then(
		syntax.WriteState("s", syntax.F(pkt.SrcIP), syntax.V(values.Int(7))),
		syntax.TestState("s", syntax.F(pkt.SrcIP), syntax.V(values.Int(7))),
	)
	d, _, err := xfdd.Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	// The test is statically true: the diagram needs no state test at all.
	if !d.IsLeaf() {
		t.Fatalf("expected a leaf (test resolved statically), got:\n%s", d)
	}
	if d.IsDrop() {
		t.Fatal("resolved test must pass")
	}
}

// TestSeqCrossFieldWrite: s[srcip] ← 1 then s[dstip] = 1 requires the
// field-field test srcip = dstip — the reason xFDDs have them (§4.2).
func TestSeqCrossFieldWrite(t *testing.T) {
	p := syntax.Then(
		syntax.WriteState("s", syntax.F(pkt.SrcIP), syntax.V(values.Int(1))),
		syntax.TestState("s", syntax.F(pkt.DstIP), syntax.V(values.Int(1))),
	)
	d, _, err := xfdd.Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	foundFF := false
	var walk func(*xfdd.Diagram)
	walk = func(n *xfdd.Diagram) {
		if n == nil || n.IsLeaf() {
			return
		}
		if _, ok := n.Test.(xfdd.FFTest); ok {
			foundFF = true
		}
		walk(n.True)
		walk(n.False)
	}
	walk(d)
	if !foundFF {
		t.Fatalf("expected a field-field test in:\n%s", d)
	}
}

// TestIncrementThresholdRewrite: counter++ then counter=th compiles to a
// pre-state test against th-1 (the Figure 1 pattern).
func TestIncrementThresholdRewrite(t *testing.T) {
	p := syntax.Then(
		syntax.IncrState("c", syntax.F(pkt.SrcIP)),
		syntax.TestState("c", syntax.F(pkt.SrcIP), syntax.V(values.Int(3))),
	)
	d, _, err := xfdd.Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := d.Test.(xfdd.STest)
	if !ok {
		t.Fatalf("root should be the rewritten state test:\n%s", d)
	}
	c, ok := st.Val.(syntax.Const)
	if !ok || !values.Eq(c.Val, values.Int(2)) {
		t.Fatalf("pre-state threshold = %v, want 2", st.Val)
	}
}
