package xfdd_test

import (
	"fmt"
	"math/rand"
	"testing"

	"snap/internal/deps"
	"snap/internal/pkt"
	"snap/internal/polygen"
	"snap/internal/syntax"
	"snap/internal/values"
	"snap/internal/xfdd"
)

// deltaFrag is one guarded stage of a pipeline: fire on its own srcport,
// bump its own counter, pass everything else through. Stages compose
// without entangling each other's leaves, so an edit to one stage leaves
// the others' subdiagrams intact — the shape delta translation targets.
func deltaFrag(n int64) syntax.Policy {
	return syntax.Cond(
		syntax.FieldEq(pkt.SrcPort, values.Int(n)),
		syntax.IncrState(fmt.Sprintf("v%d", n), syntax.Vec(syntax.F(pkt.SrcIP))),
		syntax.Id(),
	)
}

// TestTranslateMemoHit: re-translating the identical policy on the same
// translator returns the identical diagram pointer with zero new nodes.
func TestTranslateMemoHit(t *testing.T) {
	p := syntax.Then(deltaFrag(1), deltaFrag(2), deltaFrag(3))
	tr := xfdd.NewTranslator(deps.OrderOf(p))
	d1, err := tr.TranslateMemo(p)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.Store().Watermark()
	d2, err := tr.TranslateMemo(syntax.Then(deltaFrag(1), deltaFrag(2), deltaFrag(3)))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("identical policy did not hit the fragment memo")
	}
	if got := tr.Store().Watermark(); got != w {
		t.Fatalf("memo hit minted %d new nodes", got-w)
	}
}

// TestTranslateMemoDelta: editing one fragment of a spine reuses the
// unchanged fragments' interned nodes and matches a cold translation.
func TestTranslateMemoDelta(t *testing.T) {
	old := syntax.Then(deltaFrag(1), deltaFrag(2), deltaFrag(3), deltaFrag(4))
	new := syntax.Then(deltaFrag(1), deltaFrag(9), deltaFrag(3), deltaFrag(4))
	order := deps.OrderOf(old)

	tr := xfdd.NewTranslator(order)
	if _, err := tr.TranslateMemo(old); err != nil {
		t.Fatal(err)
	}
	w := tr.Store().Watermark()
	dNew, err := tr.TranslateMemo(new)
	if err != nil {
		t.Fatal(err)
	}
	reused, fresh := xfdd.ReuseOf(dNew, w)
	if reused == 0 {
		t.Fatal("single-fragment edit reused no interned nodes")
	}
	t.Logf("delta: reused=%d fresh=%d", reused, fresh)

	cold, err := xfdd.TranslateWithOrder(new, deps.OrderOf(new))
	if err != nil {
		t.Fatal(err)
	}
	if !xfdd.StructuralEqual(dNew, cold) {
		t.Fatalf("delta diagram differs from cold diagram\ndelta:\n%s\ncold:\n%s", dNew, cold)
	}
}

// TestStructuralEqualDetectsDifference: the oracle is not vacuously true.
func TestStructuralEqualDetectsDifference(t *testing.T) {
	p := syntax.Then(deltaFrag(1), deltaFrag(2))
	q := syntax.Then(deltaFrag(1), deltaFrag(7))
	dp, _, err := xfdd.Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	dq, _, err := xfdd.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if xfdd.StructuralEqual(dp, dq) {
		t.Fatal("oracle equated diagrams of different policies")
	}
}

// TestTranslateMemoFuzz: a translator warmed by another program agrees
// structurally with a fresh one across random policies. Each program is
// translated cold, on a fresh translator, and warm, on a translator that
// has first translated the corpus's previous program under the same order,
// so the fragment memo and the apply caches hold another program's entries.
// Every node of every diagram built is interned, and a revisit is a pure
// memo hit that mints no node.
func TestTranslateMemoFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(160816))
	n := 200
	if testing.Short() {
		n = 50
	}
	interned := func(i int, d *xfdd.Diagram) {
		seen := map[*xfdd.Diagram]bool{}
		var walk func(*xfdd.Diagram)
		walk = func(x *xfdd.Diagram) {
			if seen[x] {
				return
			}
			seen[x] = true
			if x.NodeID() == 0 {
				t.Fatalf("program %d: node with id 0 in\n%s", i, d)
			}
			if !x.IsLeaf() {
				walk(x.True)
				walk(x.False)
			}
		}
		walk(d)
	}
	var prev syntax.Policy = syntax.Id()
	warmed := 0
	for i := 0; i < n; i++ {
		g := polygen.New(rng)
		p := g.Policy(1 + rng.Intn(3))
		order := deps.OrderOf(p)
		tr := xfdd.NewTranslator(order)
		if d, err := tr.TranslateMemo(prev); err == nil {
			interned(i, d)
			warmed++
		}
		prev = p
		cold, err := xfdd.TranslateWithOrder(p, order)
		if err != nil {
			continue // statically rejected either way
		}
		interned(i, cold)
		warm, err := tr.TranslateMemo(p)
		if err != nil {
			t.Fatalf("program %d: warm translate failed where cold succeeded: %v\n%s", i, err, p)
		}
		interned(i, warm)
		if !xfdd.StructuralEqual(warm, cold) {
			t.Fatalf("program %d: warm diagram differs from cold\n%s", i, p)
		}
		// Second visit on the same translator must be a pure memo hit.
		w := tr.Store().Watermark()
		again, err := tr.TranslateMemo(p)
		if err != nil || again != warm {
			t.Fatalf("program %d: revisit not a memo hit (err=%v)", i, err)
		}
		if got := tr.Store().Watermark(); got != w {
			t.Fatalf("program %d: revisit minted %d nodes", i, got-w)
		}
	}
	if warmed == 0 {
		t.Fatal("no translator was warmed; the test compares fresh walks only")
	}
}
