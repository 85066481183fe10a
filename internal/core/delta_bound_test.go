package core

import (
	"fmt"
	"testing"

	"snap/internal/apps"
	"snap/internal/pkt"
	"snap/internal/place"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
	"snap/internal/xfdd"
)

// TestTranslatorsStayBounded: a lineage whose edits keep changing the state
// variable set holds the translator in use and the one before it, never one
// per signature it has seen. The edits rotate three variable sets, so from
// the fourth on every translator is one that was displaced and re-created,
// and its diagram must still match a cold translation.
func TestTranslatorsStayBounded(t *testing.T) {
	net := topo.Campus(1000)
	tm := traffic.Gravity(net, 100, 1)
	extras := []syntax.Policy{
		syntax.Id(),
		syntax.IncrState("seen-a", syntax.Vec(syntax.F(pkt.SrcIP))),
		syntax.IncrState("seen-b", syntax.Vec(syntax.F(pkt.DstIP))),
	}
	policy := func(i int) syntax.Policy {
		acl := syntax.Cond(syntax.FieldEq(pkt.SrcPort, values.Int(int64(7000+i))), syntax.Nothing(), syntax.Id())
		return syntax.Then(apps.Assumption(6), apps.DNSTunnelDetect(), extras[i%len(extras)], acl, apps.AssignEgress(6))
	}

	c, err := ColdStart(policy(0), net, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	signatures := map[string]bool{}
	for i := 1; i <= 50; i++ {
		p := policy(i)
		if c, err = c.PolicyChange(p); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		signatures[fmt.Sprint(c.Order.Vars)] = true
		if n := len(c.delta.translators); n > 2 {
			t.Fatalf("edit %d: lineage holds %d translators, want at most 2", i, n)
		}
		cold, err := xfdd.TranslateWithOrder(p, c.Order)
		if err != nil {
			t.Fatalf("edit %d: cold translation: %v", i, err)
		}
		if !xfdd.StructuralEqual(c.Diagram, cold) {
			t.Fatalf("edit %d: diagram differs from a cold translation", i)
		}
	}
	if len(signatures) < 3 {
		t.Fatalf("edits produced %d test-order signatures, want 3: the bound was never exercised", len(signatures))
	}
}
