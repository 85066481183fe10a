package core

import (
	"fmt"
	"runtime"
	"testing"

	"snap/internal/apps"
	"snap/internal/pkt"
	"snap/internal/place"
	"snap/internal/rules"
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
// and its diagram must still match a cold translation. The caches keyed on
// the translators' diagram pointers follow the same discipline: the rule
// generator and the mapping recall hold the diagram last compiled and the
// one before it.
func TestTranslatorsStayBounded(t *testing.T) {
	net := topo.Campus(1000)
	tm := traffic.Gravity(net, 100, 1)
	extras := []syntax.Policy{
		syntax.Id(),
		syntax.IncrState("seen-a", syntax.Vec(syntax.F(pkt.SrcIP))),
		syntax.IncrState("seen-b", syntax.Vec(syntax.F(pkt.DstIP))),
	}
	acl := func(i int) syntax.Policy {
		return syntax.Cond(syntax.FieldEq(pkt.SrcPort, values.Int(int64(7000+i))), syntax.Nothing(), syntax.Id())
	}
	policy := func(i int) syntax.Policy {
		return syntax.Then(apps.Assumption(6), apps.DNSTunnelDetect(), extras[i%len(extras)], acl(i), apps.AssignEgress(6))
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
		if n := c.delta.gen.CachedRoots(); n > 2 {
			t.Fatalf("edit %d: generator holds programs or numberings of %d diagrams, want at most 2", i, n)
		}
		if r := c.delta.mappings; r[0].mapping != c.Mapping || r[1].root == c.Diagram {
			t.Fatalf("edit %d: the mapping recall does not hold this edit's mapping once, most recent first", i)
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

	// The same bound in bytes, on the network it was measured on: Stanford at
	// half its ports, fifty single-fragment edits. Unbounded, the generator
	// and the mapping builder that preceded the recall held 28 MB of a
	// lineage that had grown 21 to 82 MB.
	stanford, err := topo.Named("Stanford", 1000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ports := len(stanford.Ports)
	edit := func(i int) syntax.Policy {
		return syntax.Then(apps.Assumption(ports), apps.DNSTunnelDetect(), acl(i), apps.AssignEgress(ports))
	}
	c, err = ColdStart(edit(0), stanford, traffic.Gravity(stanford, 100, 1), place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if c, err = c.PolicyChange(edit(i)); err != nil {
			t.Fatalf("stanford edit %d: %v", i, err)
		}
	}
	held := liveHeap()
	c.delta.gen, c.delta.mappings = rules.NewGenerator(), [2]recalledMapping{}
	if freed := held - liveHeap(); freed > 3<<20 {
		t.Fatalf("after 50 edits the generator and mapping recall held %.1f MB, want under 3", float64(freed)/(1<<20))
	}
	runtime.KeepAlive(c)
}

// liveHeap is the heap in use after a collection, as a signed byte count.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestReRouteReusesPrograms pins what every scenario going through the
// lineage caches buys: a re-route changes no program, so TopoTMChange hands
// back the parent's program and linked-image pointers, as does an edit
// followed by its revert; and TopoFailover asks the lineage's mapping
// builder, so coming back to a port set recalls its mapping instead of
// walking the diagram.
func TestReRouteReusesPrograms(t *testing.T) {
	net := topo.Campus(1000)
	policy := syntax.Then(apps.Assumption(6), apps.DNSTunnelDetect(), apps.AssignEgress(6))
	cold, err := ColdStart(policy, net, traffic.Gravity(net, 100, 1), place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := cold.TopoTMChange(traffic.Gravity(net, 100, 2))
	if err != nil {
		t.Fatal(err)
	}
	samePrograms := func(step string, got *Compilation) {
		t.Helper()
		for n, sc := range got.Config.Switches {
			if sc.Prog != cold.Config.Switches[n].Prog {
				t.Errorf("switch %d: %s compiled a new program", n, step)
			}
			if sc.Linked != cold.Config.Switches[n].Linked {
				t.Errorf("switch %d: %s linked a new image", n, step)
			}
		}
	}
	samePrograms("re-route", shifted)
	acl := syntax.Cond(syntax.FieldEq(pkt.SrcPort, values.Int(7777)), syntax.Nothing(), syntax.Id())
	edited, err := shifted.PolicyChange(syntax.Then(apps.Assumption(6), apps.DNSTunnelDetect(), acl, apps.AssignEgress(6)))
	if err != nil {
		t.Fatal(err)
	}
	reverted, err := edited.PolicyChange(policy)
	if err != nil {
		t.Fatal(err)
	}
	samePrograms("an edit and its revert", reverted)

	edge, _ := net.PortByID(5) // an edge switch takes its port with it
	degraded, err := net.Degrade([]topo.NodeID{edge.Switch}, nil)
	if err != nil {
		t.Fatal(err)
	}
	failed, err := shifted.TopoFailover(degraded, shifted.Demands)
	if err != nil {
		t.Fatal(err)
	}
	if failed.Mapping == cold.Mapping {
		t.Fatal("failover kept the mapping of the full port set")
	}
	restored, err := failed.TopoFailover(net, cold.Demands)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Mapping != cold.Mapping {
		t.Error("TopoFailover back onto the full port set did not recall the lineage builder's mapping")
	}
}
