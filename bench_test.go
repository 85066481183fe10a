// Benchmarks regenerating the paper's evaluation (one per table/figure of
// §6.2) plus micro-benchmarks of the pipeline stages. Run:
//
//	go test -bench=. -benchmem
//
// Tables/figures use the CI scale preset (see internal/bench); the
// cmd/snapbench tool runs the published sizes with -scale full.
package snap_test

import (
	"fmt"
	"testing"

	"snap"
	"snap/internal/apps"
	"snap/internal/bench"
	"snap/internal/core"
	"snap/internal/parser"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/xfdd"

	"snap/internal/place"
)

// BenchmarkTable3Apps translates the entire Table 3 application catalogue
// (expressiveness: every program parses and compiles to an xFDD).
func BenchmarkTable3Apps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Topologies synthesizes the seven evaluation topologies
// with their published switch/edge/demand counts.
func BenchmarkTable5Topologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table5(bench.Full); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6Phases runs the full compiler pipeline (all phases, all
// three scenarios) for the DNS tunnel workload on each evaluation
// topology.
func BenchmarkTable6Phases(b *testing.B) {
	for _, spec := range topo.Table5() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			t, err := topo.Named(spec.Name, bench.CI.Capacity, bench.CI.PortScale)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunTopology(t, bench.CI); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9Scenarios times each recompilation scenario separately
// (cold start vs policy change vs topology/TM change) on one mid-size ISP
// topology — the Figure 9 comparison.
func BenchmarkFig9Scenarios(b *testing.B) {
	t, err := topo.Named("AS1755", bench.CI.Capacity, bench.CI.PortScale)
	if err != nil {
		b.Fatal(err)
	}
	ports := len(t.Ports)
	policy := snap.Then(apps.Assumption(ports), snap.Then(apps.DNSTunnelDetect(), apps.AssignEgress(ports)))
	// PolicyChange must measure a real edit: resubmitting the identical
	// policy hits the delta compiler's no-op short-circuit and compiles
	// nothing. The edit is the canonical stateless ACL fragment.
	acl := snap.If(snap.FieldEq(snap.SrcPort, snap.Int(7777)), snap.Drop(), snap.Id())
	edited := snap.Then(apps.Assumption(ports),
		snap.Then(apps.DNSTunnelDetect(), snap.Then(acl, apps.AssignEgress(ports))))
	tm := traffic.Gravity(t, 100, 1)
	cold, err := core.ColdStart(policy, t, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("ColdStart", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ColdStart(policy, t, tm, place.Options{Method: place.Heuristic}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PolicyChange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cold.PolicyChange(edited); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TopoTMChange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cold.TopoTMChange(tm); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPolicyChange compares the delta compiler against a full
// recompilation for the same single-fragment policy edit on one mid-size
// ISP topology. Each delta iteration re-primes from a fresh cold lineage
// (outside the timer) so it measures a first edit, not a memo replay.
func BenchmarkPolicyChange(b *testing.B) {
	t, err := topo.Named("AS1755", bench.CI.Capacity, bench.CI.PortScale)
	if err != nil {
		b.Fatal(err)
	}
	ports := len(t.Ports)
	policy := snap.Then(apps.Assumption(ports), snap.Then(apps.DNSTunnelDetect(), apps.AssignEgress(ports)))
	acl := snap.If(snap.FieldEq(snap.SrcPort, snap.Int(7777)), snap.Drop(), snap.Id())
	edited := snap.Then(apps.Assumption(ports),
		snap.Then(apps.DNSTunnelDetect(), snap.Then(acl, apps.AssignEgress(ports))))
	tm := traffic.Gravity(t, 100, 1)

	b.Run("Delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cold, err := core.ColdStart(policy, t, tm, place.Options{Method: place.Heuristic})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := cold.PolicyChange(edited); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cold, err := core.ColdStart(policy, t, tm, place.Options{Method: place.Heuristic})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := cold.ColdPolicy(edited); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig10TopologyScaling compiles the DNS tunnel workload on IGen
// networks of increasing size — the Figure 10 series.
func BenchmarkFig10TopologyScaling(b *testing.B) {
	for _, n := range []int{10, 30, 60} {
		n := n
		b.Run(fmt.Sprintf("switches-%d", n), func(b *testing.B) {
			t := topo.IGen(n, bench.CI.Capacity)
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunTopology(t, bench.CI); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11PolicyScaling compiles growing parallel compositions of
// Table 3 programs — the Figure 11 series.
func BenchmarkFig11PolicyScaling(b *testing.B) {
	t := topo.IGen(bench.CI.Fig11Switches, bench.CI.Capacity)
	ports := len(t.Ports)
	tm := traffic.Gravity(t, 100, 1)
	for _, k := range []int{4, 8, 12} {
		k := k
		b.Run(fmt.Sprintf("policies-%d", k), func(b *testing.B) {
			policy, err := bench.ComposedPolicy(k, ports)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := core.ColdStart(policy, t, tm, place.Options{Method: place.Heuristic}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkXFDDCompose isolates phase P2 on the Figure 11 workload: k
// Table 3 programs composed in parallel and sequenced with assign-egress.
// This is the hot path the hash-consed node store and the apply caches
// target — repeated subproblems across the parallel merge are solved once.
func BenchmarkXFDDCompose(b *testing.B) {
	for _, k := range []int{4, 8, 12} {
		k := k
		b.Run(fmt.Sprintf("policies-%d", k), func(b *testing.B) {
			policy, err := bench.ComposedPolicy(k, 30)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := xfdd.Translate(policy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelRefresh compares a full P4 model build against
// place.Model.Refresh for a shifted traffic matrix on the largest Table 5
// campus topology — the incremental path TopoTMChange takes.
func BenchmarkModelRefresh(b *testing.B) {
	t, err := topo.Named("Purdue", bench.CI.Capacity, bench.CI.PortScale)
	if err != nil {
		b.Fatal(err)
	}
	tm1 := traffic.Gravity(t, 100, 1)
	tm2 := traffic.Gravity(t, 100, 2)
	b.Run("ColdBuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			place.NewModel(t, tm2, place.Options{Method: place.Heuristic})
		}
	})
	b.Run("Refresh", func(b *testing.B) {
		model := place.NewModel(t, tm1, place.Options{Method: place.Heuristic})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			model.Refresh(tm2)
		}
	})
}

// BenchmarkXFDDTranslation isolates phase P2 for representative programs.
func BenchmarkXFDDTranslation(b *testing.B) {
	for _, name := range []string{"dns-tunnel-detect", "stateful-firewall", "tcp-state-machine"} {
		name := name
		b.Run(name, func(b *testing.B) {
			a, ok := apps.ByName(name)
			if !ok {
				b.Fatalf("missing app %s", name)
			}
			p := a.MustPolicy()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := xfdd.Translate(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParser isolates surface-syntax parsing.
func BenchmarkParser(b *testing.B) {
	opts := parser.Options{Consts: map[string]snap.Value{"threshold": snap.Int(3)}}
	for i := 0; i < b.N; i++ {
		if _, err := parser.ParseWith(apps.DNSTunnelDetectSrc, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalSemantics measures the specification interpreter on one
// stateful packet.
func BenchmarkEvalSemantics(b *testing.B) {
	policy := snap.Then(apps.DNSTunnelDetect(), apps.AssignEgress(6))
	st := snap.NewStore()
	p := snap.NewPacket(map[snap.Field]snap.Value{
		snap.Inport:   snap.Int(2),
		snap.SrcIP:    snap.IPv4(10, 0, 2, 53),
		snap.DstIP:    snap.IPv4(10, 0, 6, 6),
		snap.SrcPort:  snap.Int(53),
		snap.DstPort:  snap.Int(9999),
		snap.DNSRData: snap.IPv4(10, 0, 3, 3),
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := snap.Eval(policy, st, p)
		if err != nil {
			b.Fatal(err)
		}
		st = res.Store
	}
}

// BenchmarkPlacementST isolates the joint placement-and-routing solve on a
// mid-size topology.
func BenchmarkPlacementST(b *testing.B) {
	t := topo.IGen(40, 1000)
	ports := len(t.Ports)
	policy := snap.Then(apps.Assumption(ports), snap.Then(apps.DNSTunnelDetect(), apps.AssignEgress(ports)))
	d, order, err := xfdd.Translate(policy)
	if err != nil {
		b.Fatal(err)
	}
	mapping := psmapBuild(d, t)
	model := place.NewModel(t, traffic.Gravity(t, 100, 1), place.Options{Method: place.Heuristic})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.SolveST(mapping, order); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacementTE isolates the routing-only re-optimization.
func BenchmarkPlacementTE(b *testing.B) {
	t := topo.IGen(40, 1000)
	ports := len(t.Ports)
	policy := snap.Then(apps.Assumption(ports), snap.Then(apps.DNSTunnelDetect(), apps.AssignEgress(ports)))
	d, order, err := xfdd.Translate(policy)
	if err != nil {
		b.Fatal(err)
	}
	mapping := psmapBuild(d, t)
	model := place.NewModel(t, traffic.Gravity(t, 100, 1), place.Options{Method: place.Heuristic})
	st, err := model.SolveST(mapping, order)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.SolveTE(mapping, order, st.Placement); err != nil {
			b.Fatal(err)
		}
	}
}
