// Event scheduling for the chaos soak. The schedule is built once, up
// front, from the seed and the chunk count: every scheduled event fires at
// a chunk boundary (the quiescent point InjectReplay's return guarantees),
// which is what keeps a multi-worker soak byte-reproducible — the only
// nondeterminism the engine has is scheduling *within* a chunk, and the
// invariants audited there (delivery counts, final state) are
// schedule-independent by the engine's own guarantees.
package chaos

import (
	"fmt"
	"math/rand"

	"snap/internal/core"
	"snap/internal/fault"
	"snap/internal/topo"
	"snap/internal/traffic"
)

// event is one scheduled action at a chunk boundary.
type event struct {
	// kind: "policy", "shift", "fail", "failover", "restore", "corrupt",
	// and with Options.Faults the containment events "cfail" (transient
	// recompile failure), "afail" (mid-swap apply failure) and "wpanic"
	// (injected worker panic).
	kind string
	scen fault.Scenario
}

// schedule maps chunk-boundary index → events, executed in slice order.
type schedule map[int][]event

// pickScenarios selects one switch-failure scenario (preferring one that
// orphans a state owner, so failovers exercise promotion) and one
// link-failure scenario from the enumerated fault space, filtered to
// scenarios the controller can recover from: the survivors stay connected
// and some demand pairs survive.
func pickScenarios(t *topo.Topology, comp *core.Compilation, demands traffic.Matrix, rng *rand.Rand) (swScen, lnScen *fault.Scenario) {
	var swAll, swOrphan, lnAll []fault.Scenario
	for _, s := range fault.Enumerate(t, fault.Options{Correlated: 4, Seed: rng.Int63()}) {
		im, err := fault.Assess(t, comp.Config.Placement, comp.Config.Replicas, s)
		if err != nil || im.Partitioned {
			continue
		}
		if len(demands.Restrict(im.Degraded)) == 0 {
			continue
		}
		if len(s.Switches) > 0 {
			swAll = append(swAll, s)
			if len(im.Orphans) > 0 {
				swOrphan = append(swOrphan, s)
			}
		} else if len(s.Links) > 0 {
			lnAll = append(lnAll, s)
		}
	}
	if len(swOrphan) > 0 {
		swAll = swOrphan
	}
	if len(swAll) > 0 {
		s := swAll[rng.Intn(len(swAll))]
		swScen = &s
	}
	if len(lnAll) > 0 {
		s := lnAll[rng.Intn(len(lnAll))]
		lnScen = &s
	}
	return swScen, lnScen
}

// buildSchedule lays the event script over n chunk boundaries (events at
// boundary i fire after chunk i's traffic; boundary n-1 is reserved for
// the final audit). The script always includes a policy edit, a workload
// shift and one switch-failure episode (fail → one degraded chunk →
// failover → restore); with ≥20 chunks a link-failure episode follows.
// Episodes never overlap, so every failure window is exactly one chunk.
// With faults, three containment events interleave: a transient recompile
// failure, a mid-swap apply failure and a worker panic — each contained
// and asserted at its own boundary.
func buildSchedule(n int, swScen, lnScen *fault.Scenario, corruptAt int, hasCorrupt, faults bool) (schedule, error) {
	if n < 10 {
		return nil, fmt.Errorf("chaos: need at least 10 chunks for the event script, have %d", n)
	}
	sch := schedule{}
	add := func(ci int, ev event) int {
		if ci < 1 {
			ci = 1
		}
		if ci > n-2 {
			ci = n - 2
		}
		sch[ci] = append(sch[ci], ev)
		return ci
	}
	add(n*12/100, event{kind: "policy"})
	add(n*25/100, event{kind: "shift"})
	if swScen != nil {
		f := add(n*45/100, event{kind: "fail", scen: *swScen})
		fo := add(f+1, event{kind: "failover", scen: *swScen})
		add(fo+2, event{kind: "restore", scen: *swScen})
	}
	add(n*65/100, event{kind: "policy"})
	if lnScen != nil && n >= 20 {
		f := add(n*80/100, event{kind: "fail", scen: *lnScen})
		fo := add(f+1, event{kind: "failover", scen: *lnScen})
		add(fo+2, event{kind: "restore", scen: *lnScen})
	}
	if faults {
		add(n*18/100, event{kind: "cfail"})
		add(n*32/100, event{kind: "afail"})
		add(n*58/100, event{kind: "wpanic"})
	}
	if hasCorrupt {
		add(corruptAt, event{kind: "corrupt"})
	}
	return sch, nil
}
