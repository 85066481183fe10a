// The delta-compilation experiment: PolicyChange (incremental, cache-warm
// lineage) against ColdPolicy (full recompilation of the same edit) on the
// Table 5 topologies. The edit is the benchmark suite's canonical
// single-fragment change — a stateless ACL stage inserted ahead of
// assign-egress — so the dirty-variable set is empty and every layer's
// reuse machinery (fragment memo, mapping builder, placement pinning,
// program cache) is on its best-case path; Table 6 and the figures use the
// same edit, so their PolicyChange columns measure the identical scenario.
package bench

import (
	"fmt"
	"strings"
	"time"

	"snap/internal/apps"
	"snap/internal/core"
	"snap/internal/pkt"
	"snap/internal/place"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// aclFragment is the single-fragment policy edit every PolicyChange
// benchmark applies: a stateless drop of one source port. It mentions no
// state variable, so the delta compiler's dirty set is empty.
func aclFragment() syntax.Policy { return aclOn(7777) }

func aclOn(srcport int64) syntax.Policy {
	return syntax.Cond(syntax.FieldEq(pkt.SrcPort, values.Int(srcport)), syntax.Nothing(), syntax.Id())
}

// dnsTunnelPolicyEdited is dnsTunnelPolicy with the ACL fragment inserted
// before assign-egress — the edited policy of the PolicyChange scenario.
func dnsTunnelPolicyEdited(ports int) syntax.Policy {
	return dnsTunnelPolicyWith(ports, aclFragment())
}

// dnsTunnelPolicyWith is dnsTunnelPolicy with one stage inserted before
// assign-egress.
func dnsTunnelPolicyWith(ports int, stage syntax.Policy) syntax.Policy {
	if ports > 200 {
		ports = 200
	}
	return syntax.Then(
		apps.Assumption(ports),
		syntax.Then(apps.DNSTunnelDetect(),
			syntax.Then(stage, apps.AssignEgress(ports))),
	)
}

// ComposedPolicyEdited is ComposedPolicy with the ACL fragment prepended
// to one member program (the middle slot) — the Figure 11 workload's
// single-fragment edit.
func ComposedPolicyEdited(k, ports int) (syntax.Policy, error) {
	return composedPolicy(k, ports, true)
}

// PolicyDeltaRow compares the delta and cold compilations of the same
// policy edit on one topology.
type PolicyDeltaRow struct {
	Name string
	// Delta is the incremental PolicyChange total; Cold the ColdPolicy
	// total for the identical edit on the identical lineage.
	Delta time.Duration
	Cold  time.Duration
	// Reuse counters from the delta run's DeltaReport.
	DirtyVars        int
	ReusedNodes      int
	FreshNodes       int
	PinnedGroups     int
	MovedGroups      int
	ReusedPrograms   int
	CompiledPrograms int
	DirtySwitches    int
	Switches         int
}

// policyDeltaTrials de-noises the timing comparison: each path's reported
// time is the best of this many runs.
const policyDeltaTrials = 3

// PolicyDeltaOn runs the delta-vs-cold comparison on one topology.
func PolicyDeltaOn(t *topo.Topology, s Scale) (PolicyDeltaRow, error) {
	ports := len(t.Ports)
	policy := dnsTunnelPolicy(ports)
	edited := dnsTunnelPolicyEdited(ports)
	tm := traffic.Gravity(t, s.Traffic, 1)

	cold, err := core.ColdStart(policy, t, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		return PolicyDeltaRow{}, err
	}
	row := PolicyDeltaRow{Name: t.Name, Switches: t.Switches}
	for i := 0; i < policyDeltaTrials; i++ {
		// Each trial recompiles from an identical lineage: re-prime with a
		// fresh cold start so trial i's memo state matches trial 0's.
		base := cold
		if i > 0 {
			if base, err = core.ColdStart(policy, t, tm, place.Options{Method: place.Heuristic}); err != nil {
				return PolicyDeltaRow{}, err
			}
		}
		deltaRun, err := base.PolicyChange(edited)
		if err != nil {
			return PolicyDeltaRow{}, err
		}
		coldRun, err := base.ColdPolicy(edited)
		if err != nil {
			return PolicyDeltaRow{}, err
		}
		if d := deltaRun.Times.Total(); i == 0 || d < row.Delta {
			row.Delta = d
		}
		if c := coldRun.Times.Total(); i == 0 || c < row.Cold {
			row.Cold = c
		}
		if i == 0 {
			rep := deltaRun.Delta
			row.DirtyVars = len(rep.DirtyVars)
			row.ReusedNodes = rep.ReusedNodes
			row.FreshNodes = rep.FreshNodes
			row.PinnedGroups = rep.PinnedGroups
			row.MovedGroups = rep.MovedGroups
			row.ReusedPrograms = rep.ReusedPrograms
			row.CompiledPrograms = rep.CompiledPrograms
			row.DirtySwitches = len(rep.DirtySwitches)
		}
	}
	return row, nil
}

// PolicyDelta runs the comparison over all seven Table 5 topologies.
func PolicyDelta(s Scale) ([]PolicyDeltaRow, error) {
	var rows []PolicyDeltaRow
	for _, spec := range topo.Table5() {
		t, err := topo.Named(spec.Name, s.Capacity, s.PortScale)
		if err != nil {
			return nil, err
		}
		row, err := PolicyDeltaOn(t, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatPolicyDelta renders the delta-vs-cold table.
func FormatPolicyDelta(rows []PolicyDeltaRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %8s %11s %9s %9s %8s\n",
		"Topology", "PolicyChg", "Cold", "Speedup", "Nodes(r/t)", "Pin/Move", "Prog(r/t)", "Dirty")
	for _, r := range rows {
		speed := "-"
		if r.Delta > 0 {
			speed = fmt.Sprintf("%.1fx", float64(r.Cold)/float64(r.Delta))
		}
		fmt.Fprintf(&b, "%-10s %12s %12s %8s %11s %9s %9s %8s\n",
			r.Name, fd(r.Delta), fd(r.Cold), speed,
			fmt.Sprintf("%d/%d", r.ReusedNodes, r.ReusedNodes+r.FreshNodes),
			fmt.Sprintf("%d/%d", r.PinnedGroups, r.MovedGroups),
			fmt.Sprintf("%d/%d", r.ReusedPrograms, r.ReusedPrograms+r.CompiledPrograms),
			fmt.Sprintf("%d/%d", r.DirtySwitches, r.Switches))
	}
	return b.String()
}
