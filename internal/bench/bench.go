// Package bench regenerates the paper's evaluation artifacts (§6.2):
// Table 4 (phases per scenario), Table 5 (topology statistics), Table 6
// (per-phase runtimes), Figure 9 (scenario times across enterprise/ISP
// topologies), Figure 10 (scaling with IGen topology size) and Figure 11
// (scaling with the number of composed policies). Each experiment returns
// structured rows; Format* helpers print them in the paper's layout.
//
// Absolute numbers differ from the paper (Go on this machine vs PyPy +
// Gurobi on a 32-core Xeon); EXPERIMENTS.md compares shapes. Scale presets
// control the demand counts: CI runs in seconds, Full reproduces the
// published sizes.
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
	"snap/internal/xfdd"
)

// Scale presets the experiment sizes.
type Scale struct {
	Name string
	// PortScale scales the Table 5 port counts (1.0 = published sizes).
	PortScale float64
	// IGenSizes are the Figure 10 topology sizes.
	IGenSizes []int
	// MaxPolicies bounds the Figure 11 composition sweep.
	MaxPolicies int
	// Fig11Switches is the Figure 11 network size (50 in the paper).
	Fig11Switches int
	// Traffic is the total gravity-model volume.
	Traffic float64
	// Capacity is the uniform link capacity.
	Capacity float64
}

// CI is a scaled-down preset that completes in seconds.
var CI = Scale{
	Name:          "ci",
	PortScale:     0.12,
	IGenSizes:     []int{10, 20, 30, 40, 50, 60},
	MaxPolicies:   8,
	Fig11Switches: 30,
	Traffic:       100,
	Capacity:      1000,
}

// Full reproduces the published experiment sizes (slow).
var Full = Scale{
	Name:          "full",
	PortScale:     1.0,
	IGenSizes:     []int{10, 20, 40, 60, 80, 100, 120, 140, 160, 180},
	MaxPolicies:   20,
	Fig11Switches: 50,
	Traffic:       100,
	Capacity:      1000,
}

// dnsTunnelPolicy is the evaluation's workload: assumption;
// (DNS-tunnel-detect; assign-egress), sized to the topology's port count
// ("by increasing the topology size, the policy size also increases in the
// assign-egress and assumption parts", §6.2).
func dnsTunnelPolicy(ports int) syntax.Policy {
	if ports > 200 {
		ports = 200 // subnets 10.0.i.0/24 cap the third octet
	}
	return syntax.Then(
		apps.Assumption(ports),
		syntax.Then(apps.DNSTunnelDetect(), apps.AssignEgress(ports)),
	)
}

// --- Table 5: topology statistics ---

// Table5Row mirrors one row of Table 5.
type Table5Row struct {
	Name     string
	Switches int
	Edges    int
	Demands  int
}

// Table5 reports the synthesized topologies' statistics at the given
// scale (at Full they equal the published counts).
func Table5(s Scale) ([]Table5Row, error) {
	var rows []Table5Row
	for _, spec := range topo.Table5() {
		t, err := topo.Named(spec.Name, s.Capacity, s.PortScale)
		if err != nil {
			return nil, err
		}
		n := len(t.Ports)
		rows = append(rows, Table5Row{
			Name:     spec.Name,
			Switches: t.Switches,
			Edges:    len(t.Links),
			Demands:  n * n,
		})
	}
	return rows, nil
}

// FormatTable5 renders rows in the paper's layout.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %8s %10s\n", "Topology", "# Switches", "# Edges", "# Demands")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10d %8d %10d\n", r.Name, r.Switches, r.Edges, r.Demands)
	}
	return b.String()
}

// --- Table 6 / Figure 9: per-phase runtimes and scenarios ---

// Table6Row mirrors one row of Table 6: phase runtimes for the DNS tunnel
// workload on one topology, plus the Figure 9 scenario totals.
type Table6Row struct {
	Name    string
	P123    time.Duration // program analysis (P1+P2+P3)
	P5ST    time.Duration // joint placement and routing
	P5TE    time.Duration // routing with fixed placement
	P6      time.Duration // rule generation
	P4      time.Duration // optimization model creation
	Cold    time.Duration // Figure 9: cold start
	Policy  time.Duration // Figure 9: policy change
	TopoTM  time.Duration // Figure 9: topology/TM change
	XFDD    int           // xFDD node count (diagnostic)
	Demands int
}

// scenarios runs the three recompilation scenarios of Table 4 and Figure 9
// on one lineage: a cold start of policy, a PolicyChange to edited and a
// TopoTMChange to the shifted matrix. edited must be a genuine edit: a
// structurally identical policy hits the no-op short-circuit and measures
// nothing.
func scenarios(policy, edited syntax.Policy, t *topo.Topology, tm, shifted traffic.Matrix) (cold, policyRun, teRun *core.Compilation, err error) {
	if cold, err = core.ColdStart(policy, t, tm, place.Options{Method: place.Heuristic}); err != nil {
		return nil, nil, nil, err
	}
	if policyRun, err = cold.PolicyChange(edited); err != nil {
		return nil, nil, nil, err
	}
	teRun, err = cold.TopoTMChange(shifted)
	return cold, policyRun, teRun, err
}

// RunTopology compiles the DNS tunnel workload on one topology and times
// every phase and scenario.
func RunTopology(t *topo.Topology, s Scale) (Table6Row, error) {
	ports := len(t.Ports)
	policy := dnsTunnelPolicy(ports)
	tm := traffic.Gravity(t, s.Traffic, 1)

	cold, policyRun, teRun, err := scenarios(policy, dnsTunnelPolicyEdited(ports), t, tm, traffic.Gravity(t, s.Traffic, 2))
	if err != nil {
		return Table6Row{}, err
	}

	ct, pt, tt := cold.Times, policyRun.Times, teRun.Times
	return Table6Row{
		Name:    t.Name,
		P123:    ct.P1Deps + ct.P2XFDD + ct.P3Map,
		P5ST:    ct.P5Solve,
		P5TE:    tt.P5Solve,
		P6:      ct.P6Rules,
		P4:      ct.P4Model,
		Cold:    ct.Total(),
		Policy:  pt.Total(),
		TopoTM:  tt.Total(),
		XFDD:    cold.Diagram.Size(),
		Demands: ports * ports,
	}, nil
}

// Table6 runs the DNS tunnel workload over all seven evaluation
// topologies.
func Table6(s Scale) ([]Table6Row, error) {
	var rows []Table6Row
	for _, spec := range topo.Table5() {
		t, err := topo.Named(spec.Name, s.Capacity, s.PortScale)
		if err != nil {
			return nil, err
		}
		row, err := RunTopology(t, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable6 renders the per-phase table.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %12s %12s\n",
		"Topology", "P1-P2-P3", "P5(ST)", "P5(TE)", "P6", "P4")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12s %12s %12s %12s %12s\n",
			r.Name, fd(r.P123), fd(r.P5ST), fd(r.P5TE), fd(r.P6), fd(r.P4))
	}
	return b.String()
}

// FormatFig9 renders the scenario comparison of Figure 9.
func FormatFig9(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %14s %14s %14s\n", "Topology", "Topo/TM", "PolicyChange", "ColdStart")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14s %14s %14s\n", r.Name, fd(r.TopoTM), fd(r.Policy), fd(r.Cold))
	}
	return b.String()
}

// --- Figure 10: scaling with topology size ---

// Fig10Row is one point of Figure 10.
type Fig10Row struct {
	Switches int
	Ports    int
	Cold     time.Duration
	Policy   time.Duration
	TopoTM   time.Duration
}

// Fig10 compiles the DNS tunnel workload on IGen networks of increasing
// size.
func Fig10(s Scale) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, n := range s.IGenSizes {
		t := topo.IGen(n, s.Capacity)
		row, err := RunTopology(t, s)
		if err != nil {
			return nil, fmt.Errorf("igen-%d: %w", n, err)
		}
		rows = append(rows, Fig10Row{
			Switches: n,
			Ports:    len(t.Ports),
			Cold:     row.Cold,
			Policy:   row.Policy,
			TopoTM:   row.TopoTM,
		})
	}
	return rows, nil
}

// FormatFig10 renders the scaling series.
func FormatFig10(rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%9s %6s %14s %14s %14s\n", "#Switches", "Ports", "ColdStart", "PolicyChange", "Topo/TM")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9d %6d %14s %14s %14s\n", r.Switches, r.Ports, fd(r.Cold), fd(r.Policy), fd(r.TopoTM))
	}
	return b.String()
}

// --- Figure 11: scaling with number of composed policies ---

// Fig11Row is one point of Figure 11.
type Fig11Row struct {
	Policies  int
	StateVars int
	XFDD      int
	Cold      time.Duration
	Policy    time.Duration
	TopoTM    time.Duration
}

// ComposedPolicy builds the Figure 11 workload: k Table 3 programs in
// parallel, each guarded to affect traffic destined to a separate egress
// port, sequenced with assign-egress.
func ComposedPolicy(k, ports int) (syntax.Policy, error) {
	return composedPolicy(k, ports, false)
}

// composedPolicy is ComposedPolicy, with the ACL fragment (policy.go)
// prepended to the middle member program when edited is set.
func composedPolicy(k, ports int, edited bool) (syntax.Policy, error) {
	cat := apps.All()
	if k > len(cat) {
		k = len(cat)
	}
	var parts []syntax.Policy
	for i := 0; i < k; i++ {
		p, err := cat[i].Policy()
		if err != nil {
			return nil, err
		}
		if edited && i == k/2 {
			p = syntax.Then(aclFragment(), p)
		}
		guard := syntax.FieldEq(pkt.DstIP, apps.Subnet(1+i%ports))
		parts = append(parts, syntax.Then(guard, p))
	}
	return syntax.Then(syntax.Par(parts...), apps.AssignEgress(ports)), nil
}

// Fig11 sweeps the number of composed policies on an IGen network.
func Fig11(s Scale) ([]Fig11Row, error) {
	t := topo.IGen(s.Fig11Switches, s.Capacity)
	ports := len(t.Ports)
	tm := traffic.Gravity(t, s.Traffic, 1)

	var rows []Fig11Row
	for k := 4; k <= s.MaxPolicies; k += 2 {
		policy, err := ComposedPolicy(k, ports)
		if err != nil {
			return nil, err
		}
		edited, err := ComposedPolicyEdited(k, ports)
		if err != nil {
			return nil, err
		}
		cold, policyRun, teRun, err := scenarios(policy, edited, t, tm, traffic.Gravity(t, s.Traffic, 2))
		if err != nil {
			return nil, fmt.Errorf("fig11 k=%d: %w", k, err)
		}
		rows = append(rows, Fig11Row{
			Policies:  k,
			StateVars: len(cold.Order.Pos),
			XFDD:      cold.Diagram.Size(),
			Cold:      cold.Times.Total(),
			Policy:    policyRun.Times.Total(),
			TopoTM:    teRun.Times.Total(),
		})
	}
	return rows, nil
}

// FormatFig11 renders the composition sweep.
func FormatFig11(rows []Fig11Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%9s %6s %6s %14s %14s %14s\n", "#Policies", "#Vars", "xFDD", "ColdStart", "PolicyChange", "Topo/TM")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9d %6d %6d %14s %14s %14s\n",
			r.Policies, r.StateVars, r.XFDD, fd(r.Cold), fd(r.Policy), fd(r.TopoTM))
	}
	return b.String()
}

// --- Table 4: phases per scenario ---

// Table4Row is one phase of the scenario/phase checkmark matrix: whether
// each recompilation scenario executed it.
type Table4Row struct {
	Phase     string
	TopoTM    bool
	PolicyChg bool
	ColdStart bool
}

// Table4Rows derives which phases each scenario executed from the actual
// timings of a small run — the structured counterpart of the paper's
// checkmark matrix.
func Table4Rows(s Scale) ([]Table4Row, error) {
	t := topo.IGen(12, s.Capacity)
	policy := dnsTunnelPolicy(len(t.Ports))
	tm := traffic.Gravity(t, s.Traffic, 1)
	cold, policyRun, teRun, err := scenarios(policy, dnsTunnelPolicyEdited(len(t.Ports)), t, tm, tm)
	if err != nil {
		return nil, err
	}
	phases := []struct {
		name string
		get  func(core.PhaseTimes) time.Duration
	}{
		{"P1 state dependency", func(t core.PhaseTimes) time.Duration { return t.P1Deps }},
		{"P2 xFDD generation", func(t core.PhaseTimes) time.Duration { return t.P2XFDD }},
		{"P3 packet-state map", func(t core.PhaseTimes) time.Duration { return t.P3Map }},
		{"P4 model creation", func(t core.PhaseTimes) time.Duration { return t.P4Model }},
		{"P5 solving (ST or TE)", func(t core.PhaseTimes) time.Duration { return t.P5Solve }},
		{"P6 rule generation", func(t core.PhaseTimes) time.Duration { return t.P6Rules }},
	}
	rows := make([]Table4Row, 0, len(phases))
	for _, p := range phases {
		rows = append(rows, Table4Row{
			Phase:     p.name,
			TopoTM:    p.get(teRun.Times) > 0,
			PolicyChg: p.get(policyRun.Times) > 0,
			ColdStart: p.get(cold.Times) > 0,
		})
	}
	return rows, nil
}

// FormatTable4 renders the checkmark matrix in the paper's layout.
func FormatTable4(rows []Table4Row) string {
	mark := map[bool]string{true: "x", false: "-"}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-12s %-12s %-10s\n", "Phase", "Topo/TM", "PolicyChg", "ColdStart")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %-12s %-12s %-10s\n",
			r.Phase, mark[r.TopoTM], mark[r.PolicyChg], mark[r.ColdStart])
	}
	return b.String()
}

// Table4 reports the scenario/phase matrix as rendered text.
func Table4(s Scale) (string, error) {
	rows, err := Table4Rows(s)
	if err != nil {
		return "", err
	}
	return FormatTable4(rows), nil
}

// --- Table 3: expressiveness ---

// Table3Row is one catalogued application with its compile diagnostics.
type Table3Row struct {
	Name      string
	Group     string
	StateVars int
	XFDD      int
}

// Table3 parses and translates every catalogued application.
func Table3() ([]Table3Row, error) {
	var rows []Table3Row
	for _, a := range apps.All() {
		p, err := a.Policy()
		if err != nil {
			return nil, err
		}
		d, order, err := xfdd.Translate(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		rows = append(rows, Table3Row{Name: a.Name, Group: a.Group, StateVars: len(order.Pos), XFDD: d.Size()})
	}
	return rows, nil
}

// FormatTable3 renders the application catalogue.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-9s %6s %6s\n", "Application", "Source", "#Vars", "xFDD")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-9s %6d %6d\n", r.Name, r.Group, r.StateVars, r.XFDD)
	}
	return b.String()
}

func fd(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
