package bench

import (
	"strings"
	"testing"
	"time"

	"snap/internal/topo"
)

// TestTable5CountsAtFullScale checks the synthesized topologies reproduce
// the published Table 5 statistics exactly at full scale.
func TestTable5CountsAtFullScale(t *testing.T) {
	rows, err := Table5(Full)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][3]int{
		"Stanford": {26, 92, 20736},
		"Berkeley": {25, 96, 34225},
		"Purdue":   {98, 232, 24336},
		"AS1755":   {87, 322, 3600},
		"AS1221":   {104, 302, 5184},
		"AS6461":   {138, 744, 9216},
		"AS3257":   {161, 656, 12544},
	}
	for _, r := range rows {
		w, ok := want[r.Name]
		if !ok {
			t.Fatalf("unexpected topology %s", r.Name)
		}
		if r.Switches != w[0] || r.Edges != w[1] || r.Demands != w[2] {
			t.Errorf("%s: got (%d, %d, %d), want %v", r.Name, r.Switches, r.Edges, r.Demands, w)
		}
	}
}

// TestTopologiesConnected checks every generated topology is connected
// (compilation requires reachability).
func TestTopologiesConnected(t *testing.T) {
	for _, spec := range topo.Table5() {
		tp, err := topo.Named(spec.Name, 1000, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if !tp.Connected() {
			t.Errorf("%s not connected", spec.Name)
		}
	}
	for _, n := range []int{10, 50, 120, 180} {
		if !topo.IGen(n, 1000).Connected() {
			t.Errorf("igen-%d not connected", n)
		}
	}
}

// TestTable3AllAppsCompile translates every catalogued application.
func TestTable3AllAppsCompile(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 20 {
		t.Fatalf("expected at least 20 applications, got %d", len(rows))
	}
	for _, r := range rows {
		if r.XFDD < 1 {
			t.Errorf("%s: empty xFDD", r.Name)
		}
	}
}

// TestTable6CIScale runs the full Table 6 workload at CI scale and sanity
// checks the shape relations the paper reports: TE is faster than ST, and
// analysis phases are much cheaper than solving on the larger topologies.
func TestTable6CIScale(t *testing.T) {
	if testing.Short() {
		t.Skip("table 6 sweep")
	}
	// Scenario totals are 5–15 ms wall-clock samples here, and one sample a
	// side loses to the scheduler about one run in four when packages test
	// side by side: compare the best of gateTrials sweeps per side.
	var names []string
	coldBest, topoTMBest := map[string]time.Duration{}, map[string]time.Duration{}
	for trial := 0; trial < gateTrials; trial++ {
		rows, err := Table6(CI)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 7 {
			t.Fatalf("want 7 topologies, got %d", len(rows))
		}
		for _, r := range rows {
			// At CI scale solve times are a few ms and the TE figure
			// includes the model refresh for the shifted matrix, so only a
			// coarse bound is meaningful here; the ST ≫ TE shape is checked
			// at full scale by cmd/snapbench (see EXPERIMENTS.md).
			if r.P5TE > r.P5ST*10+100*time.Millisecond {
				t.Errorf("%s: TE (%v) out of proportion to ST (%v)", r.Name, r.P5TE, r.P5ST)
			}
			if r.Cold <= 0 || r.Policy <= 0 || r.TopoTM <= 0 {
				t.Errorf("%s: zero scenario time", r.Name)
			}
			if trial == 0 {
				names = append(names, r.Name)
				coldBest[r.Name], topoTMBest[r.Name] = r.Cold, r.TopoTM
			}
			coldBest[r.Name] = min(coldBest[r.Name], r.Cold)
			topoTMBest[r.Name] = min(topoTMBest[r.Name], r.TopoTM)
		}
	}
	// Scenario containment: a topology/TM change reuses the model's
	// topology precomputation (place.Model.Refresh) and re-runs only TE
	// solving and rule generation, so it must beat a cold start outright —
	// the paper's "few milliseconds of incremental updates" (§6.2).
	for _, name := range names {
		if topoTMBest[name] >= coldBest[name] {
			t.Errorf("%s: topo/TM (%v) not faster than cold start (%v), best of %d each",
				name, topoTMBest[name], coldBest[name], gateTrials)
		}
	}
}

// TestFig10Monotone checks compile time grows with topology size (the
// paper's scaling trend).
func TestFig10Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 sweep")
	}
	s := CI
	s.IGenSizes = []int{10, 30, 60}
	rows, err := Fig10(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	if rows[2].Cold < rows[0].Cold {
		t.Errorf("cold start did not grow with size: %v -> %v", rows[0].Cold, rows[2].Cold)
	}
}

// TestFig11Compose checks the policy-composition sweep completes and the
// composed programs keep adding state variables.
func TestFig11Compose(t *testing.T) {
	if testing.Short() {
		t.Skip("fig11 sweep")
	}
	s := CI
	s.MaxPolicies = 8
	rows, err := Fig11(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].StateVars <= rows[i-1].StateVars {
			t.Errorf("state variables did not grow: %v -> %v", rows[i-1], rows[i])
		}
		if rows[i].XFDD <= rows[i-1].XFDD {
			t.Errorf("xFDD did not grow: %+v -> %+v", rows[i-1], rows[i])
		}
	}
}

// TestTable4Matrix checks the scenario/phase checkmark matrix matches the
// paper's Table 4.
func TestTable4Matrix(t *testing.T) {
	out, err := Table4(CI)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 7 {
		t.Fatalf("want header + 6 phases, got %d lines:\n%s", len(lines), out)
	}
	wantMarks := map[string][3]string{
		"P1": {"-", "x", "x"},
		"P2": {"-", "x", "x"},
		"P3": {"-", "x", "x"},
		"P4": {"-", "-", "x"},
		"P5": {"x", "x", "x"},
		"P6": {"x", "x", "x"},
	}
	for _, line := range lines[1:] {
		fields := strings.Fields(line)
		marks := fields[len(fields)-3:]
		key := fields[0]
		w := wantMarks[key]
		for i := 0; i < 3; i++ {
			if marks[i] != w[i] {
				t.Errorf("%s: marks %v, want %v", key, marks, w)
			}
		}
	}
}
