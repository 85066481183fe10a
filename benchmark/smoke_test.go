package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"snap/internal/parser"
	"snap/internal/semantics"
	"snap/internal/state"
	"snap/internal/topo"
	"snap/internal/traffic"
)

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: defaultSeed, seconds: 0.2, trace: trace, small: true,
		out: filepath.Join(t.TempDir(), resultName(workload, trace))}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the driver's view of the benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// BENCHMARK.json and the program must state the same workloads, metrics,
// units and bounds, and every name must be one the driver accepts.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if doc.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, the operation counts are stated for %d", doc.RunSeconds, refSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Bound != d.Bound || m.Better != "lower" {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bad name or bound %g", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per-layer metric %q: bad or repeated name", m.Name)
		}
		seen[m.Name] = true
	}
}

// All four workloads, both passes, at 1/200 size: every metric the driver
// expects is in the output with its unit, nothing fails, and the last line
// is the JSON object the driver reads.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(smokeConfig(t, sp.name, trace), 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", sp.name, trace, res.Attempted, res.Failed, res.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				if r, ok := res.Rows[d.Name]; !ok || r.Unit != d.Unit || r.N == 0 {
					t.Errorf("%s trace=%v: metric %s: row %+v, want unit %q", sp.name, trace, d.Name, r, d.Unit)
				}
			}
			var out bytes.Buffer
			if err := printLastLine(&out, res); err != nil {
				t.Fatal(err)
			}
			var last struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(out.Bytes(), &last); err != nil {
				t.Fatalf("last line is not JSON: %v\n%s", err, out.String())
			}
			if !last.Correct || len(last.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: last line has correct=%v and %d metrics, want %d", sp.name, trace, last.Correct, len(last.Metrics), len(defs))
			}
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("smoke run took %v, want under 5s", d)
	}
}

// The same seed gives byte-identical inputs and identical exact counts;
// another seed gives other inputs.
func TestSeedDeterminism(t *testing.T) {
	tp, err := topo.NewCampus(linkCapacity)
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.Gravity(tp, totalDemand, matrixSeed)
	a, b, c := genTrace(tm, 2000, hostsPerSubnet, true, 7), genTrace(tm, 2000, hostsPerSubnet, true, 7), genTrace(tm, 2000, hostsPerSubnet, true, 8)
	differs := false
	for i := range a {
		if a[i].Port != b[i].Port || !a[i].Packet.Equal(b[i].Packet) {
			t.Fatalf("packet %d differs between two draws with one seed", i)
		}
		if a[i].Port != c[i].Port || !a[i].Packet.Equal(c[i].Packet) {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 drew the same trace")
	}
	if u1, v1 := probePair(tp, 7); u1 == v1 || u1 == protectedPort || v1 == protectedPort {
		t.Errorf("probe pair %d->%d must be two distinct unprotected ports", u1, v1)
	}

	for _, name := range []string{"fwd-campus", "ctl-enterprise"} {
		first, err := runWorkload(smokeConfig(t, name, true), 0)
		if err != nil {
			t.Fatal(err)
		}
		second, err := runWorkload(smokeConfig(t, name, true), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range exactCounts {
			if first.Rows[m].Value != second.Rows[m].Value {
				t.Errorf("%s: %s = %v, then %v, under one seed", name, m, first.Rows[m].Value, second.Rows[m].Value)
			}
		}
	}
}

// The oracle's projected evaluation must agree with the semantics run on
// the whole shadow store, packet by packet and in the final state.
func TestOracleProjection(t *testing.T) {
	for _, name := range []string{"fwd-campus", "ctl-enterprise"} {
		sp, err := specByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := sp.build(true)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := parser.ParseWith(policySrc(sp.body, len(tp.Ports), 0), parseOpts)
		if err != nil {
			t.Fatal(err)
		}
		o, err := newOracle(pol, tp)
		if err != nil {
			t.Fatal(err)
		}
		whole := &oracle{policy: pol, topo: tp, shadow: state.NewStore()}
		delivered := 0
		for i, ing := range genTrace(traffic.Gravity(tp, totalDemand, matrixSeed), 400, 4, sp.dns, 3) {
			got, err := o.eval(ing.Packet)
			if err != nil {
				t.Fatal(err)
			}
			res, err := semantics.Eval(pol, whole.shadow, ing.Packet)
			if err != nil {
				t.Fatal(err)
			}
			whole.shadow = res.Store
			want := whole.deliveries(res.Packets)
			if !sameKeys(got, want) {
				t.Fatalf("%s packet %d: projected %v, whole store %v", name, i, got, want)
			}
			delivered += len(want)
		}
		if !o.shadow.Equal(whole.shadow) {
			t.Errorf("%s: projected shadow differs from the whole-store shadow", name)
		}
		if delivered == 0 || entryCount(o.shadow) == 0 {
			t.Errorf("%s: the trace delivered %d packets and left %d entries; the test needs both", name, delivered, entryCount(o.shadow))
		}
	}

	unsound, err := parser.Parse(`srcport <- 1; seen[srcport] <- True`)
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := topo.NewCampus(linkCapacity)
	if _, err := newOracle(unsound, tp); err == nil {
		t.Error("newOracle accepted a state index that reads an assigned field")
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		delta, spread, bound float64
		want                 string
	}{
		{0.12, 0.02, 0.10, "regressed"},
		{0.04, 0.15, 0.10, "unresolved"},
		{-0.06, 0.02, 0.10, "improved"},
		{-0.01, 0.02, 0.10, "unchanged"},
		{0.08, 0.02, 0.10, "unchanged"},
	} {
		if got := verdict(c.delta, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %s, want %s", c.delta, c.spread, c.bound, got, c.want)
		}
	}
}

// compareFiles must flag a slowdown past the bound, a workload or metric
// that went missing and a new failed operation, must not compare a row either
// side marks invalid, and must flag nothing else.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	no := false
	campus := &result{Workload: "fwd-campus", Rows: map[string]row{"ns_per_packet": exact("ns", 100)}}
	wan := func(edit func(*result)) *result {
		r := &result{Workload: "fwd-wan", Rows: map[string]row{}}
		for _, d := range endToEnd {
			r.Rows[d.Name] = exact(d.Unit, 100)
		}
		if edit != nil {
			edit(r)
		}
		return r
	}
	parSCR := func(v float64, valid *bool) func(*result) {
		return func(r *result) {
			x := exact("ns", v)
			x.Valid = valid
			r.Rows["par_scr_ns_per_packet"] = x
		}
	}
	base := []*result{campus, wan(nil)}
	for i, c := range []struct {
		name      string
		old, new  []*result
		regressed bool
	}{
		{"within the bound", base, []*result{campus, wan(func(r *result) { r.Rows["ns_per_packet"] = exact("ns", 101) })}, false},
		{"past the bound", base, []*result{campus, wan(func(r *result) { r.Rows["ns_per_packet"] = exact("ns", 130) })}, true},
		{"workload missing", base, []*result{campus}, true},
		{"metric missing", base, []*result{campus, wan(func(r *result) { delete(r.Rows, "latency_p50_us") })}, true},
		{"new failure", base, []*result{campus, wan(func(r *result) { r.Failed = 1 })}, true},
		{"new row invalid", base, []*result{campus, wan(parSCR(200, &no))}, false},
		{"old row invalid", []*result{campus, wan(parSCR(100, &no))}, []*result{campus, wan(parSCR(200, nil))}, false},
	} {
		oldPath, newPath := filepath.Join(dir, fmt.Sprintf("old%d.json", i)), filepath.Join(dir, fmt.Sprintf("new%d.json", i))
		if err := writeResults(oldPath, c.old); err != nil {
			t.Fatal(err)
		}
		if err := writeResults(newPath, c.new); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if regressed, err := compareFiles(&out, oldPath, newPath); err != nil || regressed != c.regressed {
			t.Errorf("%s: regressed=%v err=%v, want %v\n%s", c.name, regressed, err, c.regressed, out.String())
		}
	}
}

// A span's self time is its duration minus its children's.
func TestSelfTimes(t *testing.T) {
	r := &recorder{counts: map[string]int64{}, spans: []span{
		{Name: "op", Op: 1, Parent: -1, StartNs: 0, EndNs: 10e6},
		{Name: "a", Op: 1, Parent: 0, StartNs: 1e6, EndNs: 4e6},
		{Name: "b", Op: 1, Parent: 0, StartNs: 4e6, EndNs: 9e6},
		{Name: "a", Op: 1, Parent: 2, StartNs: 5e6, EndNs: 6e6},
	}}
	want := map[string]selfTime{
		"op": {Name: "op", Calls: 1, TotalMs: 10, SelfMs: 2},
		"a":  {Name: "a", Calls: 2, TotalMs: 4, SelfMs: 4},
		"b":  {Name: "b", Calls: 1, TotalMs: 5, SelfMs: 4},
	}
	for _, st := range r.selfTimes() {
		if st != want[st.Name] {
			t.Errorf("self time of %s = %+v, want %+v", st.Name, st, want[st.Name])
		}
	}
}
