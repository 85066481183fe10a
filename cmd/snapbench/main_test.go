package main

import (
	"bytes"
	"strings"
	"testing"

	"snap/internal/apps"
)

// TestExperimentTable: the table is the one list of experiments. Names are
// unique, an unknown name is refused with every name that exists, and the
// experiments snapmark superseded are unknown names now.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, e := range experiments {
		if seen[e.name] {
			t.Errorf("experiment name %q is taken twice", e.name)
		}
		seen[e.name] = true
	}
	for _, name := range []string{"nosuch", "hotpath", "throughput", "scale", "reconfig"} {
		var out bytes.Buffer
		err := run([]string{"-exp", name}, &out)
		if err == nil {
			t.Fatalf("-exp %s ran", name)
		}
		for _, e := range experiments {
			if !strings.Contains(err.Error(), e.name) {
				t.Errorf("-exp %s: error %q does not name %s", name, err, e.name)
			}
		}
		if out.Len() != 0 {
			t.Errorf("-exp %s printed %q before failing", name, out.String())
		}
	}
}

// TestTable3Rows: -exp table3 prints a title, a header and one row per
// catalogued application.
func TestTable3Rows(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "table3"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if want := 2 + len(apps.All()); len(lines) != want {
		t.Fatalf("table3 printed %d lines, want %d:\n%s", len(lines), want, out.String())
	}
	if !strings.HasPrefix(lines[0], "== Table 3") {
		t.Errorf("first line %q is not the Table 3 title", lines[0])
	}
	for i, a := range apps.All() {
		if row := strings.Fields(lines[2+i]); len(row) == 0 || row[0] != a.Name {
			t.Errorf("row %d is %q, want application %s", i, lines[2+i], a.Name)
		}
	}
}
