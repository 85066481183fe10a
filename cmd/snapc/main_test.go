package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestGoldenFirewallOnCampus builds the command and compares its whole
// report — placement lines, congestion, the per-switch table — with the
// golden file; only the phase times, which no two runs share, are masked.
func TestGoldenFirewallOnCampus(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "snapc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-app", "stateful-firewall", "-topo", "campus").CombinedOutput()
	if err != nil {
		t.Fatalf("snapc: %v\n%s", err, out)
	}
	got := regexp.MustCompile(`(?m)^phases:.*$`).ReplaceAll(out, []byte("phases: <masked>"))
	want, err := os.ReadFile(filepath.Join("testdata", "stateful-firewall-campus.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("report differs from testdata/stateful-firewall-campus.golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
