package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadReplayAccounting builds the command and runs the load replay CI
// runs between its steps: of the packets the first summary line says were
// replayed, the second must account for every one as delivered or dropped.
func TestLoadReplayAccounting(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "snapsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-app", "port-monitor", "-load", "2000", "-workers", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("snapsim: %v\n%s", err, out)
	}
	// A line that is missing or does not scan leaves its -1 behind.
	replayed, delivered, dropped := -1, -1, -1
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "replayed ") {
			fmt.Sscanf(line, "replayed %d packets", &replayed)
		}
		if strings.HasPrefix(line, "delivered ") {
			fmt.Sscanf(line, "delivered %d, dropped %d", &delivered, &dropped)
		}
	}
	if replayed != 2000 || delivered < 0 || dropped < 0 || delivered+dropped != replayed {
		t.Fatalf("replayed %d, delivered %d, dropped %d: want 2000 = delivered + dropped\n%s",
			replayed, delivered, dropped, out)
	}
}
