package chaos

import (
	"fmt"
	"strings"
	"testing"
)

// campusOpts is the test-matrix configuration: the campus topology keeps
// each soak fast while still giving the schedule a real fault space
// (correlated scenarios included) and the oracle a few hundred state
// entries to shadow.
func campusOpts(seed int64, k int) Options {
	return Options{
		Seed:     seed,
		Topology: "campus",
		Packets:  3000,
		Chunk:    300,
		Workers:  2,
		Replicas: k,
	}
}

func mustRun(t *testing.T, o Options) *Report {
	t.Helper()
	rep, err := Run(o)
	if err != nil {
		t.Fatalf("chaos.Run: %v", err)
	}
	return rep
}

func requirePassed(t *testing.T, rep *Report) {
	t.Helper()
	if !rep.Passed() {
		t.Errorf("soak violated %d invariant(s); reproduce with:\n  %s", len(rep.Violations), rep.ReproCommand())
		for _, v := range rep.Violations {
			t.Errorf("  violation: %s", v)
		}
		t.FailNow()
	}
}

// TestChaosMatrix is the soak matrix: seeds × replication factor. Every
// cell must complete with zero invariant violations, and rerunning the
// identical options must reproduce the run byte-for-byte (Fingerprint
// equality) — the property that makes any future soak failure a
// one-command repro.
func TestChaosMatrix(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, k := range []int{1, 2} {
			o := campusOpts(seed, k)
			name := fmt.Sprintf("seed=%d/k=%d", seed, k)
			t.Run(name, func(t *testing.T) {
				rep := mustRun(t, o)
				requirePassed(t, rep)

				// The scheduled chaos must actually have happened.
				kinds := map[string]bool{}
				for _, e := range rep.Events {
					kinds[e.Kind] = true
				}
				for _, want := range []string{"policy", "shift", "fail", "failover", "restore"} {
					if !kinds[want] {
						t.Errorf("no %q event executed; events: %v", want, rep.Events)
					}
				}
				if rep.OracleProbes == 0 || rep.OracleStateAudits == 0 {
					t.Errorf("oracle idle: probes=%d state audits=%d", rep.OracleProbes, rep.OracleStateAudits)
				}

				// With K=2 every orphaned entry must come back from a
				// replica; unreplicated runs may lose entries but the
				// loss must be exactly the explained FailoverStats.
				if k == 2 && rep.LostEntries != 0 {
					t.Errorf("K=2 soak lost %d entries; replication should cover every orphan", rep.LostEntries)
				}

				rep2 := mustRun(t, o)
				if a, b := rep.Fingerprint(), rep2.Fingerprint(); a != b {
					t.Errorf("same options, different runs:\n--- first\n%s--- second\n%s", a, b)
				}
			})
		}

	}
}

// TestChaosContainmentMatrix is the faults-on soak matrix: seeds with
// faultpoint injection armed. Every cell must contain the scripted
// control-plane failure (error returned, edit issued again), mid-swap
// apply failure (rollback, edit issued again) and worker panic
// (quarantine + heal) with zero invariant violations —
// the engine keeps serving on the prior epoch with zero lost state entries
// across every contained fault — and the run must stay byte-reproducible,
// containment counters included.
func TestChaosContainmentMatrix(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		o := campusOpts(seed, 1)
		o.Faults = true
		name := fmt.Sprintf("seed=%d", seed)
		t.Run(name, func(t *testing.T) {
			rep := mustRun(t, o)
			requirePassed(t, rep)

			kinds := map[string]bool{}
			for _, e := range rep.Events {
				kinds[e.Kind] = true
			}
			for _, want := range []string{"cfail", "afail", "wpanic"} {
				if !kinds[want] {
					t.Errorf("no %q containment event executed; events: %v", want, rep.Events)
				}
			}
			// The scripted faults are contained by exactly one rollback
			// and one contained panic; any other count means a fault
			// escaped or double-fired.
			if !rep.Faults {
				t.Error("report does not flag faults mode")
			}
			if rep.Rollbacks != 1 {
				t.Errorf("rollbacks = %d, want exactly 1", rep.Rollbacks)
			}
			if rep.ContainedPanics != 1 {
				t.Errorf("contained panics = %d, want exactly 1", rep.ContainedPanics)
			}
			if !strings.Contains(rep.ReproCommand(), "-faults") {
				t.Errorf("repro command %q missing -faults", rep.ReproCommand())
			}

			rep2 := mustRun(t, o)
			if a, b := rep.Fingerprint(), rep2.Fingerprint(); a != b {
				t.Errorf("same faults options, different runs:\n--- first\n%s--- second\n%s", a, b)
			}
		})

	}
}

// TestChaosTable5 soaks the default Table 5 topology (Stanford) at
// reduced length: the configuration CI's smoke step runs.
func TestChaosTable5(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: campus matrix covers the invariants")
	}
	rep := mustRun(t, Options{Seed: 1, Packets: 3000, Chunk: 300, Workers: 2})
	requirePassed(t, rep)
	if rep.Topology != "Stanford" {
		t.Fatalf("default topology %q, want Stanford", rep.Topology)
	}
	if rep.DegradedDrops == 0 {
		t.Error("no degraded-window drops: the failure episode exercised nothing")
	}
	if rep.Dropped != rep.DegradedDrops {
		t.Errorf("%d drops outside degraded windows (total %d)", rep.Dropped-rep.DegradedDrops, rep.Dropped)
	}
}

// TestChaosRaceWorkers is the cell the CI race job runs with -race: a
// multi-worker soak whose every audited observable must still be exact.
func TestChaosRaceWorkers(t *testing.T) {
	rep := mustRun(t, campusOpts(3, 1))
	requirePassed(t, rep)
}

// TestReproCommandRoundTrips sanity-checks the repro string against the
// options that produced the report.
func TestReproCommandRoundTrips(t *testing.T) {
	rep := mustRun(t, campusOpts(1, 2))
	cmd := rep.ReproCommand()
	for _, want := range []string{"-chaos", "-seed 1", "-packets 3000", "-chunk 300", "-topo campus", "-k 2"} {
		if !strings.Contains(cmd, want) {
			t.Errorf("repro command %q missing %q", cmd, want)
		}
	}
}
