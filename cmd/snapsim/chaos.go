// The -chaos mode: drive one seeded soak from internal/chaos, stream its
// event timeline, and render the report. Exits nonzero on any invariant
// violation, printing the one-command repro the harness guarantees.
package main

import (
	"fmt"
	"os"
	"time"

	"snap/internal/chaos"
)

type chaosOptions struct {
	seed      int64
	topo      string
	packets   int
	chunk     int
	k         int
	short     bool
	faults    bool
	workers   int
	verbose   bool
	telemetry string
}

func runChaos(co chaosOptions) {
	o := chaos.Options{
		Seed:          co.seed,
		Topology:      co.topo,
		Packets:       co.packets,
		Chunk:         co.chunk,
		Workers:       co.workers,
		Replicas:      co.k,
		Faults:        co.faults,
		Log:           os.Stdout,
		Verbose:       co.verbose,
		TelemetryAddr: co.telemetry,
	}
	if co.short {
		// The CI smoke configuration: same schedule shape (10 chunks, one
		// full failure episode), a fraction of the replay.
		o.Packets, o.Chunk = 3000, 300
	}

	rep, err := chaos.Run(o)
	if err != nil {
		fail(err)
	}

	fmt.Printf("\n--- chaos report (seed %d, %s, %d packets) ---\n", rep.Seed, rep.Topology, rep.Packets)
	fmt.Printf("replication factor: k=%d\n", rep.Replicas)
	fmt.Printf("packets: injected %d, delivered %d, dropped %d (%d in degraded windows)\n",
		rep.Injected, rep.Delivered, rep.Dropped, rep.DegradedDrops)
	fmt.Printf("state: recovered %d entries, promoted %d vars, lost %d entries + %d lagged writes\n",
		rep.RecoveredEntries, rep.PromotedVars, rep.LostEntries, rep.LostWrites)
	fmt.Printf("events: %d executed; oracle: %d lockstep probes, %d state audits, %d resyncs\n",
		len(rep.Events), rep.OracleProbes, rep.OracleStateAudits, rep.OracleResyncs)
	if rep.Faults {
		fmt.Printf("containment: %d rollback(s), %d retried op(s), %d contained panic(s)\n",
			rep.Rollbacks, rep.Retries, rep.ContainedPanics)
	}
	if rep.EngineNs > 0 {
		fmt.Printf("engine: %s inside InjectReplay, %.0f sustained pps under churn\n",
			time.Duration(rep.EngineNs).Round(time.Millisecond), rep.PPS)
	}

	if !rep.Passed() {
		fmt.Printf("\nFAIL: %d invariant violation(s)\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Printf("  %s\n", v)
		}
		fmt.Printf("reproduce with:\n  %s\n", rep.ReproCommand())
		os.Exit(1)
	}
	fmt.Println("\nPASS: all invariants held (packet conservation, state accounting, differential oracle)")
}
