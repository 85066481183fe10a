// Sustained throughput under churn: what the engine delivers while the
// chaos harness (internal/chaos) runs its full schedule against it —
// policy edits, workload shifts, a failure/failover/restore episode, drift
// reconfigurations — instead of the clean steady-state replay snapmark
// times. One row unreplicated, plus a mirrored-state row showing what K=2
// fault tolerance costs the same soak.
package bench

import (
	"fmt"
	"strings"
	"time"

	"snap/internal/chaos"
)

// ChaosRow is one replication-factor cell of the soak comparison.
type ChaosRow struct {
	Replicas  int     `json:"replicas"`
	Seed      int64   `json:"seed"`
	Topology  string  `json:"topology"`
	Packets   int64   `json:"packets"` // injected, including oracle probes
	Events    int     `json:"events"`  // chaos events executed
	Reconfigs int     `json:"reconfigs"`
	Dropped   int64   `json:"dropped"` // all inside degraded windows
	EngineNs  int64   `json:"engine_ns"`
	PPS       float64 `json:"sustained_pps"`
}

// Chaos soaks the campus network once per configuration and reports the
// sustained replay throughput with the full event schedule interleaved.
// A soak that violates any invariant fails the experiment: the bench must
// not publish throughput for a run that broke correctness.
func Chaos(s Scale) ([]ChaosRow, error) {
	packets, chunk := 3000, 300
	if s.Name == "full" {
		packets, chunk = 8000, 400
	}

	// k=1 is the unreplicated baseline; with k=2, mirrored state lets
	// failover recover every orphan.
	var rows []ChaosRow
	for _, k := range []int{1, 2} {
		rep, err := chaos.Run(chaos.Options{
			Seed:     1,
			Topology: "campus",
			Packets:  packets,
			Chunk:    chunk,
			Workers:  4,
			Replicas: k,
		})
		if err != nil {
			return nil, fmt.Errorf("chaos soak (k=%d): %w", k, err)
		}
		if !rep.Passed() {
			return nil, fmt.Errorf("chaos soak violated %d invariant(s); reproduce with: %s",
				len(rep.Violations), rep.ReproCommand())
		}
		reconfigs := 0
		for _, e := range rep.Events {
			if e.Kind == "reconfig" {
				reconfigs++
			}
		}
		rows = append(rows, ChaosRow{
			Replicas:  rep.Replicas,
			Seed:      rep.Seed,
			Topology:  rep.Topology,
			Packets:   rep.Injected,
			Events:    len(rep.Events) - reconfigs,
			Reconfigs: reconfigs,
			Dropped:   rep.Dropped,
			EngineNs:  rep.EngineNs,
			PPS:       rep.PPS,
		})
	}
	return rows, nil
}

func FormatChaos(rows []ChaosRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%3s %9s %7s %10s %8s %10s %12s\n",
		"k", "packets", "events", "reconfigs", "dropped", "engine", "pps")
	for _, r := range rows {
		fmt.Fprintf(&b, "%3d %9d %7d %10d %8d %10s %12.0f\n",
			r.Replicas, r.Packets, r.Events, r.Reconfigs, r.Dropped,
			time.Duration(r.EngineNs).Round(time.Millisecond), r.PPS)
	}
	b.WriteString("every drop occurred inside a degraded window (failure injected, failover pending); all invariants held\n")
	return b.String()
}
