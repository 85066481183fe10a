// Failover latency and state loss: what a mid-stream switch kill costs the
// running engine, with and without replicated state placement. The victim
// is always the switch owning the workload's counter state — the worst
// case, since an unreplicated kill takes the state table with it. Each row
// reports the degraded-topology recompilation (P3–P6 on the surviving
// graph), the Engine.Failover drain-recover-publish latency, and the state
// accounting: entries recovered from replicas versus entries and lagged
// writes lost.
package bench

import (
	"fmt"
	"strings"
	"time"

	"snap/internal/core"
	"snap/internal/ctrl"
	"snap/internal/dataplane"
	"snap/internal/fault"
	"snap/internal/place"
	"snap/internal/topo"
	"snap/internal/traffic"
)

// FailoverRow is one replication-factor cell of the failover comparison.
type FailoverRow struct {
	Replicas    int           `json:"replicas"`     // 1 = no replication (baseline)
	Packets     int           `json:"packets"`      // warm-up before the kill
	Victim      int           `json:"victim"`       // killed switch (owner of the counter)
	EntriesHeld int           `json:"entries_held"` // victim's entries at kill time
	Recovered   int           `json:"entries_recovered"`
	LostEntries int           `json:"entries_lost"`
	LostWrites  int64         `json:"writes_lost"` // replica-lag loss
	Promoted    int           `json:"vars_promoted"`
	Recompile   time.Duration `json:"recompile_ns"` // degraded-topology P3–P6
	Swap        time.Duration `json:"swap_ns"`      // Engine.Failover latency
	Total       time.Duration `json:"total_ns"`
	PostPPS     float64       `json:"post_failover_pps"` // surviving-traffic throughput
}

// Failover kills the counter-owning switch mid-stream, once on an
// unreplicated deployment (K=1: the counter's entries are lost) and once
// under K=2 (a quiescent replica is promoted: zero loss), measuring the
// controller's recovery latency and the post-failover throughput.
func Failover(s Scale) ([]FailoverRow, error) {
	t := topo.Campus(s.Capacity)
	tm := traffic.Gravity(t, s.Traffic, 1)
	n := 4000
	if s.Name == "full" {
		n = 40000
	}

	var rows []FailoverRow
	for _, k := range []int{1, 2} {
		policy, err := MonitorWorkload(false, 6)
		if err != nil {
			return nil, err
		}
		comp, err := core.ColdStart(policy, t, tm, place.Options{Method: place.Heuristic, Replicas: k})
		if err != nil {
			return nil, err
		}
		victim, ok := comp.Config.Placement["count"]
		if !ok {
			return nil, fmt.Errorf("failover: workload placed no counter")
		}
		degraded, err := t.Degrade([]topo.NodeID{victim}, nil)
		if err != nil {
			return nil, err
		}
		// Warm with surviving traffic only, so both factors process an
		// identical workload and the post-kill phase needs no filtering.
		tmD := tm.Restrict(degraded)
		warm := ReplayIngress(tmD.Replay(n, 7))
		post := ReplayIngress(tmD.Replay(n, 8))

		eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 4, Window: 256})
		ctl := ctrl.New(comp, eng, ctrl.Options{})
		if err := eng.InjectReplay(warm); err != nil {
			eng.Close()
			return nil, err
		}
		eng.FlushReplication()
		held := len(eng.SwitchTable(victim).Entries("count"))

		start := time.Now()
		rep, err := ctl.Failover(fault.SwitchDown(victim))
		total := time.Since(start)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("failover k=%d: %w", k, err)
		}

		postStart := time.Now()
		if err := eng.InjectReplay(post); err != nil {
			eng.Close()
			return nil, fmt.Errorf("failover k=%d post-traffic: %w", k, err)
		}
		postElapsed := time.Since(postStart)
		st := eng.Stats()
		if st.Injected != st.Delivered+st.Dropped {
			eng.Close()
			return nil, fmt.Errorf("failover k=%d: accounting broken: %+v", k, st)
		}
		eng.Close()

		rows = append(rows, FailoverRow{
			Replicas:    k,
			Packets:     len(warm),
			Victim:      int(victim),
			EntriesHeld: held,
			Recovered:   rep.Recovered,
			LostEntries: rep.LostEntries,
			LostWrites:  rep.LostWrites,
			Promoted:    len(rep.Promoted),
			Recompile:   rep.Compile,
			Swap:        rep.Swap,
			Total:       total,
			PostPPS:     float64(len(post)) / postElapsed.Seconds(),
		})
	}
	return rows, nil
}

// FormatFailover renders the comparison.
func FormatFailover(rows []FailoverRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %7s %7s %10s %10s %6s %12s %12s %12s %12s\n",
		"Replicas", "Victim", "Held", "Recovered", "LostEnt", "LostWr", "Recompile", "Swap", "Total", "PostPPS")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9d %7s %7d %10d %10d %6d %12s %12s %12s %12.0f\n",
			r.Replicas, topo.CampusSwitchName(topo.NodeID(r.Victim)), r.EntriesHeld,
			r.Recovered, r.LostEntries, r.LostWrites, fd(r.Recompile), fd(r.Swap), fd(r.Total), r.PostPPS)
	}
	return b.String()
}
