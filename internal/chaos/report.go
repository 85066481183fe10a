// Report and reproduction support for the chaos soak. A run's Report is
// deterministic modulo wall-clock fields: Fingerprint folds every
// behavioral observable (event timeline, packet and state accounting,
// oracle verdicts) into one string, so two runs with the same Options must
// produce byte-identical fingerprints — the reproducibility contract the
// test matrix asserts and the ReproCommand relies on.
package chaos

import (
	"fmt"
	"strings"
)

// EventRecord is one scheduled or reactive event the harness executed, at
// the chunk boundary it fired.
type EventRecord struct {
	Chunk  int    `json:"chunk"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// Report is the outcome of one chaos soak.
type Report struct {
	// Reproduction identity: the knobs that determine behavior.
	Seed     int64  `json:"seed"`
	Topology string `json:"topology"`
	Packets  int    `json:"packets"`
	Chunk    int    `json:"chunk"`
	Replicas int    `json:"replicas"`

	// Engine-lifetime packet accounting at the end of the soak.
	Injected  int64 `json:"injected"`
	Delivered int64 `json:"delivered"`
	Dropped   int64 `json:"dropped"`
	// DegradedDrops are the drops observed during open failure windows
	// (failure injected, failover not yet run) — the explained share of
	// Dropped. Every other window must drop nothing.
	DegradedDrops int64 `json:"degradedDrops"`

	// State accounting across failovers: entries restored from replicas,
	// variables promoted to backup owners, and the bounded losses
	// (unreplicated entries, replica-lag writes) FailoverStats explains.
	RecoveredEntries int   `json:"recoveredEntries"`
	PromotedVars     int   `json:"promotedVars"`
	LostEntries      int   `json:"lostEntries"`
	LostWrites       int64 `json:"lostWrites"`

	// Events is the executed timeline.
	Events []EventRecord `json:"events"`

	// Containment accounting, populated when Faults is set: injected
	// control-plane and worker faults must be absorbed by exactly these
	// rollback/retry/containment paths, so the counts are deterministic
	// and fingerprinted.
	Faults          bool  `json:"faults,omitempty"`
	Rollbacks       int64 `json:"rollbacks,omitempty"`
	Retries         int64 `json:"retries,omitempty"`
	ContainedPanics int64 `json:"containedPanics,omitempty"`

	// Differential-oracle accounting: sampled probe flows compared in
	// lockstep, full state-equality audits, and resyncs after windows the
	// shadow store cannot track (open failure windows, lossy failovers).
	OracleProbes      int `json:"oracleProbes"`
	OracleStateAudits int `json:"oracleStateAudits"`
	OracleResyncs     int `json:"oracleResyncs"`

	// Violations lists every invariant breach, tagged with the chunk
	// boundary that detected it. Empty means the soak passed.
	Violations []string `json:"violations,omitempty"`

	// Timing (excluded from the fingerprint): nanoseconds spent inside
	// InjectReplay and the sustained packets-per-second under churn.
	EngineNs int64   `json:"engineNs"`
	PPS      float64 `json:"pps"`
}

// Fingerprint folds every deterministic observable into one string: two
// runs with identical Options must return byte-identical fingerprints.
// Wall-clock-dependent fields (EngineNs, PPS, LostWrites) are excluded.
func (r *Report) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d topo=%s packets=%d chunk=%d k=%d\n",
		r.Seed, r.Topology, r.Packets, r.Chunk, r.Replicas)
	fmt.Fprintf(&b, "injected=%d delivered=%d dropped=%d degraded-drops=%d\n",
		r.Injected, r.Delivered, r.Dropped, r.DegradedDrops)
	// LostWrites is deliberately excluded: mirror replication drains
	// asynchronously, so how many lagged writes a failure catches in
	// flight is wall-clock-dependent — the invariant the soak audits is
	// that the loss is *explained*, not its exact size.
	fmt.Fprintf(&b, "recovered=%d promoted=%d lost-entries=%d\n",
		r.RecoveredEntries, r.PromotedVars, r.LostEntries)
	for _, e := range r.Events {
		fmt.Fprintf(&b, "event chunk=%d kind=%s %s\n", e.Chunk, e.Kind, e.Detail)
	}
	if r.Faults {
		fmt.Fprintf(&b, "faults=%v rollbacks=%d retries=%d contained-panics=%d\n",
			r.Faults, r.Rollbacks, r.Retries, r.ContainedPanics)
	}
	fmt.Fprintf(&b, "oracle probes=%d audits=%d resyncs=%d\n",
		r.OracleProbes, r.OracleStateAudits, r.OracleResyncs)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "violation %s\n", v)
	}
	return b.String()
}

// ReproCommand renders the snapsim invocation that reproduces this run
// byte-for-byte; the test matrix prints it on failure.
func (r *Report) ReproCommand() string {
	var b strings.Builder
	fmt.Fprintf(&b, "go run ./cmd/snapsim -chaos -seed %d -packets %d -chunk %d -topo %s",
		r.Seed, r.Packets, r.Chunk, r.Topology)
	if r.Replicas > 1 {
		fmt.Fprintf(&b, " -k %d", r.Replicas)
	}
	if r.Faults {
		b.WriteString(" -faults")
	}
	return b.String()
}

// Passed reports whether the soak completed with zero invariant
// violations.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }
