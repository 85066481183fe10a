package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Sampler is the 1-in-N packet-trace gate. All methods are nil-receiver
// safe — an engine with sampling off holds a nil sampler and Hit is a
// single branch, which is the entire hot-path cost of the disabled
// feature.
type Sampler struct {
	n   uint64
	ctr atomic.Uint64
}

// NewSampler gates 1 in n events (n <= 0 → nil: never hit; n == 1:
// always hit).
func NewSampler(n int) *Sampler {
	if n <= 0 {
		return nil
	}
	return &Sampler{n: uint64(n)}
}

// Hit reports whether this event is sampled.
func (s *Sampler) Hit() bool {
	if s == nil {
		return false
	}
	return (s.ctr.Add(1)-1)%s.n == 0
}

// HopRecord is one switch visit of a traced packet copy: where it ran,
// how the visit ended, and the state variable involved when the visit
// suspended for remote state.
type HopRecord struct {
	Switch  int    `json:"switch"`
	Outcome string `json:"outcome"` // "forward", "suspend", "deliver", "drop:<reason>"
	Var     string `json:"state_var,omitempty"`
	Egress  int    `json:"egress,omitempty"`
}

// TraceRecord is one completed sampled packet: its hop-by-hop path
// (multicast copies interleave in visit order), the state ops it touched,
// and the inject-to-deliver latency.
type TraceRecord struct {
	Seq     int64         `json:"seq"` // injection ordinal at sampling time
	Ingress int           `json:"ingress"`
	Start   time.Time     `json:"start"`
	Latency time.Duration `json:"latency"`
	Hops    []HopRecord   `json:"hops"`
}

// PacketTrace is one in-flight sampled packet, committed to the ring at
// Finish. The walker of its run appends every hop, multicast copies
// included (they walk in turn on that one goroutine), and finishes it; the
// mutex keeps the record safe for any other goroutine holding the trace.
type PacketTrace struct {
	log *TraceLog
	mu  sync.Mutex
	rec TraceRecord
}

// TraceLog is the bounded ring of completed packet traces.
type TraceLog struct {
	ring    ring[TraceRecord]
	sampled atomic.Int64
}

// NewTraceLog builds a ring retaining the most recent capacity traces
// (capacity <= 0 → 256).
func NewTraceLog(capacity int) *TraceLog {
	return &TraceLog{ring: newRing[TraceRecord](capacity)}
}

// Start opens a trace for one sampled injection. The returned trace is
// live until Finish; it allocates, which is fine — only sampled packets
// (1 in N, default never) pay it.
func (l *TraceLog) Start(ingress int, seq int64) *PacketTrace {
	l.sampled.Add(1)
	return &PacketTrace{log: l, rec: TraceRecord{Seq: seq, Ingress: ingress, Start: time.Now()}}
}

// Hop appends one switch visit.
func (t *PacketTrace) Hop(sw int, outcome, stateVar string, egress int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rec.Hops = append(t.rec.Hops, HopRecord{Switch: sw, Outcome: outcome, Var: stateVar, Egress: egress})
	t.mu.Unlock()
}

// Finish stamps the latency (inject to last-copy retirement) and commits
// the trace to the ring.
func (t *PacketTrace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rec.Latency = time.Since(t.rec.Start)
	rec := t.rec
	t.mu.Unlock()
	t.log.ring.add(rec)
}

// Sampled counts traces started over the log's lifetime (>= retained).
func (l *TraceLog) Sampled() int64 {
	if l == nil {
		return 0
	}
	return l.sampled.Load()
}

// Snapshot returns the retained completed traces oldest-first.
func (l *TraceLog) Snapshot() []TraceRecord {
	if l == nil {
		return nil
	}
	return l.ring.snapshot()
}
