package telemetry

import (
	"sync"
	"time"
)

// Phase is one named sub-duration inside a span (a compiler phase, the
// swap latency).
type Phase struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration"`
}

// Span records one completed control-plane event with its phase split:
// a drift reconfiguration, a failover, a restore, a policy apply.
type Span struct {
	// Kind is the event class ("reconfig", "failover", "restore",
	// "policy"); Scenario the compile scenario label it was recorded
	// under; Detail free-form context (the plan, the victim).
	Kind     string        `json:"kind"`
	Scenario string        `json:"scenario,omitempty"`
	Detail   string        `json:"detail,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	Phases   []Phase       `json:"phases,omitempty"`
}

// ring is a bounded in-memory log: add never blocks beyond a short mutex
// and never grows past the capacity — the oldest item falls off — and
// snapshot returns the retained items oldest-first. total counts every
// item ever added.
type ring[T any] struct {
	mu    sync.Mutex
	cap   int
	buf   []T
	next  int
	total int64
}

// newRing holds the most recent capacity items (capacity <= 0 → 256).
func newRing[T any](capacity int) ring[T] {
	if capacity <= 0 {
		capacity = 256
	}
	return ring[T]{cap: capacity}
}

func (r *ring[T]) add(v T) {
	r.mu.Lock()
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
	}
	r.next = (r.next + 1) % r.cap
	r.total++
	r.mu.Unlock()
}

func (r *ring[T]) snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	if len(r.buf) < r.cap {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// SpanLog is the bounded ring of control-plane spans.
type SpanLog struct{ ring ring[Span] }

// NewSpanLog builds a ring holding the most recent capacity spans
// (capacity <= 0 → 256).
func NewSpanLog(capacity int) *SpanLog {
	return &SpanLog{newRing[Span](capacity)}
}

// Record appends one span, evicting the oldest past capacity.
func (l *SpanLog) Record(s Span) {
	if l != nil {
		l.ring.add(s)
	}
}

// Total counts spans recorded over the log's lifetime (recorded minus
// retained = evicted).
func (l *SpanLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.ring.mu.Lock()
	defer l.ring.mu.Unlock()
	return l.ring.total
}

// Snapshot returns the retained spans oldest-first.
func (l *SpanLog) Snapshot() []Span {
	if l == nil {
		return nil
	}
	return l.ring.snapshot()
}
