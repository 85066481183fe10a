// Package telemetry is the repo's dependency-free observability substrate:
// a metrics registry (counters, power-of-two-bucket histograms and
// scrape-time collectors), one bounded ring serving the control-plane span
// log and the sampled packet-trace log, and an HTTP face (serve.go)
// exposing Prometheus text, a JSON snapshot, and net/http/pprof.
//
// The design constraint is the engine's zero-alloc packet loop: every
// write-side instrument is a plain atomic operation on a pre-resolved
// handle — Counter.Add is one atomic add, Histogram.Observe two (bucket
// and sum) — and no instrument ever allocates after registration. All
// aggregation (bucket summing, label joining, text encoding) happens on
// the scrape side, which is also where func-backed metrics run: the engine
// registers collectors that read its *existing* atomics at scrape time, so
// steady-state packet processing pays nothing for being observable.
//
// The registry is not global: each Engine owns one (parallel tests, and
// later multiple engines per process, must not collide), and the HTTP
// server serves whichever registry it was given.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type, deciding its Prometheus TYPE line and
// snapshot shape.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// Counter is a monotonically increasing metric. The zero value is ready.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; Inc is Add(1).
func (c *Counter) Add(n int64) { c.v.Add(n) }
func (c *Counter) Inc()        { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Emit is the callback a func-backed metric uses to report samples at
// scrape time: one call per (label values, value) pair.
type Emit func(labelValues []string, value float64)

// child is one labeled instance inside a family.
type child struct {
	labelValues []string
	c           *Counter
	h           *Histogram
}

// family is one registered metric name: its metadata plus either live
// children (label-value → instrument) or a scrape-time collector.
type family struct {
	name   string
	help   string
	kind   Kind
	scale  float64 // multiplies raw int64 observations on output (histograms, func-less)
	labels []string

	mu       sync.Mutex
	children map[string]*child
	order    []string // child keys in first-registration order

	collect func(emit Emit) // func-backed: overrides children at scrape
}

// childKey joins label values unambiguously (label values never contain
// \xff in this codebase's usage — variable names, scenario slugs).
func childKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := 0
	for _, v := range values {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, '\xff')
		}
		b = append(b, v...)
	}
	return string(b)
}

func (f *family) child(values []string) *child {
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.children[key]; ok {
		return ch
	}
	ch := &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		ch.c = &Counter{}
	case KindHistogram:
		ch.h = &Histogram{scale: f.scale}
	}
	if f.children == nil {
		f.children = map[string]*child{}
	}
	f.children[key] = ch
	f.order = append(f.order, key)
	return ch
}

// Registry holds metric families in registration order, plus the optional
// span log and trace ring the JSON snapshot folds in.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family

	// Spans is the bounded control-plane event log (NewRegistry installs
	// one); Traces is the sampled packet-trace ring (nil until a trace
	// producer installs one).
	Spans  *SpanLog
	Traces *TraceLog
}

// NewRegistry builds an empty registry with a span log and the process
// collectors (goroutines, heap, GC) pre-registered.
func NewRegistry() *Registry {
	r := &Registry{byName: map[string]*family{}, Spans: NewSpanLog(256)}
	registerProcessMetrics(r)
	return r
}

// register returns the family for name, creating it when new. Registration
// is idempotent — a second registration of the same name returns the
// existing family — but re-registering under a different kind is a
// programming error and panics.
func (r *Registry) register(name, help string, kind Kind, scale float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic("telemetry: metric " + name + " re-registered as a different kind")
		}
		return f
	}
	if scale == 0 {
		scale = 1
	}
	f := &family{name: name, help: help, kind: kind, scale: scale, labels: append([]string(nil), labels...)}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter returns the plain (label-less) counter for name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, KindCounter, 1, nil).child(nil).c
}

// CounterVec is a labeled counter family; resolve children once with With
// and hold the handle on hot paths.
type CounterVec struct{ f *family }

func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, 1, labels)}
}
func (v *CounterVec) With(labelValues ...string) *Counter { return v.f.child(labelValues).c }

// HistogramVec is a histogram family; With() with no values is its
// label-less child. scale converts raw observed int64s to the exported
// unit (1e-9 for nanosecond durations exported as seconds; 0 → 1).
type HistogramVec struct{ f *family }

func (r *Registry) HistogramVec(name, help string, scale float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, KindHistogram, scale, labels)}
}
func (v *HistogramVec) With(labelValues ...string) *Histogram { return v.f.child(labelValues).h }

// Each calls fn with every child's label values, observation count and
// raw (unscaled) sum, in registration order.
func (v *HistogramVec) Each(fn func(labelValues []string, count, sum int64)) {
	for _, ch := range v.f.snapshotChildren() {
		s := ch.h.snapshot()
		fn(ch.labelValues, s.count, s.sum)
	}
}

// CounterFunc registers a scrape-time collector exported as a counter:
// collect is called on every scrape and emits (label values, value)
// samples. The engine uses these to expose its existing atomics with zero
// hot-path cost.
func (r *Registry) CounterFunc(name, help string, labels []string, collect func(emit Emit)) {
	r.register(name, help, KindCounter, 1, labels).collect = collect
}

// GaugeFunc is CounterFunc with gauge semantics.
func (r *Registry) GaugeFunc(name, help string, labels []string, collect func(emit Emit)) {
	r.register(name, help, KindGauge, 1, labels).collect = collect
}

// sample is one gathered (labels, value) point; hist is set for
// histogram children.
type sample struct {
	labelValues []string
	value       float64
	hist        *histSnapshot
}

// gather snapshots one family's samples. Func-backed families run their
// collector; live families walk children in registration order.
func (f *family) gather() []sample {
	if f.collect != nil {
		var out []sample
		f.collect(func(lv []string, v float64) {
			out = append(out, sample{labelValues: append([]string(nil), lv...), value: v})
		})
		return out
	}
	children := f.snapshotChildren()
	out := make([]sample, 0, len(children))
	for _, ch := range children {
		s := sample{labelValues: ch.labelValues}
		if ch.h != nil {
			hs := ch.h.snapshot()
			s.hist = &hs
		} else {
			s.value = float64(ch.c.Value()) * f.scale
		}
		out = append(out, s)
	}
	return out
}

// snapshotChildren returns the family's children in registration order.
func (f *family) snapshotChildren() []*child {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*child, len(f.order))
	for i, k := range f.order {
		out[i] = f.children[k]
	}
	return out
}

// snapshotFamilies returns the families in registration order (stable
// scrape output).
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.families...)
}

// Names lists the registered metric names, sorted (diagnostics/tests).
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for _, f := range r.families {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}
