package telemetry

import "encoding/json"

// Snapshot is the JSON form of a registry scrape: every metric family's
// samples, plus the span log and any sampled packet traces. It is what
// /debug/vars serves and what snapsim -stats-json writes.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
	Spans   []Span           `json:"spans,omitempty"`
	Traces  []TraceRecord    `json:"traces,omitempty"`
}

// MetricSnapshot is one family's scrape.
type MetricSnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Kind    string           `json:"kind"`
	Samples []SampleSnapshot `json:"samples,omitempty"`
}

// SampleSnapshot is one (labels, value) point; histograms carry their
// non-empty buckets plus sum and count instead of a scalar value.
type SampleSnapshot struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value"`
	Buckets []BucketCount     `json:"buckets,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Count   int64             `json:"count,omitempty"`
}

// BucketCount is one non-empty histogram bucket: the inclusive upper
// bound (in output units) and the non-cumulative count it holds.
type BucketCount struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Snapshot gathers every family (func collectors included), the span log,
// and the trace ring into one structured snapshot.
func (r *Registry) Snapshot() Snapshot {
	fams := r.snapshotFamilies()
	out := Snapshot{Metrics: make([]MetricSnapshot, 0, len(fams))}
	for _, f := range fams {
		ms := MetricSnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, s := range f.gather() {
			ss := SampleSnapshot{Value: s.value}
			if len(f.labels) > 0 {
				ss.Labels = make(map[string]string, len(f.labels))
				for i, n := range f.labels {
					if i < len(s.labelValues) {
						ss.Labels[n] = s.labelValues[i]
					}
				}
			}
			if s.hist != nil {
				ss.Value = 0
				ss.Sum = float64(s.hist.sum) * s.hist.scale
				ss.Count = s.hist.count
				for i := 0; i < histBuckets; i++ {
					if c := s.hist.counts[i]; c > 0 {
						ss.Buckets = append(ss.Buckets, BucketCount{LE: s.hist.upperBound(i), Count: c})
					}
				}
			}
			ms.Samples = append(ms.Samples, ss)
		}
		out.Metrics = append(out.Metrics, ms)
	}
	if r.Spans != nil {
		out.Spans = r.Spans.Snapshot()
	}
	if r.Traces != nil {
		out.Traces = r.Traces.Snapshot()
	}
	return out
}

// MarshalJSON encodes the registry as its Snapshot, without indentation,
// so a registry can be handed to json.Marshal as it is (/debug/vars and
// snapsim -stats-json encode an indented Snapshot themselves).
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}
