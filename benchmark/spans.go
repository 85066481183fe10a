// The span recorder of the traced pass. It lives in the benchmark: a span is
// recorded around each call into a module's public functions, from outside.
// Spans inside the engine or the compiler are a later change.
package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call into a layer. Op groups the spans of one operation (one
// sampled packet, one cold start, one edit, one shift); Parent is the index
// of the span that caused this one, -1 for the operation's root.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans and counts in memory until the run ends. Only the
// traced pass has one.
type recorder struct {
	epoch  time.Time
	spans  []span
	counts map[string]int64
	nextOp int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: map[string]int64{}}
}

// op opens a root span for a new operation and returns its index.
func (r *recorder) op(name string) int {
	r.nextOp++
	r.spans = append(r.spans, span{Name: name, Op: r.nextOp, Parent: -1, StartNs: time.Since(r.epoch).Nanoseconds()})
	return len(r.spans) - 1
}

// begin opens a child span of parent.
func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{Name: name, Op: r.spans[parent].Op, Parent: parent, StartNs: time.Since(r.epoch).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	r.spans[id].EndNs = time.Since(r.epoch).Nanoseconds()
}

// count adds to a counter recorded at the same boundary as the spans.
func (r *recorder) count(name string, n int64) {
	r.counts[name] += n
}

// call records fn as a child span of parent and returns how long it took.
func (r *recorder) call(name string, parent int, fn func() error) (time.Duration, error) {
	id := r.begin(name, parent)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	r.end(id)
	return d, err
}

// selfTime is a span's duration minus its children's.
type selfTime struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (r *recorder) selfTimes() []selfTime {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	byName := map[string]*selfTime{}
	for i, s := range r.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.EndNs - s.StartNs
		st.Calls++
		st.TotalMs += float64(d) / 1e6
		st.SelfMs += float64(d-child[i]) / 1e6
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans, counts and self times of one workload.
func (r *recorder) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string           `json:"workload"`
		Spans    []span           `json:"spans"`
		Counts   map[string]int64 `json:"counts"`
		Self     []selfTime       `json:"self_times"`
	}{workload, r.spans, r.counts, r.selfTimes()}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), b, 0o644)
}
