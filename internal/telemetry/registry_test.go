package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// A gauge is func-backed: its collector reports the value at scrape.
	r.GaugeFunc("test_depth", "depth", nil, func(emit Emit) { emit(nil, 5) })
	for _, m := range r.Snapshot().Metrics {
		if m.Name == "test_depth" && (m.Kind != "gauge" || len(m.Samples) != 1 || m.Samples[0].Value != 5) {
			t.Fatalf("gauge scraped as %+v, want one gauge sample of 5", m)
		}
	}
	// Registration is idempotent: same handle back.
	if r.Counter("test_events_total", "events") != c {
		t.Fatal("re-registering a counter returned a different handle")
	}
	if r.CounterVec("test_labeled_total", "l", "k").With("a") != r.CounterVec("test_labeled_total", "l", "k").With("a") {
		t.Fatal("labeled child not cached")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a histogram did not panic")
		}
	}()
	r.HistogramVec("test_x", "x", 1)
}

// TestHistogramBucketBoundaries pins the power-of-two bucket map at its
// edges: zero/negative, exact powers of two, one past them, and MaxInt64.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{math.MinInt64, 0}, {-1, 0}, {0, 0}, {1, 0},
		{2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1024, 10}, {1025, 11},
		{1 << 62, 62}, {1<<62 + 1, 63}, {math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	// A value in bucket i must satisfy v <= upperBound(i) and (for i>0)
	// v > upperBound(i-1): the "le" boundaries are honest.
	h := &Histogram{scale: 1}
	for _, v := range []int64{1, 2, 3, 4, 1023, 1024, 1025} {
		h.Observe(v)
		s := h.snapshot()
		b := bucketOf(v)
		if float64(v) > s.upperBound(b) {
			t.Errorf("v=%d above its bucket %d upper bound %g", v, b, s.upperBound(b))
		}
		if b > 0 && float64(v) <= s.upperBound(b-1) {
			t.Errorf("v=%d at or below bucket %d's lower boundary", v, b)
		}
	}
}

func TestHistogramSnapshotAndScale(t *testing.T) {
	r := NewRegistry()
	vec := r.HistogramVec("test_wait_seconds", "wait", 1e-9)
	h := vec.With()
	h.Observe(int64(time.Microsecond)) // 1000ns → bucket 10 (le 1024ns)
	h.Observe(int64(time.Microsecond))
	h.Observe(int64(time.Millisecond))
	s := h.snapshot()
	if s.count != 3 {
		t.Fatalf("count = %d, want 3", s.count)
	}
	wantSum := float64(2*time.Microsecond+time.Millisecond) / 1e9
	if got := float64(s.sum) * s.scale; math.Abs(got-wantSum) > 1e-12 {
		t.Fatalf("scaled sum = %g, want %g", got, wantSum)
	}
	// Each reads the raw count and sum (nanoseconds here, unscaled).
	var each [][2]int64
	vec.Each(func(lv []string, count, sum int64) { each = append(each, [2]int64{count, sum}) })
	if raw := int64(2*time.Microsecond + time.Millisecond); len(each) != 1 || each[0] != [2]int64{3, raw} {
		t.Fatalf("Each = %v, want one child with count 3 and sum %d", each, raw)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_wait_seconds histogram",
		`test_wait_seconds_bucket{le="+Inf"} 3`,
		"test_wait_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the 1ms observation's bucket line
	// carries all three observations.
	if !strings.Contains(out, fmt.Sprintf(`test_wait_seconds_bucket{le="%g"} 3`, math.Ldexp(1, bucketOf(int64(time.Millisecond)))*1e-9)) {
		t.Errorf("cumulative bucket line missing:\n%s", out)
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_plain_total", "plain").Add(2)
	r.CounterVec("test_pkts_total", "pkts", "outcome").With("delivered").Add(9)
	r.GaugeFunc("test_func_gauge", "f", []string{"kind"}, func(emit Emit) {
		emit([]string{"a"}, 1.5)
	})
	// An empty family must still emit HELP/TYPE so scrapers can assert
	// the series is wired.
	r.HistogramVec("test_empty_seconds", "empty", 1e-9, "var")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP test_plain_total plain",
		"# TYPE test_plain_total counter",
		"test_plain_total 2",
		`test_pkts_total{outcome="delivered"} 9`,
		`test_func_gauge{kind="a"} 1.5`,
		"# TYPE test_empty_seconds histogram",
		"snap_go_goroutines",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_pkts_total", "pkts", "outcome").With("dropped").Add(3)
	r.HistogramVec("test_lat_seconds", "lat", 1e-9).With().Observe(500)
	r.Spans.Record(Span{Kind: "reconfig", Scenario: "topotm", Duration: time.Millisecond})

	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	found := false
	for _, m := range snap.Metrics {
		if m.Name == "test_pkts_total" {
			found = true
			if len(m.Samples) != 1 || m.Samples[0].Labels["outcome"] != "dropped" || m.Samples[0].Value != 3 {
				t.Fatalf("bad sample: %+v", m.Samples)
			}
		}
		if m.Name == "test_lat_seconds" {
			if len(m.Samples) != 1 || m.Samples[0].Count != 1 || len(m.Samples[0].Buckets) != 1 {
				t.Fatalf("bad histogram sample: %+v", m.Samples)
			}
		}
	}
	if !found {
		t.Fatal("labeled counter missing from snapshot")
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Kind != "reconfig" {
		t.Fatalf("span log missing from snapshot: %+v", snap.Spans)
	}
}

// TestConcurrentWriteWhileScrape hammers every instrument kind from many
// goroutines while the main goroutine scrapes both encodings; run under
// -race this is the registry's memory-model gate. Final totals must be
// exact — no update may be lost to a concurrent scrape.
func TestConcurrentWriteWhileScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_c_total", "c")
	cv := r.CounterVec("test_cv_total", "cv", "k")
	h := r.HistogramVec("test_h_seconds", "h", 1e-9, "var")

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			child := cv.With(fmt.Sprintf("w%d", w%3))
			hist := h.With("var")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				child.Inc()
				hist.Observe(int64(i * 17))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("scrape: %v", err)
			}
			_ = r.Snapshot()
		}
	}

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter lost updates: %d, want %d", got, workers*perWorker)
	}
	var total int64
	for _, k := range []string{"w0", "w1", "w2"} {
		total += cv.With(k).Value()
	}
	if total != workers*perWorker {
		t.Fatalf("labeled counters lost updates: %d, want %d", total, workers*perWorker)
	}
	if s := h.With("var").snapshot(); s.count != workers*perWorker {
		t.Fatalf("histogram lost observations: %d, want %d", s.count, workers*perWorker)
	}
}

// TestInstrumentsAllocFree is the write-side alloc guard: resolved
// handles must observe without allocating, or the instrumented packet
// loop would stop being zero-alloc.
func TestInstrumentsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_c_total", "c")
	h := r.HistogramVec("test_h_seconds", "h", 1e-9).With()
	lc := r.CounterVec("test_cv_total", "cv", "k").With("a")
	lh := r.HistogramVec("test_hv_seconds", "hv", 1e-9, "k").With("a")

	var i int64
	for name, fn := range map[string]func(){
		"Counter.Add":               func() { c.Add(1) },
		"Histogram.Observe":         func() { h.Observe(i * 31) },
		"labeled Counter.Add":       func() { lc.Add(1) },
		"labeled Histogram.Observe": func() { lh.Observe(i * 31) },
		"Sampler miss":              func() { _ = (*Sampler)(nil).Hit() },
	} {
		i = 0
		if allocs := testing.AllocsPerRun(1000, func() { i++; fn() }); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", name, allocs)
		}
	}
}

func TestSpanLogBounded(t *testing.T) {
	l := NewSpanLog(4)
	for i := 0; i < 10; i++ {
		l.Record(Span{Kind: fmt.Sprintf("e%d", i)})
	}
	got := l.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := fmt.Sprintf("e%d", 6+i); s.Kind != want {
			t.Fatalf("span[%d] = %s, want %s (oldest-first eviction)", i, s.Kind, want)
		}
	}
	if l.Total() != 10 {
		t.Fatalf("total = %d, want 10", l.Total())
	}
}

func TestTraceLogRing(t *testing.T) {
	l := NewTraceLog(2)
	for i := 0; i < 3; i++ {
		tr := l.Start(i, int64(i))
		tr.Hop(5, "forward", "", -1)
		tr.Hop(6, "deliver", "", 100+i)
		tr.Finish()
	}
	got := l.Snapshot()
	if len(got) != 2 {
		t.Fatalf("retained %d traces, want 2", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("wrong traces retained: %+v", got)
	}
	if len(got[1].Hops) != 2 || got[1].Hops[1].Outcome != "deliver" || got[1].Hops[1].Egress != 102 {
		t.Fatalf("hops not recorded: %+v", got[1].Hops)
	}
	if got[1].Latency <= 0 {
		t.Fatalf("latency not stamped: %v", got[1].Latency)
	}
	if l.Sampled() != 3 {
		t.Fatalf("sampled = %d, want 3", l.Sampled())
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(4)
	hits := 0
	for i := 0; i < 40; i++ {
		if s.Hit() {
			hits++
		}
	}
	if hits != 10 {
		t.Fatalf("1-in-4 sampler hit %d of 40", hits)
	}
	if NewSampler(0) != nil {
		t.Fatal("NewSampler(0) must disable sampling (nil)")
	}
	one := NewSampler(1)
	for i := 0; i < 5; i++ {
		if !one.Hit() {
			t.Fatal("1-in-1 sampler must always hit")
		}
	}
}
