// Sample summaries, the host record and the time box every phase runs in.
package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// row is one reported metric: Value is what is reported and compared, Stat
// says which statistic of the samples it is, and the rest says how far to
// trust it.
type row struct {
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Stat   string  `json:"stat"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Valid is set on parallel rows only: false when the host has fewer
	// cores than the 4 the ROADMAP's keep-or-delete rule is stated for. The
	// row is still reported.
	Valid *bool  `json:"valid,omitempty"`
	Note  string `json:"note,omitempty"`
	// Samples are the raw values in the order measured, kept when there are
	// few enough to read.
	Samples []float64 `json:"samples,omitempty"`
}

// quantile interpolates linearly between order statistics of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func summarize(unit string, xs []float64) row {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return row{Unit: unit}
	}
	r := row{Unit: unit, Stat: "median", Median: quantile(s, 0.5), Min: s[0], Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
	r.Value = r.Median
	if len(xs) <= 256 {
		r.Samples = xs
	}
	return r
}

// fastest is summarize for samples that are independent repetitions of the
// same work: the value is the fastest one. Contention on a shared host only
// ever adds time, in bursts that last tens of seconds, so a whole run's median
// moves with them (±9 % between runs while sizing) and its fastest repetition
// much less (±3 %). Samples whose cost depends on what ran before (edits) do
// not qualify: see lowerQuartile.
func fastest(unit string, xs []float64) row {
	r := summarize(unit, xs)
	r.Value, r.Stat = r.Min, "min"
	return r
}

// lowerQuartile is summarize for operations whose cost depends on how many ran
// before (edits: the first on a fresh lineage is the cheapest by a third, and
// the caches grow with every one), so that the fastest is not representative,
// but which contention still only ever slows: the value is the first quartile.
// Over two sets of ten runs the median of the edits spread 8–28 % on
// fwd-campus and 5–20 % on fwd-wan, because a burst that covers half the
// edits of a run moves it; their first quartile spread 6–13 % and 4–9 %.
func lowerQuartile(unit string, xs []float64) row {
	r := summarize(unit, xs)
	r.Value, r.Stat = r.Q1, "q1"
	return r
}

// exact is a row for a count or a single derived value.
func exact(unit string, v float64) row {
	return row{Unit: unit, Value: v, Stat: "exact", Median: v, Min: v, Q1: v, Q3: v, N: 1}
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timebox calls fn until budget has elapsed, at least lo and at most hi
// times. The counts in a phase are therefore set by the clock, the work in
// one call by the workload.
func timebox(budget time.Duration, lo, hi int, fn func(i int) error) error {
	start := time.Now()
	for i := 0; i < hi; i++ {
		if i >= lo && time.Since(start) >= budget {
			break
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// hostInfo is recorded beside every result so that a contaminated or
// under-provisioned run can be recognised afterwards. Nothing acts on it.
type hostInfo struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"numcpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	ParWorkers int     `json:"par_workers"`
	LoadStart  float64 `json:"loadavg1_start"`
	LoadEnd    float64 `json:"loadavg1_end"`
}

// commit is stamped by run.sh (-ldflags -X).
var commit = "unknown"

func readHost() hostInfo {
	return hostInfo{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ParWorkers: parWorkers(),
		LoadStart:  loadAvg1(),
	}
}

// parWorkers is P of the parallel rows: never more than the cores present.
func parWorkers() int { return min(runtime.NumCPU(), 4) }

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// loadAvg1 is the 1-minute load average, or -1 where the host has none.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}
