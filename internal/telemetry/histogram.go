package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the bucket count of every histogram: bucket i holds
// observations v with 2^(i-1) < v <= 2^i (bucket 0 holds v <= 1, the
// final bucket tops out at 2^63-1 = MaxInt64, so there is no overflow
// bucket to track separately — +Inf is emitted with the same cumulative
// count as the last bucket).
const histBuckets = 64

// Histogram counts observations into power-of-two buckets. Observe is
// allocation-free and lock-free: one atomic add on the bucket, one on the
// sum, so the counts stay exact whatever the writers. Every histogram in
// this codebase has one writer at a time (a variable's lock wait is
// observed under its owner's lock, compile phases by the controller), so
// there is no shard to spread them over. The zero value is NOT ready —
// histograms come from a Registry (which fixes the output scale).
type Histogram struct {
	scale  float64
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
}

// bucketOf maps an observation to its bucket index: bits.Len64(v-1), so
// v in (2^(i-1), 2^i] lands in bucket i and v <= 1 (including zero and
// negatives) in bucket 0.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records one value (raw units; the registry's scale converts on
// output — duration histograms observe nanoseconds and export seconds).
func (h *Histogram) Observe(v int64) {
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// histSnapshot is a point-in-time read of a histogram.
type histSnapshot struct {
	counts [histBuckets]int64
	sum    int64
	count  int64
	scale  float64
}

func (h *Histogram) snapshot() histSnapshot {
	out := histSnapshot{scale: h.scale, sum: h.sum.Load()}
	for b := range h.counts {
		out.counts[b] = h.counts[b].Load()
		out.count += out.counts[b]
	}
	return out
}

// upperBound is bucket i's inclusive upper bound in output units.
func (s *histSnapshot) upperBound(i int) float64 {
	return math.Ldexp(1, i) * s.scale // 2^i * scale
}
