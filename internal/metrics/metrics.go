// Package metrics provides the measurement machinery used by the
// experiment harness and the Read Balancer: log-bucketed latency
// histograms with percentile queries, time-bucketed series (throughput
// + latency percentiles per window), and exact small-sample percentile
// helpers matching the paper's P50/P80 reporting.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// subBuckets is the linear resolution inside each power-of-two bucket;
// 64 gives ~1.6% relative error, ample for latency reporting.
const subBuckets = 64

// Histogram is a log-bucketed histogram of durations, HDR-style:
// geometric octaves each split into linear sub-buckets. The zero value
// is not usable; call NewHistogram.
type Histogram struct {
	counts []uint64
	total  uint64
	min    time.Duration
	max    time.Duration
	sum    time.Duration
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, 64*subBuckets), min: math.MaxInt64}
}

func bucketIndex(v time.Duration) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // position of the top bit
	shift := exp - (bits.Len64(subBuckets) - 1)
	sub := int(u >> uint(shift) & (subBuckets - 1))
	octave := shift + 1
	return octave*subBuckets + sub
}

func bucketUpperBound(idx int) time.Duration {
	octave := idx / subBuckets
	sub := idx % subBuckets
	if octave == 0 {
		return time.Duration(sub)
	}
	shift := octave - 1
	base := uint64(subBuckets) << uint(shift)
	return time.Duration(base + uint64(sub+1)<<uint(shift) - 1)
}

// Record adds one observation.
func (h *Histogram) Record(v time.Duration) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all observations; Mean their average.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Min and Max return the observed extremes (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}
func (h *Histogram) Max() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the value at or below which q (0..1] of
// observations fall, to bucket resolution. Returns 0 when empty.
func (h *Histogram) Percentile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			ub := bucketUpperBound(i)
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// Merge adds all of other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.total > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// PercentileOf computes an exact percentile of a sample, matching the
// paper's "P50 of the recorded latency list" usage. q in (0,1].
func PercentileOf(sample []time.Duration, q float64) time.Duration {
	if len(sample) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// WindowStat summarizes one time bucket of a Series.
type WindowStat struct {
	Start      time.Duration
	Count      uint64
	Throughput float64 // per second
	P50        time.Duration
	P80        time.Duration
	P99        time.Duration
	Mean       time.Duration
}

// Series aggregates observations into fixed-width time buckets —
// the "per 10-second period" reporting used throughout the paper's
// figures.
type Series struct {
	width   time.Duration
	buckets []*Histogram
}

// NewSeries creates a series with the given bucket width.
func NewSeries(width time.Duration) *Series {
	if width <= 0 {
		panic("metrics: series width must be positive")
	}
	return &Series{width: width}
}

// Observe records an observation that completed at time `at`.
func (s *Series) Observe(at time.Duration, v time.Duration) {
	idx := int(at / s.width)
	if idx < 0 {
		idx = 0
	}
	for len(s.buckets) <= idx {
		s.buckets = append(s.buckets, nil)
	}
	if s.buckets[idx] == nil {
		s.buckets[idx] = NewHistogram()
	}
	s.buckets[idx].Record(v)
}

// Snapshot returns one WindowStat per bucket from the start through
// the last observed bucket; empty buckets have zero counts.
func (s *Series) Snapshot() []WindowStat {
	out := make([]WindowStat, len(s.buckets))
	for i, h := range s.buckets {
		w := WindowStat{Start: time.Duration(i) * s.width}
		if h != nil {
			w.Count = h.Count()
			w.Throughput = float64(h.Count()) / s.width.Seconds()
			w.P50 = h.Percentile(0.50)
			w.P80 = h.Percentile(0.80)
			w.P99 = h.Percentile(0.99)
			w.Mean = h.Mean()
		}
		out[i] = w
	}
	return out
}

// Aggregate merges all buckets whose start time is >= from into a
// single histogram — used for steady-state numbers that exclude
// warm-up.
func (s *Series) Aggregate(from time.Duration) *Histogram {
	agg := NewHistogram()
	for i, h := range s.buckets {
		if h == nil || time.Duration(i)*s.width < from {
			continue
		}
		agg.Merge(h)
	}
	return agg
}

// Counter is a monotone event counter, safe for concurrent use: it is
// incremented from concurrently running procs under the real-time
// environment. For windowed rates and labeled counters use the obs
// package's registry instruments.
type Counter struct {
	total atomic.Uint64
}

// Inc adds n events.
func (c *Counter) Inc(n uint64) { c.total.Add(n) }

// Total returns the count so far.
func (c *Counter) Total() uint64 { return c.total.Load() }

// FormatDuration renders durations the way the experiment tables print
// them: milliseconds with two decimals.
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}
