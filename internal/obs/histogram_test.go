package obs

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if st := h.Stats(); st != (HistStats{}) {
		t.Fatalf("empty histogram stats %+v, want all zero", st)
	}
	h.Observe(10 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	st := h.Stats()
	if st.Count != 3 {
		t.Fatalf("Count=%d", st.Count)
	}
	if st.Min != 10*time.Millisecond || st.Max != 30*time.Millisecond {
		t.Fatalf("min/max = %v/%v", st.Min, st.Max)
	}
	if st.Mean != 20*time.Millisecond || st.Sum != 60*time.Millisecond {
		t.Fatalf("Mean=%v Sum=%v", st.Mean, st.Sum)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5 * time.Millisecond)
	if st := h.Stats(); st.Count != 1 || st.Min != 0 || st.Max != 0 {
		t.Fatalf("negative not clamped to 0: %+v", st)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	var exact []time.Duration
	for i := 0; i < 100000; i++ {
		v := time.Duration(rng.Intn(100_000_000)) // up to 100ms
		h.Observe(v)
		exact = append(exact, v)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	st := h.Stats()
	for _, c := range []struct {
		q   float64
		got time.Duration
	}{{0.5, st.P50}, {0.8, st.P80}, {0.99, st.P99}} {
		want := exact[int(c.q*float64(len(exact)))-1]
		relErr := float64(c.got-want) / float64(want)
		if relErr < -0.001 || relErr > 0.04 {
			t.Errorf("P%.0f: got %v want %v (rel err %.3f)", c.q*100, c.got, want, relErr)
		}
	}
}

func TestHistogramPercentileNeverBelowRecordedShare(t *testing.T) {
	// Property: the bucketed percentile is >= the exact q-quantile
	// (bucket upper bounds round up), and the 100th is the maximum.
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		vals := make([]time.Duration, len(raw))
		for i, r := range raw {
			vals[i] = time.Duration(r)
			h.Observe(vals[i])
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		for _, q := range []float64{0.5, 0.8, 1.0} {
			if h.percentile(q) < PercentileOf(vals, q) {
				return false
			}
		}
		return h.percentile(1.0) == h.max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 50; i++ {
		a.Observe(time.Duration(i) * time.Millisecond)
	}
	for i := 51; i <= 100; i++ {
		b.Observe(time.Duration(i) * time.Millisecond)
	}
	a.Merge(b)
	a.Merge(NewHistogram()) // an empty histogram changes nothing
	st := a.Stats()
	if st.Count != 100 {
		t.Fatalf("Count=%d", st.Count)
	}
	if st.Max != 100*time.Millisecond || st.Min != time.Millisecond {
		t.Fatalf("min/max %v/%v", st.Min, st.Max)
	}
	if st.P50 < 49*time.Millisecond || st.P50 > 53*time.Millisecond {
		t.Fatalf("P50=%v", st.P50)
	}
	if bs := b.Stats(); bs.Count != 50 {
		t.Fatalf("merge changed its source: Count=%d", bs.Count)
	}
}

func TestObserveZeroAllocs(t *testing.T) {
	h := NewRegistry().Histogram("x")
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Millisecond) }); allocs != 0 {
		t.Fatalf("Observe allocates %.1f/op, want 0", allocs)
	}
}

func TestPercentileOfExact(t *testing.T) {
	s := []time.Duration{5, 1, 4, 2, 3}
	if got := PercentileOf(s, 0.5); got != 3 {
		t.Fatalf("P50=%v", got)
	}
	if got := PercentileOf(s, 0.8); got != 4 {
		t.Fatalf("P80=%v", got)
	}
	if got := PercentileOf(s, 1.0); got != 5 {
		t.Fatalf("P100=%v", got)
	}
	if got := PercentileOf(s, 0); got != 1 {
		t.Fatalf("P0=%v", got)
	}
	if got := PercentileOf(nil, 0.5); got != 0 {
		t.Fatalf("empty=%v", got)
	}
	// Input must not be mutated.
	if s[0] != 5 {
		t.Fatal("PercentileOf sorted the caller's slice")
	}
}

func TestFormatDuration(t *testing.T) {
	if got := formatDuration(1500 * time.Microsecond); got != "1.50ms" {
		t.Fatalf("got %q", got)
	}
}
