package oplog

// Benchmark for capped-oplog maintenance: the steady state of a loaded
// primary is "append a batch, truncate back to the cap". A flat slice
// would copy the entire retained suffix on every truncation (O(cap));
// the segmented Log zeroes only the dropped slots (O(dropped)) and
// recycles the segments they empty, so a round allocates nothing.
//
// Run with:
//
//	go test ./internal/oplog -run '^$' -bench BenchmarkOplogTruncate -benchtime 1s -count 3 -benchmem

import (
	"testing"
	"time"
)

// BenchmarkOplogTruncate models one maintenance round at a capped
// primary oplog: append truncateBatch entries at the tail, then cut
// back to truncateCap. Throughput is reported in maintained entries/s;
// the steady state is 0 B/op.
func BenchmarkOplogTruncate(b *testing.B) {
	const (
		truncateCap   = 100_000
		truncateBatch = 1_000
	)
	l := NewLog()
	now := time.Duration(0)
	fill := func(count int) {
		for i := 0; i < count; i++ {
			now += time.Millisecond
			ts := l.NextTS(now)
			if err := l.Append(NewNoop(ts)); err != nil {
				b.Fatal(err)
			}
		}
	}
	round := func() {
		fill(truncateBatch)
		l.TruncateToLast(truncateCap)
	}
	fill(truncateCap)
	// The first rounds fill the log's spare segments. segLen rounds take
	// the head through every offset it reaches within a segment, so the
	// timed rounds run in the steady state.
	for i := 0; i < segLen; i++ {
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if l.Len() != truncateCap {
		b.Fatalf("log length %d, want %d", l.Len(), truncateCap)
	}
	b.ReportMetric(float64(b.N*truncateBatch)/b.Elapsed().Seconds(), "entries/s")
}
