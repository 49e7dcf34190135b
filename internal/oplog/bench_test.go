package oplog

// Benchmarks for the Log's two hot paths. BenchmarkOplogTruncate is
// capped-oplog maintenance: the steady state of a loaded primary is
// "append a batch, truncate back to the cap". A flat slice would copy
// the entire retained suffix on every truncation (O(cap)); the
// segmented Log clears only the dropped pointer slots (O(dropped)) and
// recycles the segments they empty, and the entries come from a fixed
// pool (entryRing), so a round allocates nothing: the benchmark times
// the log, not the allocation of the entries it holds.
// BenchmarkScanAfterCaughtUp is a caught-up fetcher's getMore, which
// finds its start by galloping back from the tail.
//
// Run with:
//
//	go test ./internal/oplog -run '^$' -bench 'OplogTruncate|ScanAfterCaughtUp' -benchtime 1s -count 3 -benchmem

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
	ring := entryRing{pool: make([]Entry, truncateCap+truncateBatch)}
	now := time.Duration(0)
	fill := func(count int) {
		for i := 0; i < count; i++ {
			now += time.Millisecond
			if err := l.Append(ring.take(l.NextTS(now))); err != nil {
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

// BenchmarkScanAfterCaughtUp times the scan of a fetcher at the tail
// of a 250k-entry log, alternating between caught up (nothing to
// return) and one entry behind, into a reused batch.
func BenchmarkScanAfterCaughtUp(b *testing.B) {
	const entries = 250_000
	l := NewLog()
	ring := entryRing{pool: make([]Entry, entries)}
	for i := 1; i <= entries; i++ {
		if err := l.Append(ring.take(OpTime{int64(i), 1})); err != nil {
			b.Fatal(err)
		}
	}
	positions := [2]OpTime{{entries, 1}, {entries - 1, 1}}
	batch := make([]*Entry, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch = l.ScanAfter(batch[:0], positions[i&1], 1000)
	}
}
