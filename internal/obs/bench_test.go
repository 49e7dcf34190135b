package obs

// Snapshot benchmarks for the observability surface. The lookup
// benchmark's contrast is the lazily built name index versus the O(n)
// scan the accessors used before: OBS_NOINDEX=1 strips the index by
// round-tripping the snapshot through JSON (exactly the shape
// wire-decoded snapshots had, and the pre-index cost for every
// snapshot). Run with and without it and compare:
//
//	go test ./internal/obs -run '^$' -bench BenchmarkSnapshot -count 5

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"
	"time"
)

// benchSnapshot builds a snapshot shaped like a live server's: a few
// hundred labeled instruments across counters, gauges and histograms.
func benchSnapshot(b *testing.B) (Snapshot, []string) {
	b.Helper()
	reg := NewRegistry()
	var names []string
	for i := 0; i < 160; i++ {
		n := Name("cluster.reads", "node", strconv.Itoa(i))
		reg.Counter(n).Inc(uint64(i))
		names = append(names, n)
		g := Name("replstatus.lag_secs", "node", strconv.Itoa(i))
		reg.Gauge(g).Set(int64(i))
		names = append(names, g)
	}
	for i := 0; i < 32; i++ {
		h := reg.Histogram(Name("wire.request_latency", "op", strconv.Itoa(i)))
		for j := 0; j < 100; j++ {
			h.Observe(time.Duration(j) * time.Microsecond)
		}
	}
	snap := reg.Snapshot()
	if os.Getenv("OBS_NOINDEX") == "1" {
		raw, err := snap.JSON()
		if err != nil {
			b.Fatal(err)
		}
		var stripped Snapshot
		if err := json.Unmarshal(raw, &stripped); err != nil {
			b.Fatal(err)
		}
		snap = stripped
	}
	return snap, names
}

// BenchmarkSnapshotLookup measures Get/CounterValue over every
// instrument name — the export and assertion pattern that was O(n^2)
// over the whole snapshot with linear scans.
func BenchmarkSnapshotLookup(b *testing.B) {
	snap, names := benchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := snap.Get(names[i%len(names)]); !ok {
			b.Fatal("instrument missing")
		}
	}
}

// BenchmarkSnapshotPrometheus measures rendering the full exposition
// text — the per-scrape cost of the /metrics endpoint.
func BenchmarkSnapshotPrometheus(b *testing.B) {
	snap, _ := benchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n += len(snap.Prometheus())
	}
	if n == 0 {
		b.Fatal("empty exposition")
	}
}
