package wire

// Tracing-overhead benchmarks. The contract they measure: with
// sampling off (the default) the tracing plumbing costs nothing on the
// hot path — the sampling decision is one atomic load and the codec
// emits zero extra bytes — and at the production-realistic 1% rate the
// overhead stays in the noise.
//
// The sampling-off half is held by tests:
// TestEncodeRequestSamplingOffZeroAllocs and
// TestConcurrentWireReadAllocs pin the untraced benchmarks'
// allocations. The Traced variants here measure the sampled rate
// against the untraced BenchmarkWireConcurrentPointReads and
// BenchmarkWireFindQuery: TRACE_SAMPLE sets the rate (default 0.01).

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"testing"

	"decongestant/internal/cluster"
	"decongestant/internal/oplog"
	"decongestant/internal/storage"
)

// traceSampleRate reads the TRACE_SAMPLE env knob (default 1%).
func traceSampleRate(b *testing.B) float64 {
	b.Helper()
	s := os.Getenv("TRACE_SAMPLE")
	if s == "" {
		return 0.01
	}
	rate, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("bad TRACE_SAMPLE %q: %v", s, err)
	}
	return rate
}

// BenchmarkWireTracedPointReads is BenchmarkWireConcurrentPointReads
// on the traced read path: every read flips the sampling coin via
// ExecReadMeta (as the driver does), and sampled requests carry the
// trace context over the wire so the server records admission,
// dispatch and node exec spans for them.
func BenchmarkWireTracedPointReads(b *testing.B) {
	addr, stop := startBenchServer(b)
	defer stop()
	cl := benchDial(b, addr)
	defer cl.Close()
	cl.SetTraceSampling(traceSampleRate(b))
	tr := cl.Tracer()
	var seed atomic.Int64
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := seed.Add(1)
		i := int(n * 7919)
		for pb.Next() {
			i++
			id := fmt.Sprintf("doc%05d", i%wireBenchDocs)
			res, _, err := cl.ExecReadMeta(nil, 0, oplog.Zero, cluster.ReadMeta{Ctx: tr.StartTrace()}, func(v cluster.ReadView) (any, error) {
				d, ok := v.FindByID("bench", id)
				if !ok {
					return nil, fmt.Errorf("wire bench: %s missing", id)
				}
				return d, nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if res == nil {
				b.Fatal("nil doc")
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rt/s")
}

// BenchmarkWireTracedFindQuery is BenchmarkWireFindQuery (the
// serialization-bound find path) with trace sampling enabled.
func BenchmarkWireTracedFindQuery(b *testing.B) {
	addr, stop := startBenchServer(b)
	defer stop()
	cl := benchDial(b, addr)
	defer cl.Close()
	cl.SetTraceSampling(traceSampleRate(b))
	tr := cl.Tracer()
	var seed atomic.Int64
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := seed.Add(1)
		i := int(n * 7919)
		for pb.Next() {
			i++
			w := int64(i % wireBenchGroups)
			res, _, err := cl.ExecReadMeta(nil, 0, oplog.Zero, cluster.ReadMeta{Ctx: tr.StartTrace()}, func(v cluster.ReadView) (any, error) {
				docs := v.Find("orders", storage.Filter{"w_id": storage.Eq(w)}, 0)
				if len(docs) != wireBenchDocs/wireBenchGroups {
					return nil, fmt.Errorf("wire bench: w_id %d returned %d docs", w, len(docs))
				}
				return docs, nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if res == nil {
				b.Fatal("nil docs")
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rt/s")
}
