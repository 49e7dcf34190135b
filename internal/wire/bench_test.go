package wire

// Wire round-trip benchmarks over a real TCP loopback socket. The
// PR 3 contrast: the serial read→dispatch→write connection loop (and
// the client's one-connection-per-caller pool) versus per-connection
// request pipelining with id-matched responses.
//
//	go test ./internal/wire -bench BenchmarkWire -benchtime 1x -count 3 -benchmem

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"decongestant/internal/cluster"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

const (
	wireBenchDocs   = 1024
	wireBenchGroups = 64 // "orders" docs per w_id group = wireBenchDocs/wireBenchGroups
)

// benchDial opens the client the benchmarks measure.
func benchDial(b *testing.B, addr string) *Client {
	b.Helper()
	cl, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	return cl
}

func startBenchServer(b *testing.B) (string, func()) {
	b.Helper()
	env := sim.NewRealtimeEnv(1)
	cfg := cluster.Config{
		Nodes:    3,
		CPUSlots: 8,

		ReadCost:    -1,
		WriteCost:   -1,
		ApplyCost:   -1,
		StatusCost:  -1,
		GetMoreCost: -1,
		CostJitter:  -1,

		RTTSameZone:        -1,
		RTTCrossZoneBase:   -1,
		RTTCrossZoneSpread: -1,
		RTTJitter:          -1,
	}
	rs := cluster.New(env, cfg)
	err := rs.Bootstrap(func(s *storage.Store) error {
		c := s.C("bench")
		for i := 0; i < wireBenchDocs; i++ {
			if err := c.Insert(storage.D{
				"_id": fmt.Sprintf("doc%05d", i),
				"val": int64(i),
				"pad": "abcdefghijklmnopqrstuvwxyz",
			}); err != nil {
				return err
			}
		}
		// "orders" carries TPC-C-like rows (mostly small integer columns
		// plus short strings) behind a w_id index: the serialization-
		// bound find path the wire benchmarks measure.
		o := s.C("orders")
		if _, err := o.CreateIndex("w_id", false, "w_id"); err != nil {
			return err
		}
		for i := 0; i < wireBenchDocs; i++ {
			if err := o.Insert(storage.D{
				"_id":       fmt.Sprintf("ord%05d", i),
				"w_id":      int64(i % wireBenchGroups),
				"d_id":      int64(i % 10),
				"c_id":      int64(i % 30),
				"carrier":   int64(i % 10),
				"ol_cnt":    int64(5 + i%10),
				"all_local": int64(1),
				"qty":       int64(i % 100),
				"ytd":       int64(i % 50),
				"order_cnt": int64(i % 20),
				"remote":    int64(i % 2),
				"entry_d":   int64(1234500000 + i),
				"amount":    3.14,
				"item":      fmt.Sprintf("item-%04d", i%wireBenchDocs),
				"dist":      "abcdefghijklmnopqrstuvwx",
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(env, rs, nil)
	ln, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		b.Fatal(lerr)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), func() {
		srv.Close()
		env.Shutdown()
	}
}

// BenchmarkWireConcurrentPointReads issues concurrent single-document
// reads from many goroutines through one Client. Round-trips/sec is
// the PR 3 wire-layer headline.
func BenchmarkWireConcurrentPointReads(b *testing.B) {
	addr, stop := startBenchServer(b)
	defer stop()
	cl := benchDial(b, addr)
	defer cl.Close()
	var seed atomic.Int64
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := seed.Add(1)
		i := int(n * 7919)
		for pb.Next() {
			i++
			benchPointRead(b, cl, i)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rt/s")
}

// BenchmarkWireSerialPointReads issues single-document reads one at a
// time from one goroutine: the lone caller's round trip, which pays one
// write syscall each way and never waits for a burst.
func BenchmarkWireSerialPointReads(b *testing.B) {
	addr, stop := startBenchServer(b)
	defer stop()
	cl := benchDial(b, addr)
	defer cl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPointRead(b, cl, i)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rt/s")
}

// benchPointRead reads benchmark document i through cl.
func benchPointRead(b *testing.B, cl *Client, i int) {
	id := fmt.Sprintf("doc%05d", i%wireBenchDocs)
	res, err := cl.ExecRead(nil, 0, func(v cluster.ReadView) (any, error) {
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

// BenchmarkWireFindQuery round-trips indexed find queries returning 16
// nested documents each — the serialization-bound path where the
// codec's encode/decode cost dominates the loopback round trip.
func BenchmarkWireFindQuery(b *testing.B) {
	addr, stop := startBenchServer(b)
	defer stop()
	cl := benchDial(b, addr)
	defer cl.Close()
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
			res, err := cl.ExecRead(nil, 0, func(v cluster.ReadView) (any, error) {
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

// BenchmarkWireFindMany round-trips 16-id batch lookups of the nested
// order documents.
func BenchmarkWireFindMany(b *testing.B) {
	addr, stop := startBenchServer(b)
	defer stop()
	cl := benchDial(b, addr)
	defer cl.Close()
	const batch = 16
	var seed atomic.Int64
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := seed.Add(1)
		i := int(n * 7919)
		ids := make([]string, batch)
		for pb.Next() {
			i++
			for j := range ids {
				ids[j] = fmt.Sprintf("ord%05d", (i*batch+j)%wireBenchDocs)
			}
			res, err := cl.ExecRead(nil, 0, func(v cluster.ReadView) (any, error) {
				docs := v.FindManyByID("orders", ids)
				if len(docs) != batch {
					return nil, fmt.Errorf("wire bench: batch returned %d docs", len(docs))
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
