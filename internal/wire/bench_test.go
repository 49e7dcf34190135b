package wire

// Wire round-trip benchmarks over a real TCP loopback socket: many
// callers pipelining id-matched requests on one connection, and a lone
// serial caller.
//
//	go test ./internal/wire -bench BenchmarkWire -benchtime 2s -count 3 -benchmem

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
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
func benchDial(tb testing.TB, addr string) *Client {
	tb.Helper()
	cl, err := Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	return cl
}

func startBenchServer(tb testing.TB) (string, func()) {
	tb.Helper()
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
		tb.Fatal(err)
	}
	srv := NewServer(env, rs, nil)
	ln, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		tb.Fatal(lerr)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), func() {
		srv.Close()
		env.Shutdown()
	}
}

// BenchmarkWireConcurrentPointReads issues concurrent single-document
// reads from many goroutines through one Client. Round-trips/sec is
// the wire layer's headline; TestConcurrentWireReadAllocs holds its
// allocs/op.
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
			if err := pointRead(cl, i); err != nil {
				b.Fatal(err)
			}
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
		if err := pointRead(cl, i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rt/s")
}

// pointRead reads benchmark document i through cl.
func pointRead(cl *Client, i int) error {
	id := fmt.Sprintf("doc%05d", i%wireBenchDocs)
	res, err := cl.ExecRead(nil, 0, func(v cluster.ReadView) (any, error) {
		d, ok := v.FindByID("bench", id)
		if !ok {
			return nil, fmt.Errorf("wire bench: %s missing", id)
		}
		return d, nil
	})
	if err == nil && res == nil {
		err = errors.New("nil doc")
	}
	return err
}

// findQuery round-trips the indexed find of order group i through cl.
func findQuery(cl *Client, i int) error {
	w := int64(i % wireBenchGroups)
	res, err := cl.ExecRead(nil, 0, func(v cluster.ReadView) (any, error) {
		docs := v.Find("orders", storage.Filter{"w_id": storage.Eq(w)}, 0)
		if len(docs) != wireBenchDocs/wireBenchGroups {
			return nil, fmt.Errorf("wire bench: w_id %d returned %d docs", w, len(docs))
		}
		return docs, nil
	})
	if err == nil && res == nil {
		err = errors.New("nil docs")
	}
	return err
}

// BenchmarkWireFindQuery round-trips indexed find queries returning 16
// nested documents each — the serialization-bound path where the
// codec's encode/decode cost dominates the loopback round trip.
// TestConcurrentWireReadAllocs holds its allocs/op.
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
			if err := findQuery(cl, i); err != nil {
				b.Fatal(err)
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

// Allocation ceilings for the concurrent wire benchmarks, as allocs/op
// counted the way the benchmarks count them (the process-wide malloc
// delta over the operations, truncated). Both were measured at 2 Ps
// with 16 callers: 7 per point read, 163 per 16-document find query
// (64 document maps and 64 value boxes on the client, one copy of the
// 16 documents, and the rest of the round trip). Neither end allocates
// a Response per request: the server's reader refills one per
// connection and the client's demux decodes into pooled ones. Nor
// does the server allocate a read's view (a node recycles them) or,
// for a point read, its collection name and id (connDecoder).
const (
	maxConcurrentPointReadAllocs = 7
	maxFindQueryAllocs           = 163
)

// concurrentAllocs runs op from callers goroutines, perCaller times
// each, through one client, and returns the process-wide allocations
// per op after one warm-up round.
func concurrentAllocs(t *testing.T, callers, perCaller int, op func(i int) error) float64 {
	t.Helper()
	round := func() {
		var wg sync.WaitGroup
		errs := make(chan error, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perCaller; i++ {
					if err := op(c*7919 + i); err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	round()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(callers*perCaller)
}

// TestConcurrentWireReadAllocs holds BenchmarkWireConcurrentPointReads
// and BenchmarkWireFindQuery at their measured allocs/op.
func TestConcurrentWireReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	addr, stop := startBenchServer(t)
	defer stop()
	cl := benchDial(t, addr)
	defer cl.Close()
	const callers = 16
	for _, c := range []struct {
		name      string
		op        func(cl *Client, i int) error
		perCaller int
		max       uint64
	}{
		{"point read", pointRead, 500, maxConcurrentPointReadAllocs},
		{"find query", findQuery, 100, maxFindQueryAllocs},
	} {
		allocs := concurrentAllocs(t, callers, c.perCaller, func(i int) error { return c.op(cl, i) })
		t.Logf("%s: %.2f allocs/op", c.name, allocs)
		if uint64(allocs) > c.max { // truncated, as the benchmarks report it
			t.Errorf("%s: %.2f allocs/op, want < %d", c.name, allocs, c.max+1)
		}
	}
}
