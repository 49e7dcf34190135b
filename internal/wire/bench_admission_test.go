package wire

// Admission-control overhead benchmark: the contrast is the plain
// server (no read deadlines, no inflight accounting, no shed checks)
// versus the admission-enabled server with every gate armed but none
// tripping — the steady-state cost of observability and control on the
// hot read path.
//
// WIRE_ADMISSION=off pins the plain construction path; the default run
// arms admission. Run both and compare:
//
//	WIRE_ADMISSION=off go test ./internal/wire -run '^$' -bench BenchmarkWireAdmission -count 5 -benchmem
//	go test ./internal/wire -run '^$' -bench BenchmarkWireAdmission -count 5 -benchmem

import (
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

func startBenchServerAdmission(b *testing.B) (string, func()) {
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
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	scfg := ServerConfig{
		IdleTimeout:        30 * time.Second,
		MaxConns:           1024,
		MaxInflightPerConn: 256,
		ShedInflight:       4096,
		SlowOpThreshold:    time.Second,
	}
	if os.Getenv("WIRE_ADMISSION") == "off" {
		scfg = ServerConfig{}
	}
	srv := NewServerWith(env, rs, nil, scfg)
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

// BenchmarkWireAdmissionPointReads issues concurrent point reads with
// every admission gate armed (deadline per frame, per-conn semaphore,
// shed check, slow-op clock) but no gate tripping.
func BenchmarkWireAdmissionPointReads(b *testing.B) {
	addr, stop := startBenchServerAdmission(b)
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
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rt/s")
}
