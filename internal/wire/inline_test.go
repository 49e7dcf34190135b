package wire

// Tests for the reader-inline executor: which requests the replica-set
// backend lets a connection's reader run itself, and what a serial
// point read costs in allocations once it does.

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// sleeplessConfig is a replica set whose reads never sleep: every
// modeled service time and network delay is off, as in the wire
// benchmarks. Replication stays quick and nothing advances the optime
// on its own.
func sleeplessConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.ReadCost, cfg.WriteCost, cfg.ApplyCost = -1, -1, -1
	cfg.StatusCost, cfg.GetMoreCost = -1, -1
	cfg.CostJitter = -1
	cfg.RTTSameZone, cfg.RTTCrossZoneBase, cfg.RTTCrossZoneSpread = -1, -1, -1
	cfg.RTTJitter = -1
	cfg.ReplIdlePoll = 2 * time.Millisecond
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	return cfg
}

// startSleeplessServer serves a sleepless replica set, so plain reads
// run on the connection's reader.
func startSleeplessServer(t *testing.T, scfg ServerConfig) (*cluster.ReplicaSet, string, func()) {
	t.Helper()
	env := sim.NewRealtimeEnv(1)
	rs := cluster.New(env, sleeplessConfig())
	srv := NewServerWith(env, rs, nil, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return rs, ln.Addr().String(), func() {
		srv.Close()
		env.Shutdown()
	}
}

func TestBackendInlineClassification(t *testing.T) {
	// Batch, filter and count reads are bounded only by the request, so
	// they stay off the reader even on a sleepless deployment.
	others := []string{OpFindMany, OpFind, OpCount, OpTopology, OpPing, OpStatus,
		OpWriteBatch, OpOplogTail, OpMetrics, OpMetricsPush, OpTrace, OpTracePush, OpCurrentOp}
	modeled := map[string]func(*cluster.Config){
		"sleepless":          func(*cluster.Config) {},
		"ReadCost":           func(c *cluster.Config) { c.ReadCost = 300 * time.Millisecond },
		"WriteCost":          func(c *cluster.Config) { c.WriteCost = 5 * time.Millisecond },
		"ApplyCost":          func(c *cluster.Config) { c.ApplyCost = time.Millisecond },
		"StatusCost":         func(c *cluster.Config) { c.StatusCost = time.Millisecond },
		"GetMoreCost":        func(c *cluster.Config) { c.GetMoreCost = time.Millisecond },
		"RTTSameZone":        func(c *cluster.Config) { c.RTTSameZone = 100 * time.Microsecond },
		"RTTCrossZoneBase":   func(c *cluster.Config) { c.RTTCrossZoneBase = 200 * time.Microsecond },
		"RTTCrossZoneSpread": func(c *cluster.Config) { c.RTTCrossZoneSpread = 300 * time.Microsecond },
	}
	for name, tweak := range modeled {
		t.Run(name, func(t *testing.T) {
			env := sim.NewRealtimeEnv(1)
			defer env.Shutdown()
			cfg := sleeplessConfig()
			tweak(&cfg)
			b := newRSBackend(cluster.New(env, cfg))
			free := name == "sleepless"
			if got := b.Inline(&Request{Op: OpFindByID, Node: 1}); got != free {
				t.Errorf("plain find_by_id: Inline = %t, want %t", got, free)
			}
			cases := map[string]Request{
				"AfterSecs":    {Op: OpFindByID, Node: 1, AfterSecs: 7},
				"AfterInc":     {Op: OpFindByID, Node: 1, AfterInc: 1},
				"linearizable": {Op: OpFindByID, Node: 1, ReadConcern: RCLinearizable},
			}
			for why, req := range cases {
				if b.Inline(&req) {
					t.Errorf("find_by_id with %s: Inline = true, want false", why)
				}
			}
			for _, op := range others {
				if b.Inline(&Request{Op: op}) {
					t.Errorf("%s: Inline = true, want false", op)
				}
			}
		})
	}
}

// Deterministic half of the wire benchmark gate: one serial FindByID
// round trip over loopback (client and server together) costs no more
// allocations or bytes than the goroutine-per-request server did,
// 16 allocs and about 2.4 KB per op.
const (
	maxRoundTripAllocs = 16
	maxRoundTripBytes  = 2432
)

func TestSerialFindByIDAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	rs, addr, stop := startSleeplessServer(t, ServerConfig{})
	defer stop()
	const docs = 64
	ids := make([]string, docs)
	err := rs.Bootstrap(func(s *storage.Store) error {
		c := s.C("bench")
		for i := range ids {
			ids[i] = fmt.Sprintf("doc%05d", i)
			if err := c.Insert(storage.D{"_id": ids[i], "val": int64(i), "pad": "abcdefghijklmnopqrstuvwxyz"}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	i := 0
	read := func() {
		id := ids[i%docs]
		i++
		res, err := cl.ExecRead(nil, 0, func(v cluster.ReadView) (any, error) {
			d, ok := v.FindByID("bench", id)
			if !ok {
				return nil, fmt.Errorf("%s missing", id)
			}
			return d, nil
		})
		if err != nil || res == nil {
			t.Fatalf("read %s: %v, %v", id, res, err)
		}
	}
	allocs := testing.AllocsPerRun(500, read)
	// Bytes the same way AllocsPerRun counts allocations: one P, a warm
	// path, the process-wide delta over many runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for j := 0; j < runs; j++ {
		read()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("serial FindByID round trip: %.1f allocs/op, %d B/op", allocs, bytes)
	if allocs > maxRoundTripAllocs {
		t.Errorf("%.1f allocs per round trip, want <= %d", allocs, maxRoundTripAllocs)
	}
	if bytes > maxRoundTripBytes {
		t.Errorf("%d bytes per round trip, want <= %d", bytes, maxRoundTripBytes)
	}
}
