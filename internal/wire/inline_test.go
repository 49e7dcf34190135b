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
// and w:1 writes run on the connection's reader.
func startSleeplessServer(t *testing.T, scfg ServerConfig) (*cluster.ReplicaSet, string, func()) {
	t.Helper()
	return startConfiguredServer(t, sleeplessConfig(), scfg)
}

func startConfiguredServer(t *testing.T, cfg cluster.Config, scfg ServerConfig) (*cluster.ReplicaSet, string, func()) {
	t.Helper()
	env := sim.NewRealtimeEnv(1)
	rs := cluster.New(env, cfg)
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

// throttlingConfig is a sleepless replica set whose flow control stalls
// writes for delay once a secondary lags a second behind.
func throttlingConfig(delay time.Duration) cluster.Config {
	cfg := sleeplessConfig()
	cfg.FlowControlLagSecs = 1
	cfg.FlowControlDelay = delay
	return cfg
}

// makeThrottling takes a secondary down and, once the environment's
// clock has passed one second, commits a write the downed member can
// never apply — from then on the primary's flow control throttles.
func makeThrottling(t *testing.T, rs *cluster.ReplicaSet) {
	t.Helper()
	rs.SetDown(2, true)
	env := rs.Env()
	if wait := 1100*time.Millisecond - env.Now(); wait > 0 {
		time.Sleep(wait)
	}
	if _, err := rs.ExecWrite(env.(*sim.RealtimeEnv).Adhoc("lag"), func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert("c", storage.D{"_id": "k", "v": int64(1)})
	}); err != nil {
		t.Fatal(err)
	}
	if !rs.WriteThrottled() {
		t.Fatal("primary does not throttle writes with a secondary down past the lag limit")
	}
}

func TestBackendInlineClassification(t *testing.T) {
	// Batch, filter and count reads are bounded only by the request, so
	// they stay off the reader even on a sleepless deployment.
	others := []string{OpFindMany, OpFind, OpCount, OpTopology, OpPing, OpStatus,
		OpOplogTail, OpMetrics, OpMetricsPush, OpTrace, OpTracePush, OpCurrentOp}
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
		"throttling":         func(c *cluster.Config) { *c = throttlingConfig(time.Millisecond) },
	}
	for name, tweak := range modeled {
		t.Run(name, func(t *testing.T) {
			env := sim.NewRealtimeEnv(1)
			defer env.Shutdown()
			cfg := sleeplessConfig()
			tweak(&cfg)
			rs := cluster.New(env, cfg)
			if name == "throttling" {
				makeThrottling(t, rs)
			}
			b := newRSBackend(rs)
			// Flow control stalls writes only; reads stay inline.
			readFree := name == "sleepless" || name == "throttling"
			if got := b.Inline(&Request{Op: OpFindByID, Node: 1}); got != readFree {
				t.Errorf("plain find_by_id: Inline = %t, want %t", got, readFree)
			}
			set := Mutation{Kind: "set", Collection: "c", DocID: "k", Doc: map[string]any{"v": 1}}
			writeFree := name == "sleepless"
			if got := b.Inline(&Request{Op: OpWriteBatch, Muts: []Mutation{set}}); got != writeFree {
				t.Errorf("one-mutation write_batch: Inline = %t, want %t", got, writeFree)
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
			// A larger batch's work is bounded only by the request.
			if b.Inline(&Request{Op: OpWriteBatch, Muts: []Mutation{set, set}}) {
				t.Errorf("two-mutation write_batch: Inline = true, want false")
			}
			for _, op := range others {
				if b.Inline(&Request{Op: op}) {
					t.Errorf("%s: Inline = true, want false", op)
				}
			}
		})
	}
}

// TestThrottledWriteDoesNotHoldBurst: a write the primary's flow
// control will stall runs on its own goroutine, so the reader never
// sleeps with a response held for the burst. One raw write carries a
// point read (inline) and a write batch; the read's answer must arrive
// before the write's FlowControlDelay has elapsed, and the write's
// after it.
func TestThrottledWriteDoesNotHoldBurst(t *testing.T) {
	const delay = time.Second
	rs, addr, stop := startConfiguredServer(t, throttlingConfig(delay), ServerConfig{})
	defer stop()
	makeThrottling(t, rs)

	conn := dialRaw(t, addr)
	defer conn.Close()
	burst := appendRequestFrame(t, nil, &Request{ID: 1, Op: OpFindByID, Node: 0, Collection: "c", DocID: "k"})
	burst = appendRequestFrame(t, burst, &Request{ID: 2, Op: OpWriteBatch, Muts: []Mutation{
		{Kind: "set", Collection: "c", DocID: "k", Doc: storage.D{"v": int64(2)}},
	}})
	start := time.Now()
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(5 * delay))
	for _, want := range []uint64{1, 2} {
		var resp Response
		if err := readResponseFrame(conn, &resp); err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		if resp.ID != want || resp.Err != "" {
			t.Fatalf("response id %d err %q after %v, want id %d", resp.ID, resp.Err, took, want)
		}
		if want == 1 && took >= delay {
			t.Fatalf("read answered after %v, behind the throttled write (FlowControlDelay %v)", took, delay)
		}
		if want == 2 && took < delay {
			t.Fatalf("write answered after %v, want it throttled for %v", took, delay)
		}
	}
}

// Deterministic half of the wire benchmark gate: one serial FindByID
// round trip over loopback (client and server together) measures 12
// allocations and 1,443 B; the ceilings leave one allocation and
// 128 B of headroom.
const (
	maxRoundTripAllocs = 13
	maxRoundTripBytes  = 1571
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
