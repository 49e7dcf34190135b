package sharding

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/driver"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
	"decongestant/internal/wire"
)

// benchShardConfig gives the shard replica sets real service times so
// the benchmarks measure shard capacity, not router transport: one CPU
// slot and a 200µs point read caps each node around 5k reads/s, far
// below what the wire layer itself sustains (>100k rt/s with zero
// costs, per the internal/wire benchmarks). Scaling from 1 shard to 4
// must therefore show up as throughput, which is exactly what
// TestShardScaling asserts. Jitter and RTT are disabled for stable
// ratios.
func benchShardConfig() cluster.Config {
	return cluster.Config{
		Nodes:    3,
		CPUSlots: 1,

		ReadCost:    200 * time.Microsecond,
		WriteCost:   400 * time.Microsecond,
		ApplyCost:   20 * time.Microsecond,
		StatusCost:  20 * time.Microsecond,
		GetMoreCost: 20 * time.Microsecond,
		CostJitter:  -1,

		ReplIdlePoll:       2 * time.Millisecond,
		NoopInterval:       time.Hour,
		CheckpointInterval: time.Hour,

		RTTSameZone:        -1,
		RTTCrossZoneBase:   -1,
		RTTCrossZoneSpread: -1,
		RTTJitter:          -1,
	}
}

// BenchmarkShardFor measures the inlined FNV-1a shard-key hash.
// TestShardForZeroAllocs holds it at 0 allocs/op: routing a read must
// not touch the heap.
func BenchmarkShardFor(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Shutdown()
	c := New(env, 4, shardConfig())
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("user:%d:profile", i*7919)
	}
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += c.ShardFor(keys[i%len(keys)])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rt/s")
	if sink < 0 {
		b.Fatal("impossible shard sum")
	}
}

const (
	scatterBenchDocs = 240
	scatterBenchColl = "items"
)

// scatterRouter is a 4-shard cluster with realistic read costs,
// loaded with scatterBenchDocs documents hash-placed across the
// shards.
func scatterRouter(tb testing.TB, env sim.Env, sequential bool) *Router {
	tb.Helper()
	c := New(env, 4, benchShardConfig())
	err := c.Bootstrap(func(shard int, s *storage.Store) error {
		for i := 0; i < scatterBenchDocs; i++ {
			id := fmt.Sprintf("item%04d", i)
			if c.ShardFor(id) != shard {
				continue
			}
			if err := s.C(scatterBenchColl).Insert(storage.D{"_id": id, "val": int64(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	conns := make([]driver.Conn, c.NumShards())
	for i := range conns {
		conns[i] = driver.WrapCluster(c.Shard(i))
	}
	return NewConnRouter(env, conns, core.DefaultParams(), RouterOptions{SequentialScatter: sequential})
}

// scatterOnce runs one full-collection scatter and checks it saw every
// document.
func scatterOnce(p sim.Proc, r *Router) error {
	docs, err := r.ScatterFind(p, scatterBenchColl, nil, 0)
	if err == nil && len(docs) != scatterBenchDocs {
		err = fmt.Errorf("scatter found %d docs, want %d", len(docs), scatterBenchDocs)
	}
	return err
}

func benchScatterFind(b *testing.B, sequential bool) {
	env := sim.NewRealtimeEnv(1)
	defer env.Shutdown()
	r := scatterRouter(b, env, sequential)
	p := env.Adhoc("bench")
	// Warm the balancer/status machinery before timing.
	if err := scatterOnce(p, r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scatterOnce(p, r); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rt/s")
}

// BenchmarkScatterFindParallel vs BenchmarkScatterFindSequential is
// the scatter-gather headline on the wall clock: the same 4-shard
// full-collection query fanned out concurrently versus shard-by-shard.
// TestParallelScatterScales holds the ratio at >= 2.5x in virtual time.
func BenchmarkScatterFindParallel(b *testing.B) { benchScatterFind(b, false) }

func BenchmarkScatterFindSequential(b *testing.B) { benchScatterFind(b, true) }

// scaleWindow is the virtual time each arm of a scaling test runs.
// Shard capacity is the only cost in virtual time, so each ratio is
// exact up to key placement and the window's edges.
const scaleWindow = time.Second

// TestParallelScatterScales: one client's full-collection scatter over
// 4 shards completes at least 2.5x as many queries per virtual second
// fanned out as shard by shard.
func TestParallelScatterScales(t *testing.T) {
	queries := func(sequential bool) int {
		env := sim.NewEnv(8)
		defer env.Shutdown()
		r := scatterRouter(t, env, sequential)
		n := 0
		env.Spawn("client", func(p sim.Proc) {
			for p.Now() < scaleWindow {
				if err := scatterOnce(p, r); err != nil {
					t.Error(err)
					return
				}
				n++
			}
		})
		env.Run(scaleWindow)
		return n
	}
	par, seq := queries(false), queries(true)
	ratio := float64(par) / float64(seq)
	t.Logf("scatter queries in %v: parallel %d, sequential %d (%.2fx)", scaleWindow, par, seq, ratio)
	if ratio < 2.5 {
		t.Errorf("parallel scatter %.2fx sequential, want >= 2.5x", ratio)
	}
}

// TestShardScaling: the same closed-loop point-read load through a
// NewRouter completes at least 3x as many reads per virtual second
// over 4 shards as over 1, because each shard's one CPU slot and
// modeled read cost bound its capacity (see benchShardConfig).
func TestShardScaling(t *testing.T) {
	const docs, clients = 2000, 48
	reads := func(numShards int) int {
		env := sim.NewEnv(8)
		defer env.Shutdown()
		c := New(env, numShards, benchShardConfig())
		err := c.Bootstrap(func(shard int, s *storage.Store) error {
			for d := 0; d < docs; d++ {
				id := fmt.Sprintf("doc%05d", d)
				if c.ShardFor(id) != shard {
					continue
				}
				if err := s.C("kv").Insert(storage.D{"_id": id, "val": int64(d)}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		r := NewRouter(env, c, core.DefaultParams())
		n := 0
		for i := 0; i < clients; i++ {
			rng := env.NewRand(fmt.Sprintf("client%d", i))
			env.Spawn("client", func(p sim.Proc) {
				for p.Now() < scaleWindow {
					id := fmt.Sprintf("doc%05d", rng.Intn(docs))
					d, _, _, err := r.ReadByID(p, "kv", id)
					if err == nil && d == nil {
						err = fmt.Errorf("%s missing", id)
					}
					if err != nil {
						t.Error(err)
						return
					}
					n++
				}
			})
		}
		env.Run(scaleWindow)
		return n
	}
	one, four := reads(1), reads(4)
	ratio := float64(four) / float64(one)
	t.Logf("point reads in %v: 4 shards %d, 1 shard %d (%.2fx)", scaleWindow, four, one, ratio)
	if ratio < 3.0 {
		t.Errorf("4 shards %.2fx 1 shard, want >= 3.0x", ratio)
	}
}

const mongosBenchDocs = 2000

// mongosBenchConfig slows point reads down to 10ms of modeled service
// time. The scaling benchmarks must measure shard capacity, and on a
// small CI box the real CPU cost of the full wire stack (~1ms/op on
// one core) would otherwise swamp a microsecond-scale model: every
// deployment would bottleneck on the benchmark process itself and
// 4 shards could never show 4x. At 10ms/read a shard's primary caps
// at ~100 reads/s — far above the stack's real per-op cost — so
// adding shards adds throughput, which is the property under test.
func mongosBenchConfig() cluster.Config {
	cfg := benchShardConfig()
	cfg.ReadCost = 10 * time.Millisecond
	return cfg
}

// benchMongos builds the full wire-level deployment: numShards shard
// replica sets each behind its own wire server, a mongos routing over
// dialed connections, itself served over the wire, and a client
// connection to the mongos.
func benchMongos(b *testing.B, numShards int) (*wire.Client, func()) {
	b.Helper()
	env := sim.NewRealtimeEnv(1)
	cfg := mongosBenchConfig()
	var stops []func()
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		env.Shutdown()
	}

	// Chunk the key space evenly so point reads spread across shards.
	var splits []string
	for s := 1; s < numShards; s++ {
		splits = append(splits, fmt.Sprintf("doc%05d", s*mongosBenchDocs/numShards))
	}
	cm := NewChunkMap(splits, numShards)

	conns := make([]driver.Conn, numShards)
	addrs := make([]string, numShards)
	for i := 0; i < numShards; i++ {
		rs := cluster.New(env, cfg)
		shard := i
		err := rs.Bootstrap(func(s *storage.Store) error {
			for d := 0; d < mongosBenchDocs; d++ {
				id := fmt.Sprintf("doc%05d", d)
				if cm.Owner(id) != shard {
					continue
				}
				if err := s.C("kv").Insert(storage.D{"_id": id, "val": int64(d)}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			stop()
			b.Fatal(err)
		}
		srv := wire.NewServerWith(env, rs, nil, wire.ServerConfig{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			b.Fatal(err)
		}
		go srv.Serve(ln)
		stops = append(stops, srv.Close)
		addrs[i] = ln.Addr().String()
		cl, err := wire.Dial(addrs[i])
		if err != nil {
			stop()
			b.Fatal(err)
		}
		stops = append(stops, func() { cl.Close() })
		conns[i] = cl
	}

	opts := RouterOptions{}
	if len(splits) > 0 {
		opts.Authority = NewChunkAuthority(env, cm)
	}
	mongos := NewMongos(env, conns, addrs, core.DefaultParams(), opts)
	srv := wire.NewBackendServer(env, mongos, nil, wire.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stop()
		b.Fatal(err)
	}
	go srv.Serve(ln)
	stops = append(stops, srv.Close)
	mcl, err := wire.Dial(ln.Addr().String())
	if err != nil {
		stop()
		b.Fatal(err)
	}
	stops = append(stops, func() { mcl.Close() })
	return mcl, stop
}

func benchMongosPointReads(b *testing.B, numShards int) {
	mcl, stop := benchMongos(b, numShards)
	defer stop()
	var seed atomic.Int64
	// Enough closed-loop clients that every shard keeps its queue
	// non-empty even when the random key draw is momentarily uneven;
	// too few and the 4-shard deployment idles below capacity.
	b.SetParallelism(48)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := seed.Add(1)
		i := int(n * 7919)
		for pb.Next() {
			i++
			id := fmt.Sprintf("doc%05d", i%mongosBenchDocs)
			res, err := mcl.ExecRead(nil, 0, func(v cluster.ReadView) (any, error) {
				d, ok := v.FindByID("kv", id)
				if !ok {
					return nil, fmt.Errorf("mongos bench: %s missing", id)
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

// BenchmarkMongosPointReads1 vs BenchmarkMongosPointReads4 is the
// sharded-tier scaling headline: identical closed-loop point-read load
// through mongosd against 1 shard and against 4 chunk-routed shards,
// over real sockets on the wall clock. TestShardScaling holds the
// in-process router's ratio at >= 3x in virtual time.
func BenchmarkMongosPointReads1(b *testing.B) { benchMongosPointReads(b, 1) }

func BenchmarkMongosPointReads4(b *testing.B) { benchMongosPointReads(b, 4) }
