package driver

// The cache's headline claim: spending the client's staleness budget
// locally beats paying the server for every read. Both arms run the
// identical Zipf hot-key point-read workload against the identical
// replica set — same modeled per-read service time, same CPU slots —
// differing only in whether the freshness-priced cache is enabled.
// With a 30 s bound and no writers, nearly every cache-on read is a
// local hit; every cache-off read pays the modeled service time at a
// node. TestDriverCacheScaling requires cache-on to clear 5x cache-off
// in virtual time, and TestCacheHitPathZeroAllocs holds the hit path
// at zero allocations per op; the benchmarks measure the same on the
// wall clock.
//
// Service time is simulated (a Sleep while the node's CPU slot is
// held), so the ratio measures placement — local memory versus a
// capacity-limited server — not the host's parallelism.
//
// Run the benchmarks with:
//
//	go test ./internal/driver -bench 'BenchmarkDriverCache|BenchmarkCacheHitPath' -benchtime 2s -count 3 -benchmem

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"decongestant/internal/cache"
	"decongestant/internal/cluster"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

const (
	cacheBenchDocs   = 512
	cacheBenchFanout = 64 // parallel clients per GOMAXPROCS
	cacheBenchBound  = 30 // seconds; >> benchtime, so entries never expire mid-run
)

func cacheBenchDocID(i int) string { return fmt.Sprintf("c%04d", i) }

// newCacheBenchClient builds the replica set both arms share — a
// modeled 2 ms read service time and 4 CPU slots per node bound the
// server-side read capacity, and the documents are preloaded on every
// member so secondaries can serve immediately — and a driver client
// over it, with the cache on or off.
func newCacheBenchClient(tb testing.TB, env sim.Env, withCache bool) *Client {
	tb.Helper()
	cfg := cluster.DefaultConfig()
	cfg.ReadCost = 2 * time.Millisecond
	cfg.CPUSlots = 4
	cfg.ReplIdlePoll = 5 * time.Millisecond
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	rs := cluster.New(env, cfg)
	err := rs.Bootstrap(func(s *storage.Store) error {
		c := s.C("bench")
		for i := 0; i < cacheBenchDocs; i++ {
			if err := c.Insert(storage.D{"_id": cacheBenchDocID(i), "val": int64(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	c := NewClient(env, WrapCluster(rs))
	if withCache {
		if c.EnableCache(env, cache.Config{}) == nil {
			tb.Fatal("EnableCache returned nil")
		}
	}
	return c
}

// benchDriverReads drives closed-loop bounded point reads with a Zipf
// key distribution — the hot keys that make a read cache pay.
func benchDriverReads(b *testing.B, withCache bool) {
	env := sim.NewRealtimeEnv(10)
	defer env.Shutdown()
	c := newCacheBenchClient(b, env, withCache)
	ids := make([]string, cacheBenchDocs)
	for i := range ids {
		ids[i] = cacheBenchDocID(i)
	}
	opts := ReadOptions{Pref: Secondary, AuditBoundSecs: cacheBenchBound}
	var seed atomic.Int64
	b.SetParallelism(cacheBenchFanout)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := env.Adhoc("bench-cache-reader")
		rng := rand.New(rand.NewSource(seed.Add(1)))
		zipf := rand.NewZipf(rng, 1.2, 1, cacheBenchDocs-1)
		var id string
		fn := func(v cluster.ReadView) (any, error) {
			v.FindByID("bench", id)
			return nil, nil
		}
		for pb.Next() {
			id = ids[zipf.Uint64()]
			if _, _, _, err := c.Read(p, opts, fn); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rt/s")
}

// BenchmarkDriverCacheOn reads through the freshness-priced cache —
// the headline number on the wall clock.
func BenchmarkDriverCacheOn(b *testing.B) { benchDriverReads(b, true) }

// BenchmarkDriverCacheOff pays the server for every read — the
// baseline for the cache-on number.
func BenchmarkDriverCacheOff(b *testing.B) { benchDriverReads(b, false) }

// hitPathReader returns a read of one pre-filled hot key under its
// bound through a cache-on client, and the client.
func hitPathReader(tb testing.TB, env *sim.RealtimeEnv) (func() error, *Client) {
	tb.Helper()
	c := newCacheBenchClient(tb, env, true)
	p := env.Adhoc("hit-reader")
	opts := ReadOptions{Pref: Secondary, AuditBoundSecs: cacheBenchBound}
	id := cacheBenchDocID(0)
	fn := func(v cluster.ReadView) (any, error) {
		v.FindByID("bench", id)
		return nil, nil
	}
	read := func() error {
		_, _, _, err := c.Read(p, opts, fn)
		return err
	}
	if err := read(); err != nil { // fill
		tb.Fatal(err)
	}
	return read, c
}

// BenchmarkCacheHitPath measures the pure hit path: one pre-filled hot
// key read back under its bound, single-threaded.
// TestCacheHitPathZeroAllocs holds it at zero allocations per op.
func BenchmarkCacheHitPath(b *testing.B) {
	env := sim.NewRealtimeEnv(10)
	defer env.Shutdown()
	read, c := hitPathReader(b, env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := read(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := c.Cache().Snapshot(); s.Hits < uint64(b.N) {
		b.Fatalf("hit path missed: %+v over %d reads", s, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rt/s")
}

// TestCacheHitPathZeroAllocs: a driver read served from the cache
// allocates nothing — the pooled cache view, the stack-allocated key
// and the auditor's cached histogram keep the heap out of it.
func TestCacheHitPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled views at random")
	}
	env := sim.NewRealtimeEnv(10)
	defer env.Shutdown()
	read, c := hitPathReader(t, env)
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() {
		if err := read(); err != nil {
			t.Fatal(err)
		}
	})
	if s := c.Cache().Snapshot(); s.Hits < runs {
		t.Fatalf("hit path missed: %+v over %d reads", s, runs)
	}
	if allocs != 0 {
		t.Errorf("%.1f allocs per cache hit, want 0", allocs)
	}
}

// TestDriverCacheScaling: the same fixed count of Zipf hot-key bounded
// reads completes in at least 5x less virtual time with the cache on
// than off. A hit costs no virtual time, so on the cache-on side only
// the misses that fill the cache advance the clock.
func TestDriverCacheScaling(t *testing.T) {
	const clients, readsPerClient = cacheBenchFanout, 200
	elapsed := func(withCache bool) time.Duration {
		env := sim.NewEnv(10)
		defer env.Shutdown()
		c := newCacheBenchClient(t, env, withCache)
		opts := ReadOptions{Pref: Secondary, AuditBoundSecs: cacheBenchBound}
		var done int
		var last time.Duration
		for i := 0; i < clients; i++ {
			zipf := rand.NewZipf(env.NewRand(fmt.Sprintf("cache-reader%d", i)), 1.2, 1, cacheBenchDocs-1)
			env.Spawn("cache-reader", func(p sim.Proc) {
				var id string
				fn := func(v cluster.ReadView) (any, error) {
					v.FindByID("bench", id)
					return nil, nil
				}
				for j := 0; j < readsPerClient; j++ {
					id = cacheBenchDocID(int(zipf.Uint64()))
					if _, _, _, err := c.Read(p, opts, fn); err != nil {
						t.Error(err)
						return
					}
				}
				done++
				last = max(last, p.Now())
			})
		}
		env.Run(time.Minute)
		if done != clients {
			t.Fatalf("%d of %d readers finished within a virtual minute", done, clients)
		}
		return last
	}
	on, off := elapsed(true), elapsed(false)
	ratio := float64(off) / float64(on)
	t.Logf("%d reads: cache on %v, cache off %v (%.1fx)", clients*readsPerClient, on, off, ratio)
	if ratio < 5 {
		t.Errorf("cache-on throughput %.1fx cache-off, want >= 5x", ratio)
	}
}
