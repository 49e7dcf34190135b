package driver

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decongestant/internal/cache"
	"decongestant/internal/cluster"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// cacheSetup is testSetup plus an enabled freshness-priced cache.
func cacheSetup(t *testing.T, seed int64, cfg cache.Config) (*sim.VirtualEnv, *cluster.ReplicaSet, *Client, *cache.Cache) {
	t.Helper()
	env, rs, c := testSetup(seed)
	rc := c.EnableCache(env, cfg)
	if rc == nil {
		t.Fatal("EnableCache returned nil for an in-process cluster conn")
	}
	return env, rs, c, rc
}

func boundedFind(c *Client, p sim.Proc, id string, bound int64) (storage.Document, error) {
	res, _, _, err := c.Read(p, ReadOptions{Pref: Secondary, AuditBoundSecs: bound},
		func(v cluster.ReadView) (any, error) {
			d, _ := v.FindByID("kv", id)
			return d, nil
		})
	if res == nil {
		return nil, err
	}
	return res.(storage.Document), err
}

// TestCacheFillHitInvalidate: the basic lifecycle. A bounded read
// fills, a repeat within the freshness window is served locally, a
// client write to the key drops the entry (write-through), and
// unbounded reads never touch the cache.
func TestCacheFillHitInvalidate(t *testing.T) {
	env, _, c, rc := cacheSetup(t, 21, cache.Config{})
	defer env.Shutdown()

	done := false
	env.Spawn("client", func(p sim.Proc) {
		if _, _, err := c.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Set("kv", "a", storage.D{"v": int64(1)})
		}); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(50 * time.Millisecond) // let the secondaries apply
		read := func(want int64) {
			d, err := boundedFind(c, p, "a", 5)
			if err != nil || d == nil || d.Int("v") != want {
				t.Errorf("bounded read: %v %v, want v=%d", d, err, want)
			}
		}
		read(1)
		read(1)
		if s := rc.Snapshot(); s.Hits != 1 || s.Misses != 1 {
			t.Errorf("after fill+hit: %+v", s)
		}
		if _, _, err := c.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Set("kv", "a", storage.D{"v": int64(2)})
		}); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(50 * time.Millisecond)
		read(2) // refilled with the new value
		if s := rc.Snapshot(); s.Invalidations != 1 || s.Misses != 2 {
			t.Errorf("after write-through: %+v", s)
		}
		// No bound declared: the cache is bypassed entirely.
		if _, _, _, err := c.Read(p, ReadOptions{Pref: Primary}, func(v cluster.ReadView) (any, error) {
			v.FindByID("kv", "a")
			return nil, nil
		}); err != nil {
			t.Error(err)
		}
		// Linearizable preference: bypassed even with a bound set.
		if _, _, _, err := c.Read(p, ReadOptions{Pref: Linearizable, AuditBoundSecs: 5},
			func(v cluster.ReadView) (any, error) {
				v.FindByID("kv", "a")
				return nil, nil
			}); err != nil {
			t.Error(err)
		}
		if s := rc.Snapshot(); s.Hits != 1 || s.Misses != 2 {
			t.Errorf("bypass reads touched the cache: %+v", s)
		}
		done = true
	})
	env.Run(5 * time.Second)
	if !done {
		t.Fatal("client did not finish")
	}
}

// TestCacheExpiresByFreshnessPrice: an entry filled fresh is valid only
// while fill staleness + elapsed + guard band fits the bound — pure
// passage of time expires it with no writes anywhere.
func TestCacheExpiresByFreshnessPrice(t *testing.T) {
	env, _, c, rc := cacheSetup(t, 22, cache.Config{GuardBandSecs: 1})
	defer env.Shutdown()

	done := false
	env.Spawn("client", func(p sim.Proc) {
		if _, _, err := c.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Set("kv", "a", storage.D{"v": int64(1)})
		}); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(50 * time.Millisecond)
		if _, err := boundedFind(c, p, "a", 3); err != nil {
			t.Error(err)
			return
		}
		// Within the window (elapsed 1s: 0 + ceil(1) + 1 <= 3): a hit.
		p.Sleep(time.Second)
		if _, err := boundedFind(c, p, "a", 3); err != nil {
			t.Error(err)
			return
		}
		if s := rc.Snapshot(); s.Hits != 1 {
			t.Errorf("in-window read missed: %+v", s)
		}
		// Beyond it (elapsed 3s: 0 + 3 + 1 > 3): expired, refetch.
		p.Sleep(3 * time.Second)
		if _, err := boundedFind(c, p, "a", 3); err != nil {
			t.Error(err)
			return
		}
		s := rc.Snapshot()
		if s.Expired != 1 || s.Misses != 2 {
			t.Errorf("aged entry not expired: %+v", s)
		}
		done = true
	})
	env.Run(10 * time.Second)
	if !done {
		t.Fatal("client did not finish")
	}
}

// TestCacheSessionTokenBypass: a causal session whose token is newer
// than an entry's fill OpTime must not be served that entry —
// read-your-writes survives the cache. A hit advances the token to the
// fill OpTime, preserving monotonic reads for later session ops.
func TestCacheSessionTokenBypass(t *testing.T) {
	env := sim.NewEnv(23)
	defer env.Shutdown()
	cfg := cluster.DefaultConfig()
	cfg.ReplIdlePoll = 5 * time.Millisecond
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	rs := cluster.New(env, cfg)
	c := NewClient(env, WrapCluster(rs))
	rc := c.EnableCache(env, cache.Config{})
	if rc == nil {
		t.Fatal("causal conn lost the FreshConn capability")
	}

	done := false
	env.Spawn("client", func(p sim.Proc) {
		sess := c.NewSession()
		if !sess.Causal() {
			t.Error("session is not causal")
			return
		}
		if _, _, err := sess.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Set("kv", "a", storage.D{"v": int64(1)})
		}); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(50 * time.Millisecond)
		read := func(want int64) {
			res, _, _, err := sess.Read(p, ReadOptions{Pref: Secondary, AuditBoundSecs: 5},
				func(v cluster.ReadView) (any, error) {
					d, _ := v.FindByID("kv", "a")
					return d, nil
				})
			if err != nil || res == nil || res.(storage.Document).Int("v") != want {
				t.Errorf("session read: %v %v, want v=%d", res, err, want)
			}
		}
		read(1) // fill (token ≤ fill OpTime after the replica applied)
		read(1) // hit
		if s := rc.Snapshot(); s.Hits != 1 || s.Misses != 1 {
			t.Errorf("session fill+hit: %+v", s)
		}
		// The session writes again: its token now exceeds the cached
		// entry's fill OpTime, so the (invalidated and refilled-from-
		// elsewhere) entry may not serve until a fill catches up.
		if _, _, err := sess.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Set("kv", "a", storage.D{"v": int64(2)})
		}); err != nil {
			t.Error(err)
			return
		}
		// Read immediately: even if a stale fill raced back in, the
		// session token forbids serving anything older than the write.
		read(2)
		if s := rc.Snapshot(); s.Hits != 1 {
			t.Errorf("stale entry served to a causal session: %+v", s)
		}
		done = true
	})
	env.Run(5 * time.Second)
	if !done {
		t.Fatal("client did not finish")
	}
}

// TestCacheSingleflightCollapse: concurrent misses of one key collapse
// into a single upstream fill.
func TestCacheSingleflightCollapse(t *testing.T) {
	env, _, c, rc := cacheSetup(t, 24, cache.Config{})
	defer env.Shutdown()

	env.Spawn("seed", func(p sim.Proc) {
		if _, _, err := c.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Set("kv", "hot", storage.D{"v": int64(7)})
		}); err != nil {
			t.Error(err)
		}
	})
	env.Run(100 * time.Millisecond)
	var served atomic.Int64
	for i := 0; i < 8; i++ {
		env.Spawn(fmt.Sprintf("reader-%d", i), func(p sim.Proc) {
			if d, err := boundedFind(c, p, "hot", 10); err == nil && d != nil {
				served.Add(1)
			}
		})
	}
	env.Run(time.Second)
	if served.Load() != 8 {
		t.Fatalf("served %d of 8 readers", served.Load())
	}
	s := rc.Snapshot()
	if s.FillsCollapsed == 0 {
		t.Errorf("no collapsed fills across 8 concurrent readers: %+v", s)
	}
	if s.Misses+s.Hits < 8 {
		t.Errorf("readers unaccounted for: %+v", s)
	}
}

// TestCacheChurnRace is the PR 10 churn test: cache enabled, real
// goroutines (run under -race), writers mutating the hot key space,
// Zipf readers spending the bound through the cache, replication lag
// sawtoothing from slow oplog pulls, and one failover mid-run. The
// invariants: the freshness auditor records zero bound violations —
// cache hits are priced, node reads carry the bound — and therefore
// pins zero exemplar traces; and the cache actually served (hits > 0).
func TestCacheChurnRace(t *testing.T) {
	env := sim.NewRealtimeEnv(25)
	defer env.Shutdown()
	cfg := cluster.DefaultConfig()
	// Sawtooth: secondaries refresh only every 1.5 s, so with steady
	// writers their staleness climbs to ~1.5–2 s between pulls — well
	// inside the 4 s bound for node reads, while cache validity is the
	// binding constraint for hits.
	cfg.ReplIdlePoll = 1500 * time.Millisecond
	cfg.DisableTailWake = true
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	rs := cluster.New(env, cfg)
	rs.Tracer().SetSampling(1) // violations would pin exemplars
	c := NewClient(env, WrapCluster(rs))
	rc := c.EnableCache(env, cache.Config{})
	if rc == nil {
		t.Fatal("EnableCache returned nil")
	}

	const bound = 4
	const hotKeys = 16
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := env.Adhoc(fmt.Sprintf("churn/writer-%d", w))
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("h%03d", rng.Intn(hotKeys))
				// Failover windows reject writes; just keep going.
				c.Write(p, func(tx cluster.WriteTxn) (any, error) {
					return nil, tx.Set("kv", key, storage.D{"v": int64(i)})
				})
				time.Sleep(20 * time.Millisecond)
			}
		}(w)
	}

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			p := env.Adhoc(fmt.Sprintf("churn/reader-%d", r))
			rng := rand.New(rand.NewSource(int64(200 + r)))
			zipf := rand.NewZipf(rng, 1.2, 1, hotKeys-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("h%03d", zipf.Uint64())
				// SecondaryPreferred: survives the failover window by
				// falling back to the primary.
				c.Read(p, ReadOptions{Pref: SecondaryPreferred, AuditBoundSecs: bound},
					func(v cluster.ReadView) (any, error) {
						v.FindByID("kv", key)
						return nil, nil
					})
				time.Sleep(5 * time.Millisecond)
			}
		}(r)
	}

	time.Sleep(1200 * time.Millisecond)
	rs.Failover(env.Adhoc("churn/failover"))
	time.Sleep(1200 * time.Millisecond)
	close(stop)
	wg.Wait()

	snap := rs.Metrics().Snapshot()
	if v := snap.CounterValue("freshness.bound_violations"); v != 0 {
		t.Errorf("%d freshness bound violations under churn with the cache on", v)
	}
	if pinned := rs.Tracer().Pinned(); len(pinned) != 0 {
		t.Errorf("%d exemplar traces pinned; want none", len(pinned))
	}
	s := rc.Snapshot()
	if s.Hits == 0 {
		t.Errorf("cache never served under churn: %+v", s)
	}
	t.Logf("churn: %+v, failover survived, violations 0", s)
}
