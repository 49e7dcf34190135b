package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

func testDoc(id string) storage.Document {
	return storage.Document{"_id": id, "v": int64(1), "payload": "xxxxxxxxxxxxxxxx"}
}

// TestPricedValidity: an entry filled with observed staleness s at
// time t satisfies bound Δ exactly while age + s + guard ≤ Δ.
func TestPricedValidity(t *testing.T) {
	env := sim.NewRealtimeEnv(1)
	defer env.Shutdown()
	c := New(env, Config{GuardBandSecs: 1}, nil)
	k := Key{Collection: "c", ID: "a"}
	fill := 10 * time.Second
	c.Put(fill, k, testDoc("a"), 2, oplog.OpTime{Secs: 10, Inc: 1}, 0)

	// bound 5, fill staleness 2, guard 1: valid while age ≤ 2s.
	if _, hit, ok := c.Get(fill+2*time.Second, k, 5, oplog.Zero, 0); !ok || hit.EffSecs != 4 {
		t.Fatalf("age=2s: ok=%v eff=%d, want hit with eff 4", ok, hit.EffSecs)
	}
	if _, _, ok := c.Get(fill+2*time.Second+time.Millisecond, k, 5, oplog.Zero, 0); ok {
		t.Fatal("age just over 2s must miss under bound 5 (ceil to 3s + fill 2 + guard 1 > 5)")
	}
	// The same aged entry still serves a looser bound.
	if _, hit, ok := c.Get(fill+6*time.Second, k, 10, oplog.Zero, 0); !ok || hit.EffSecs != 8 {
		t.Fatalf("looser bound: ok=%v eff=%d, want hit with eff 8", ok, hit.EffSecs)
	}
	// Unbounded (boundSecs 0) reads never hit the priced cache.
	if _, _, ok := c.Get(fill, k, 0, oplog.Zero, 0); ok {
		t.Fatal("bound 0 must miss")
	}
}

// TestCausalTokenBypass: an entry older than the session token misses
// (read-your-writes), but stays for sessions with older tokens.
func TestCausalTokenBypass(t *testing.T) {
	env := sim.NewRealtimeEnv(1)
	defer env.Shutdown()
	c := New(env, Config{}, nil)
	k := Key{Collection: "c", ID: "a"}
	c.Put(0, k, testDoc("a"), 0, oplog.OpTime{Secs: 5, Inc: 2}, 0)
	if _, _, ok := c.Get(0, k, 30, oplog.OpTime{Secs: 5, Inc: 3}, 0); ok {
		t.Fatal("token ahead of fillOpTime must miss")
	}
	if _, _, ok := c.Get(0, k, 30, oplog.OpTime{Secs: 5, Inc: 2}, 0); !ok {
		t.Fatal("token at fillOpTime must hit")
	}
	if _, _, ok := c.Get(0, k, 30, oplog.Zero, 0); !ok {
		t.Fatal("tokenless read must hit")
	}
}

// TestNaiveTTL: the strawman arm serves on wall age alone, even when
// the effective staleness blows the bound.
func TestNaiveTTL(t *testing.T) {
	env := sim.NewRealtimeEnv(1)
	defer env.Shutdown()
	c := New(env, Config{NaiveTTLSecs: 10}, nil)
	k := Key{Collection: "c", ID: "a"}
	c.Put(0, k, testDoc("a"), 6, oplog.Zero, 0) // filled 6s stale
	// Bound 3 with effective staleness 6+2=8: the priced rule would
	// miss; naive TTL (age 2 ≤ 10) serves it — a bound violation the
	// auditor will catch via the returned effective staleness.
	doc, hit, ok := c.Get(2*time.Second, k, 3, oplog.Zero, 0)
	if !ok || doc == nil || hit.EffSecs != 8 {
		t.Fatalf("naive arm: ok=%v eff=%d, want hit with eff 8", ok, hit.EffSecs)
	}
	if _, _, ok := c.Get(11*time.Second, k, 3, oplog.Zero, 0); ok {
		t.Fatal("past the TTL the naive arm must miss")
	}
}

// TestChunkVersionInvalidation: a version-mismatched entry is dropped.
func TestChunkVersionInvalidation(t *testing.T) {
	env := sim.NewRealtimeEnv(1)
	defer env.Shutdown()
	c := New(env, Config{}, nil)
	k := Key{Collection: "c", ID: "a"}
	c.Put(0, k, testDoc("a"), 0, oplog.Zero, 7)
	if _, _, ok := c.Get(0, k, 30, oplog.Zero, 8); ok {
		t.Fatal("version mismatch must miss")
	}
	// The mismatch evicted it: even the old version misses now.
	if _, _, ok := c.Get(0, k, 30, oplog.Zero, 7); ok {
		t.Fatal("mismatched entry must have been dropped")
	}
	if st := c.Snapshot(); st.Invalidations != 1 || st.Entries != 0 {
		t.Fatalf("snapshot: %+v, want 1 invalidation, 0 entries", st)
	}
}

// TestInvalidateRange: only ids inside [min,max) of the named
// collection drop.
func TestInvalidateRange(t *testing.T) {
	env := sim.NewRealtimeEnv(1)
	defer env.Shutdown()
	c := New(env, Config{}, nil)
	for _, id := range []string{"a", "m", "z"} {
		c.Put(0, Key{Collection: "c", ID: id}, testDoc(id), 0, oplog.Zero, 0)
	}
	c.Put(0, Key{Collection: "other", ID: "m"}, testDoc("m"), 0, oplog.Zero, 0)
	c.InvalidateRange("c", "b", "y")
	hits := func(coll, id string) bool {
		_, _, ok := c.Get(0, Key{Collection: coll, ID: id}, 30, oplog.Zero, 0)
		return ok
	}
	if !hits("c", "a") || hits("c", "m") || !hits("c", "z") || !hits("other", "m") {
		t.Fatal("range invalidation dropped the wrong entries")
	}
	// Unbounded-above range.
	c.InvalidateRange("c", "b", "")
	if hits("c", "z") {
		t.Fatal("unbounded range must drop z")
	}
}

// TestLRUEviction: past the byte budget, the least-recently-used
// entries go first.
func TestLRUEviction(t *testing.T) {
	env := sim.NewRealtimeEnv(1)
	defer env.Shutdown()
	// One stripe so the LRU order is global; tiny budget.
	c := New(env, Config{Stripes: 1, MaxBytes: 600}, nil)
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("k%d", i)
		c.Put(0, Key{Collection: "c", ID: id}, testDoc(id), 0, oplog.Zero, 0)
		// Touch k0 after every insert to keep it hot.
		c.Get(0, Key{Collection: "c", ID: "k0"}, 30, oplog.Zero, 0)
	}
	if _, _, ok := c.Get(0, Key{Collection: "c", ID: "k0"}, 30, oplog.Zero, 0); !ok {
		t.Fatal("hot k0 must survive eviction")
	}
	st := c.Snapshot()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions, got %+v", st)
	}
	if st.Bytes > 600 {
		t.Fatalf("bytes %d over budget", st.Bytes)
	}
}

// TestPutNeverRegresses: a slower concurrent fill carrying an older
// snapshot must not clobber a newer one.
func TestPutNeverRegresses(t *testing.T) {
	env := sim.NewRealtimeEnv(1)
	defer env.Shutdown()
	c := New(env, Config{}, nil)
	k := Key{Collection: "c", ID: "a"}
	newer := storage.Document{"_id": "a", "v": int64(2)}
	c.Put(0, k, newer, 0, oplog.OpTime{Secs: 9}, 0)
	c.Put(0, k, testDoc("a"), 0, oplog.OpTime{Secs: 5}, 0)
	doc, _, ok := c.Get(0, k, 30, oplog.Zero, 0)
	if !ok || doc["v"] != int64(2) {
		t.Fatal("older fill clobbered the newer snapshot")
	}
}

// TestSingleflightCollapse: concurrent misses on one key elect a
// single leader; followers wait and re-check.
func TestSingleflightCollapse(t *testing.T) {
	env := sim.NewRealtimeEnv(1)
	defer env.Shutdown()
	c := New(env, Config{FlightWait: time.Second}, nil)
	k := Key{Collection: "c", ID: "hot"}
	var leaders, fills atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		env.Spawn("reader", func(p sim.Proc) {
			defer wg.Done()
			if _, _, ok := c.Get(p.Now(), k, 30, oplog.Zero, 0); ok {
				return
			}
			if c.BeginFill(p, k) {
				leaders.Add(1)
				time.Sleep(20 * time.Millisecond) // the "network fetch"
				c.Put(p.Now(), k, testDoc("hot"), 0, oplog.Zero, 0)
				fills.Add(1)
				c.EndFill(k)
				return
			}
			// Follower: after the leader finishes the entry must be there.
			if _, _, ok := c.Get(p.Now(), k, 30, oplog.Zero, 0); !ok {
				t.Error("follower re-check missed after leader fill")
			}
		})
	}
	wg.Wait()
	if leaders.Load() != 1 {
		t.Fatalf("leaders = %d, want 1", leaders.Load())
	}
	if got := c.Snapshot().FillsCollapsed; got != 7 {
		t.Fatalf("collapsed = %d, want 7", got)
	}
}

// hitPathCache returns a cache holding n resident, valid entries and
// their keys.
func hitPathCache(env sim.Env, n int) (*Cache, []Key) {
	c := New(env, Config{}, nil)
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{Collection: "bench", ID: fmt.Sprintf("k%d", i)}
		c.Put(0, keys[i], testDoc(keys[i].ID), 1, oplog.OpTime{Secs: 1}, 0)
	}
	return c, keys
}

// BenchmarkCacheHitPath measures Get on a resident, valid entry;
// TestCacheHitPathZeroAllocs holds it at zero allocations.
func BenchmarkCacheHitPath(b *testing.B) {
	env := sim.NewRealtimeEnv(1)
	defer env.Shutdown()
	const n = 1024
	c, keys := hitPathCache(env, n)
	now := time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, _, ok := c.Get(now, keys[i%n], 30, oplog.Zero, 0)
		if !ok || doc == nil {
			b.Fatal("unexpected miss")
		}
	}
}

// TestCacheHitPathZeroAllocs: Get on a resident, valid entry must not
// allocate.
func TestCacheHitPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	env := sim.NewRealtimeEnv(1)
	defer env.Shutdown()
	const n = 1024
	c, keys := hitPathCache(env, n)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		doc, _, ok := c.Get(time.Second, keys[i%n], 30, oplog.Zero, 0)
		if !ok || doc == nil {
			t.Fatal("unexpected miss")
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per cache hit, want 0", allocs)
	}
}
