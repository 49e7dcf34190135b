package sharding

import (
	"fmt"
	"testing"
	"time"

	"decongestant/internal/cache"
	"decongestant/internal/core"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// TestRouterCacheHitAndWriteInvalidation: a bounded read fills the
// router cache, a repeat is served locally, and a routed write to the
// key drops the entry so the next read refetches the new value.
func TestRouterCacheHitAndWriteInvalidation(t *testing.T) {
	env := sim.NewEnv(11)
	defer env.Shutdown()
	c := New(env, 2, []string{"m"}, shardConfig())
	r := NewRouter(env, c, core.DefaultParams())
	rc := r.EnableCache(cache.Config{})
	if rc == nil {
		t.Fatal("EnableCache returned nil")
	}

	ok := false
	env.Spawn("client", func(p sim.Proc) {
		if _, err := r.Insert(p, "kv", storage.D{"_id": "a", "v": int64(1)}); err != nil {
			t.Error(err)
			return
		}
		read := func(want int64) {
			d, _, _, err := r.ReadByIDBounded(p, "kv", "a", 5)
			if err != nil || d == nil || d.Int("v") != want {
				t.Errorf("bounded read: %v %v, want v=%d", d, err, want)
			}
		}
		read(1) // fill
		read(1) // hit
		s := rc.Snapshot()
		if s.Hits != 1 || s.Misses != 1 {
			t.Errorf("after two reads: %+v", s)
		}
		if _, err := r.Upsert(p, "kv", "a", storage.D{"v": int64(2)}); err != nil {
			t.Error(err)
			return
		}
		read(2) // the write invalidated; this refills with the new value
		if s := rc.Snapshot(); s.Invalidations != 1 || s.Misses != 2 {
			t.Errorf("after write: %+v", s)
		}
		// An unbounded read never consults the cache.
		if d, _, _, err := r.ReadByIDBounded(p, "kv", "a", 0); err != nil || d.Int("v") != 2 {
			t.Errorf("unbounded read: %v %v", d, err)
		}
		if s := rc.Snapshot(); s.Hits != 1 {
			t.Errorf("unbounded read touched the cache: %+v", s)
		}
		ok = true
	})
	env.Run(10 * time.Second)
	if !ok {
		t.Fatal("client did not finish")
	}
}

// TestRouterCacheChunkMoveInvalidates: migrating a chunk drops the
// cached documents of the moved range (eagerly at commit, and any
// survivor lazily via the version stamp), while entries outside the
// range keep serving hits under the new table version... except that a
// version bump invalidates them on next lookup too — the conservative
// contract this test pins down is simply that no post-move read serves
// a document from the pre-move cache generation.
func TestRouterCacheChunkMoveInvalidates(t *testing.T) {
	env := sim.NewRealtimeEnv(13)
	defer env.Shutdown()
	cfg := shardConfig()
	cfg.ReplIdlePoll = 2 * time.Millisecond
	c := New(env, 2, []string{"doc050"}, cfg)
	r := NewRouter(env, c, core.DefaultParams())
	rc := r.EnableCache(cache.Config{})

	p := env.Adhoc("client")
	for i := 0; i < 100; i += 10 {
		id := fmt.Sprintf("doc%03d", i)
		if _, err := r.Insert(p, "kv", storage.D{"_id": id, "v": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Fill the cache across both chunks.
	for i := 0; i < 100; i += 10 {
		id := fmt.Sprintf("doc%03d", i)
		if d, _, _, err := r.ReadByIDBounded(p, "kv", id, 30); err != nil || d == nil {
			t.Fatalf("fill %s: %v %v", id, d, err)
		}
	}
	if s := rc.Snapshot(); s.Entries != 10 {
		t.Fatalf("expected 10 cached entries, have %+v", s)
	}

	moved := c.Owner("doc070")
	if err := r.MigrateChunk(p, "doc070", 1-moved, MigrateOptions{}); err != nil {
		t.Fatal(err)
	}
	// The moved range ["doc050", "") was eagerly dropped.
	if s := rc.Snapshot(); s.Entries != 5 {
		t.Fatalf("after move: %d entries cached, want 5 (low chunk only)", s.Entries)
	}
	// Every post-move bounded read — moved range or not — returns the
	// right document. The first pass serves nothing from the pre-move
	// generation: the table version bumped, so even the surviving
	// low-chunk entries are dropped on lookup (counted as
	// invalidations) and refilled under the new version.
	base := rc.Snapshot()
	pass := func(label string) {
		for i := 0; i < 100; i += 10 {
			id := fmt.Sprintf("doc%03d", i)
			d, _, _, err := r.ReadByIDBounded(p, "kv", id, 30)
			if err != nil || d == nil || d.Int("v") != int64(i) {
				t.Fatalf("%s read %s: %v %v", label, id, d, err)
			}
		}
	}
	pass("post-move")
	s := rc.Snapshot()
	if s.Hits != base.Hits {
		t.Fatalf("%d post-move reads served from the pre-move generation", s.Hits-base.Hits)
	}
	if s.Invalidations != base.Invalidations+5 {
		t.Fatalf("surviving stale-version entries not dropped: %+v (base %+v)", s, base)
	}
	pass("refilled")
	if s2 := rc.Snapshot(); s2.Hits != s.Hits+10 {
		t.Fatalf("refilled entries not hitting: %+v", s2)
	}
	for i := 0; i < c.NumShards(); i++ {
		if got := c.Shard(i).Metrics().Snapshot().CounterValue("freshness.bound_violations"); got != 0 {
			t.Fatalf("shard %d: %d bound violations", i, got)
		}
	}
}
