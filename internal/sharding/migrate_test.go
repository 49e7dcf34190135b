package sharding

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// TestSplitChunkInvisibleToTraffic: a split bumps the table version
// without changing ownership, so routed ops keep working against the
// old cache with zero stale retries.
func TestSplitChunkInvisibleToTraffic(t *testing.T) {
	env := sim.NewEnv(5)
	defer env.Shutdown()
	c := New(env, 2, []string{"m"}, shardConfig())
	auth := c.Authority()
	r := NewRouter(env, c, core.DefaultParams())

	ok := false
	env.Spawn("client", func(p sim.Proc) {
		for i := 0; i < 10; i++ {
			id := fmt.Sprintf("k%02d", i)
			if _, err := r.Insert(p, "kv", storage.D{"_id": id, "v": int64(i)}); err != nil {
				t.Error(err)
				return
			}
		}
		if err := r.SplitChunk("k05"); err != nil {
			t.Error(err)
			return
		}
		if auth.Version() != 2 || auth.Map().NumChunks() != 3 {
			t.Errorf("after split: version %d, %d chunks", auth.Version(), auth.Map().NumChunks())
			return
		}
		for i := 0; i < 10; i++ {
			id := fmt.Sprintf("k%02d", i)
			d, _, _, err := r.ReadByID(p, "kv", id)
			if err != nil || d == nil {
				t.Errorf("read %s after split: %v %v", id, d, err)
				return
			}
		}
		ok = true
	})
	env.Run(10 * time.Second)
	if !ok {
		t.Fatal("client did not finish")
	}
	if got := r.Registry().Snapshot().CounterValue("sharding.stale_chunk_retries"); got != 0 {
		t.Fatalf("split caused %d stale retries, want 0", got)
	}
}

// TestMigrateChunkUnderLoad is the headline live-migration test: a
// chunk moves between shards while readers, writers, and scatter
// queries run concurrently. Afterwards no document may be lost or
// duplicated, every document must hold its last written value, the
// freshness audit must be clean, and stale-chunk retries bounded.
// Run it with -race: the scatter fan-out, the migration drains, and
// the authority's freeze all interleave here.
func TestMigrateChunkUnderLoad(t *testing.T) {
	const (
		numDocs    = 300
		splitKey   = "doc200"
		numWriters = 2
		numReaders = 2
	)
	env := sim.NewRealtimeEnv(7)
	defer env.Shutdown()
	cfg := shardConfig()
	cfg.ReplIdlePoll = 2 * time.Millisecond
	c := New(env, 2, []string{splitKey}, cfg)
	r := NewRouter(env, c, core.DefaultParams())

	id := func(i int) string { return fmt.Sprintf("doc%03d", i) }
	moved := c.Owner("doc250") // shard owning the chunk that will move
	dest := 1 - moved

	// Load through the router so placement follows the chunk table.
	loader := env.Adhoc("loader")
	for i := 0; i < numDocs; i++ {
		if _, err := r.Insert(loader, "kv", storage.D{"_id": id(i), "seq": int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range r.conns {
		r.waitSecondaries(loader, r.conns[i], 5*time.Second)
	}

	var (
		stop     atomic.Bool
		workerMu sync.Mutex
		lastSeq  = make(map[string]int64)
		fail     = func(format string, args ...any) {
			workerMu.Lock()
			defer workerMu.Unlock()
			t.Errorf(format, args...)
			stop.Store(true)
		}
	)
	var wg sync.WaitGroup
	for w := 0; w < numWriters; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := env.Adhoc(fmt.Sprintf("writer%d", w))
			seq := int64(0)
			for i := w; !stop.Load(); i = (i + numWriters) % numDocs {
				seq++
				docID := id(i)
				if _, err := r.Upsert(p, "kv", docID, storage.D{"seq": seq}); err != nil {
					fail("writer %d: upsert %s: %v", w, docID, err)
					return
				}
				workerMu.Lock()
				lastSeq[docID] = seq
				workerMu.Unlock()
			}
		}()
	}
	for rd := 0; rd < numReaders; rd++ {
		rd := rd
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := env.Adhoc(fmt.Sprintf("reader%d", rd))
			rng := env.NewRand(fmt.Sprintf("reader%d", rd))
			for !stop.Load() {
				docID := id(rng.Intn(numDocs))
				d, _, _, err := r.ReadByID(p, "kv", docID)
				if err != nil {
					fail("reader %d: %s: %v", rd, docID, err)
					return
				}
				if d == nil {
					fail("reader %d: %s LOST (not found mid-migration)", rd, docID)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := env.Adhoc("scatterer")
		for !stop.Load() {
			docs, err := r.ScatterFind(p, "kv", nil, 0)
			if err != nil {
				fail("scatter: %v", err)
				return
			}
			if len(docs) != numDocs {
				fail("scatter saw %d docs, want %d (lost or duplicated mid-migration)", len(docs), numDocs)
				return
			}
			for i := 1; i < len(docs); i++ {
				if docs[i].ID() == docs[i-1].ID() {
					fail("scatter returned duplicate %s", docs[i].ID())
					return
				}
			}
		}
	}()

	// Let traffic reach steady state, migrate, keep traffic going.
	time.Sleep(100 * time.Millisecond)
	mig := env.Adhoc("migrator")
	if err := r.MigrateChunk(mig, "doc250", dest, MigrateOptions{}); err != nil {
		t.Fatalf("MigrateChunk: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// The chunk and all its documents must now live on dest, and only
	// there; everything else stays put. Each doc holds the last value
	// its writer recorded.
	if got := c.Owner("doc250"); got != dest {
		t.Fatalf("owner after migration = %d, want %d", got, dest)
	}
	seen := make(map[string]int)
	check := env.Adhoc("checker")
	for s := 0; s < c.NumShards(); s++ {
		conn := r.conns[s]
		res, err := conn.ExecRead(check, conn.PrimaryID(), func(v cluster.ReadView) (any, error) {
			return v.Find("kv", nil, 0), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.([]storage.Document) {
			seen[d.ID()]++
			if owner := c.Owner(d.ID()); owner != s {
				t.Errorf("doc %s on shard %d, owner is %d (orphan after migration)", d.ID(), s, owner)
			}
			workerMu.Lock()
			want, wrote := lastSeq[d.ID()]
			workerMu.Unlock()
			if wrote && d.Int("seq") != want {
				t.Errorf("doc %s seq = %d, last write was %d (lost update)", d.ID(), d.Int("seq"), want)
			}
		}
	}
	for i := 0; i < numDocs; i++ {
		switch seen[id(i)] {
		case 1:
		case 0:
			t.Errorf("doc %s LOST by migration", id(i))
		default:
			t.Errorf("doc %s duplicated %d times", id(i), seen[id(i)])
		}
	}

	snap := r.Registry().Snapshot()
	if got := snap.CounterValue("sharding.migrations"); got != 1 {
		t.Errorf("sharding.migrations = %d, want 1", got)
	}
	if got := snap.CounterValue("sharding.stale_chunk_retries"); got > 64 {
		t.Errorf("sharding.stale_chunk_retries = %d, want bounded (<= 64)", got)
	}
	violations := uint64(0)
	for s := 0; s < c.NumShards(); s++ {
		violations += c.Shard(s).Metrics().Snapshot().CounterValue("freshness.bound_violations")
	}
	if violations != 0 {
		t.Errorf("freshness.bound_violations = %d across shards, want 0", violations)
	}
}

// TestMigrateChunkPurgesStaleDestinationCopy: a clone attempt must
// delete the destination's copy of the range before copying. The
// orphan here stands in for an aborted earlier migration (or a
// truncation resync's stale snapshot) whose document was since
// deleted on the source: it is in neither the new snapshot nor the
// replay stream, so without the purge it would survive the ownership
// flip and resurrect.
func TestMigrateChunkPurgesStaleDestinationCopy(t *testing.T) {
	env := sim.NewRealtimeEnv(13)
	defer env.Shutdown()
	cfg := shardConfig()
	cfg.ReplIdlePoll = 2 * time.Millisecond
	c := New(env, 2, []string{"doc200"}, cfg)
	r := NewRouter(env, c, core.DefaultParams())

	p := env.Adhoc("test")
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("doc%03d", i)
		if _, err := r.Insert(p, "kv", storage.D{"_id": id, "seq": int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	moved := c.Owner("doc250")
	dest := 1 - moved

	// Plant the orphan directly on the destination, inside the moving
	// range, bypassing the router — the source has never seen this id.
	orphan := "doc250-stale-orphan"
	dconn := r.conns[dest]
	if _, err := dconn.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Set("kv", orphan, storage.D{"_id": orphan, "seq": int64(-1)})
	}); err != nil {
		t.Fatal(err)
	}

	if err := r.MigrateChunk(p, "doc250", dest, MigrateOptions{}); err != nil {
		t.Fatalf("MigrateChunk: %v", err)
	}

	res, err := dconn.ExecRead(p, dconn.PrimaryID(), func(v cluster.ReadView) (any, error) {
		d, ok := v.FindByID("kv", orphan)
		if !ok {
			return nil, nil
		}
		return d, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("stale orphan %s survived the migration (purge-before-clone missing)", orphan)
	}
	// The legitimate documents all moved intact.
	docs, err := r.ScatterFind(p, "kv", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 300 {
		t.Fatalf("post-migration scatter saw %d docs, want 300", len(docs))
	}
}

// TestMigrateChunkErrors covers the guard rails.
func TestMigrateChunkErrors(t *testing.T) {
	env := sim.NewRealtimeEnv(9)
	defer env.Shutdown()
	c := New(env, 2, []string{"m"}, shardConfig())
	p := env.Adhoc("test")
	r := NewRouter(env, c, core.DefaultParams())
	if err := r.SplitChunk("m"); err == nil {
		t.Fatal("SplitChunk at an existing boundary succeeded")
	}
	if err := r.MigrateChunk(p, "a", 5, MigrateOptions{}); err == nil {
		t.Fatal("MigrateChunk to a bogus shard succeeded")
	}
	owner := c.Owner("a")
	if err := r.MigrateChunk(p, "a", owner, MigrateOptions{Collections: []string{"kv"}}); err == nil {
		t.Fatal("MigrateChunk to the current owner succeeded")
	}
	if err := r.MigrateChunk(p, "a", 1-owner, MigrateOptions{}); err == nil {
		t.Fatal("MigrateChunk with no known collections succeeded")
	}
}
