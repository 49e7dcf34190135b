package sharding

// Regression tests for exact ScatterCount (PR 9, closing DESIGN.md's
// old limitation (c)): during a chunk migration the moving range
// transiently exists on both source and destination, and a per-shard
// count sum used to overcount it. Counts are now bounded per shard by
// the ranges it owns under one authoritative table snapshot.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decongestant/internal/storage"

	"decongestant/internal/core"
	"decongestant/internal/sim"
)

// TestScatterCountChunkModeExact: steady state, chunk mode — the
// ownership-bounded count matches the document population, with and
// without a field filter, and the _id-constrained fallback path still
// answers.
func TestScatterCountChunkModeExact(t *testing.T) {
	env := sim.NewRealtimeEnv(71)
	defer env.Shutdown()
	c := New(env, 2, []string{"doc100", "doc200"}, shardConfig())
	r := NewRouter(env, c, core.DefaultParams())

	p := env.Adhoc("loader")
	const numDocs = 300
	for i := 0; i < numDocs; i++ {
		doc := storage.D{"_id": fmt.Sprintf("doc%03d", i), "grp": int64(i % 3)}
		if _, err := r.Insert(p, "kv", doc); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := r.ScatterCount(p, "kv", nil); err != nil || n != numDocs {
		t.Fatalf("unfiltered count = %d, %v; want %d", n, err, numDocs)
	}
	f := storage.Filter{"grp": storage.Eq(int64(1))}
	if n, err := r.ScatterCount(p, "kv", f); err != nil || n != numDocs/3 {
		t.Fatalf("filtered count = %d, %v; want %d", n, err, numDocs/3)
	}
	idf := storage.Filter{"_id": storage.Gte("doc200")}
	if n, err := r.ScatterCount(p, "kv", idf); err != nil || n != 100 {
		t.Fatalf("_id-filtered count = %d, %v; want 100", n, err)
	}
}

// TestScatterCountExactDuringMigration: a counter hammers ScatterCount
// while a chunk migrates (clone, catch-up, freeze, flip, cleanup) and
// upsert writers churn the moving range. The count must never deviate
// from the fixed population — before the fix the copy phase double
// counted the moving range on source and destination.
func TestScatterCountExactDuringMigration(t *testing.T) {
	const numDocs = 300
	env := sim.NewRealtimeEnv(72)
	defer env.Shutdown()
	cfg := shardConfig()
	cfg.ReplIdlePoll = 2 * time.Millisecond
	c := New(env, 2, []string{"doc200"}, cfg)
	r := NewRouter(env, c, core.DefaultParams())

	id := func(i int) string { return fmt.Sprintf("doc%03d", i) }
	moved := c.Owner("doc250")
	dest := 1 - moved

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
		stop   atomic.Bool
		failMu sync.Mutex
		fail   = func(format string, args ...any) {
			failMu.Lock()
			defer failMu.Unlock()
			t.Errorf(format, args...)
			stop.Store(true)
		}
	)
	var wg sync.WaitGroup

	// Writers churn the moving range so the count races clone batches
	// and frozen-tail replay, not just a quiescent copy.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := env.Adhoc("writer")
		for i, seq := 200, int64(0); !stop.Load(); i = 200 + (i-199)%100 {
			seq++
			if _, err := r.Upsert(p, "kv", id(i), storage.D{"seq": seq}); err != nil {
				fail("upsert %s: %v", id(i), err)
				return
			}
		}
	}()

	counts := new(atomic.Int64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := env.Adhoc("counter")
		for !stop.Load() {
			n, err := r.ScatterCount(p, "kv", nil)
			if err != nil {
				fail("count: %v", err)
				return
			}
			if n != numDocs {
				fail("count = %d mid-migration, want %d (orphans or double-counted range)", n, numDocs)
				return
			}
			counts.Add(1)
		}
	}()

	time.Sleep(50 * time.Millisecond)
	mig := env.Adhoc("migrator")
	if err := r.MigrateChunk(mig, "doc250", dest, MigrateOptions{}); err != nil {
		t.Fatalf("MigrateChunk: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	// Move it back: the counter also spans a migration whose source is
	// the destination of the first.
	if err := r.MigrateChunk(mig, "doc250", moved, MigrateOptions{}); err != nil {
		t.Fatalf("MigrateChunk back: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if t.Failed() {
		return
	}
	if counts.Load() == 0 {
		t.Fatal("counter never completed a ScatterCount")
	}
	if r.Authority().Version() < 3 {
		t.Fatalf("table version %d, want >= 3 after two moves", r.Authority().Version())
	}
}
