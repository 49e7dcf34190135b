package sharding

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"decongestant/internal/core"
	"decongestant/internal/driver"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

func TestMergeByID(t *testing.T) {
	mk := func(ids ...string) []storage.Document {
		out := make([]storage.Document, len(ids))
		for i, id := range ids {
			out[i] = storage.D{"_id": id}
		}
		return out
	}
	ids := func(docs []storage.Document) []string {
		out := make([]string, len(docs))
		for i, d := range docs {
			out[i] = d.ID()
		}
		return out
	}
	eq := func(got []storage.Document, want ...string) {
		t.Helper()
		g := ids(got)
		if len(g) != len(want) {
			t.Fatalf("merged %v, want %v", g, want)
		}
		for i := range g {
			if g[i] != want[i] {
				t.Fatalf("merged %v, want %v", g, want)
			}
		}
	}
	runs := func(rs ...[]storage.Document) []shardRun {
		out := make([]shardRun, len(rs))
		for i, r := range rs {
			out[i] = shardRun{shard: i, docs: r}
		}
		return out
	}
	eq(mergeByID(nil, 0, nil))
	eq(mergeByID(runs(mk("a", "c")), 0, nil), "a", "c")
	eq(mergeByID(runs(mk("a", "d"), mk("b", "c", "e")), 0, nil), "a", "b", "c", "d", "e")
	eq(mergeByID(runs(mk("a", "d"), mk("b", "c", "e")), 3, nil), "a", "b", "c")
	// A migrating chunk exists on two shards at once: equal ids must
	// merge to one copy, in every arrangement.
	eq(mergeByID(runs(mk("a", "b"), mk("b", "c")), 0, nil), "a", "b", "c")
	eq(mergeByID(runs(mk("a", "b", "b2")), 0, nil), "a", "b", "b2")
	eq(mergeByID(runs(mk("x", "x")), 0, nil), "x")
}

// TestMergeByIDPrefersOwner: duplicate _ids across shards resolve to
// the owning shard's copy — the other copy is a migration clone that
// may be stale — regardless of which run the heap pops first, and
// even when the duplicate pops after the limit is reached.
func TestMergeByIDPrefersOwner(t *testing.T) {
	doc := func(id string, v int64) storage.Document { return storage.D{"_id": id, "v": v} }
	owner := func(id string) int { return 1 } // shard 1 owns everything
	find := func(docs []storage.Document, id string) storage.Document {
		t.Helper()
		for _, d := range docs {
			if d.ID() == id {
				return d
			}
		}
		t.Fatalf("id %s missing from %v", id, docs)
		return nil
	}
	for _, order := range [][]shardRun{
		{{shard: 0, docs: []storage.Document{doc("a", 1), doc("b", 1)}},
			{shard: 1, docs: []storage.Document{doc("b", 2), doc("c", 2)}}},
		{{shard: 1, docs: []storage.Document{doc("b", 2), doc("c", 2)}},
			{shard: 0, docs: []storage.Document{doc("a", 1), doc("b", 1)}}},
	} {
		got := mergeByID(order, 0, owner)
		if len(got) != 3 {
			t.Fatalf("merged %d docs, want 3", len(got))
		}
		if v := find(got, "b").Int("v"); v != 2 {
			t.Fatalf("duplicate b resolved to v=%d, want the owner's copy (v=2)", v)
		}
	}
	// Limit hit exactly at the duplicate: the owner's copy must still
	// displace the stale one before the merge stops.
	got := mergeByID([]shardRun{
		{shard: 0, docs: []storage.Document{doc("a", 1), doc("b", 1)}},
		{shard: 1, docs: []storage.Document{doc("b", 2)}},
	}, 2, owner)
	if len(got) != 2 {
		t.Fatalf("merged %d docs, want 2", len(got))
	}
	if v := find(got, "b").Int("v"); v != 2 {
		t.Fatalf("limit-edge duplicate b resolved to v=%d, want the owner's copy (v=2)", v)
	}
}

// scatterCluster loads a 3-shard realtime cluster with docs and
// returns routers in parallel and sequential scatter modes over the
// same shards, plus a proc to drive them from.
func scatterCluster(t testing.TB, docs int) (*Cluster, *Router, *Router, sim.Proc, func()) {
	t.Helper()
	env := sim.NewRealtimeEnv(11)
	cfg := shardConfig()
	cfg.ReplIdlePoll = 2 * time.Millisecond
	c := New(env, 3, cfg)
	err := c.Bootstrap(func(shard int, s *storage.Store) error {
		for i := 0; i < docs; i++ {
			id := fmt.Sprintf("item%04d", i)
			if c.ShardFor(id) != shard {
				continue
			}
			if err := s.C("items").Insert(storage.D{"_id": id, "grp": int64(i % 4), "val": int64(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]driver.Conn, c.NumShards())
	for i := range conns {
		conns[i] = driver.WrapCluster(c.Shard(i))
	}
	par := NewConnRouter(env, conns, core.DefaultParams(), RouterOptions{})
	seq := NewConnRouter(env, conns, core.DefaultParams(), RouterOptions{SequentialScatter: true})
	return c, par, seq, env.Adhoc("test"), env.Shutdown
}

func TestScatterFindParallelMatchesSequential(t *testing.T) {
	_, par, seq, p, stop := scatterCluster(t, 120)
	defer stop()
	for _, limit := range []int{0, 7, 30, 500} {
		f := storage.Filter{"grp": storage.Eq(int64(1))}
		a, err := par.ScatterFind(p, "items", f, limit)
		if err != nil {
			t.Fatal(err)
		}
		b, err := seq.ScatterFind(p, "items", f, limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("limit %d: parallel %d docs, sequential %d", limit, len(a), len(b))
		}
		for i := range a {
			if a[i].ID() != b[i].ID() || a[i].Int("val") != b[i].Int("val") {
				t.Fatalf("limit %d: doc %d differs: %v vs %v", limit, i, a[i], b[i])
			}
		}
		for i := 1; i < len(a); i++ {
			if a[i-1].ID() >= a[i].ID() {
				t.Fatal("parallel merge not id-ordered")
			}
		}
	}
	na, err := par.ScatterCount(p, "items", storage.Filter{"grp": storage.Eq(int64(2))})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := seq.ScatterCount(p, "items", storage.Filter{"grp": storage.Eq(int64(2))})
	if err != nil {
		t.Fatal(err)
	}
	if na != nb || na != 30 {
		t.Fatalf("counts: parallel %d, sequential %d, want 30", na, nb)
	}
}

func TestScatterPartialFailureSemantics(t *testing.T) {
	c, par, _, p, stop := scatterCluster(t, 60)
	defer stop()

	full, err := par.ScatterFind(p, "items", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 60 {
		t.Fatalf("full scatter found %d docs, want 60", len(full))
	}

	// Take shard 1 down entirely: its reads fail at every node.
	down := c.Shard(1)
	for _, id := range down.NodeIDs() {
		down.SetDown(id, true)
	}

	docs, err := par.ScatterFind(p, "items", nil, 0)
	var perr *PartialError
	if !errors.As(err, &perr) {
		t.Fatalf("scatter with a down shard returned %v, want *PartialError", err)
	}
	if failed := perr.Failed(); len(failed) != 1 || failed[0].Shard != 1 {
		t.Fatalf("failed outcomes = %+v, want exactly shard 1", failed)
	}
	if len(docs) == 0 || len(docs) >= 60 {
		t.Fatalf("partial results carried %d docs, want the two live shards' share", len(docs))
	}
	for _, d := range docs {
		if c.ShardFor(d.ID()) == 1 {
			t.Fatalf("doc %s from the down shard in partial results", d.ID())
		}
	}

	// AllowPartial turns the same outcome into a success.
	okDocs, err := par.ScatterFindOpts(p, "items", nil, 0, ScatterOptions{AllowPartial: true})
	if err != nil {
		t.Fatalf("AllowPartial scatter: %v", err)
	}
	if len(okDocs) != len(docs) {
		t.Fatalf("AllowPartial returned %d docs, plain partial %d", len(okDocs), len(docs))
	}
	n, err := par.ScatterCountOpts(p, "items", nil, ScatterOptions{AllowPartial: true})
	if err != nil || n != len(docs) {
		t.Fatalf("AllowPartial count = %d (%v), want %d", n, err, len(docs))
	}

	// Every shard down: AllowPartial must still fail.
	for s := 0; s < c.NumShards(); s++ {
		rs := c.Shard(s)
		for _, id := range rs.NodeIDs() {
			rs.SetDown(id, true)
		}
	}
	if _, err := par.ScatterFindOpts(p, "items", nil, 0, ScatterOptions{AllowPartial: true}); err == nil {
		t.Fatal("scatter with every shard down succeeded")
	}

	snap := par.Registry().Snapshot()
	if got := snap.CounterValue("sharding.scatter_partial"); got < 3 {
		t.Fatalf("sharding.scatter_partial = %d, want >= 3", got)
	}
}
