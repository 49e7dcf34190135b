package sharding

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

func shardConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.ReplIdlePoll = 5 * time.Millisecond
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	return cfg
}

// evenSplits returns the split points that cut the keys
// fmt.Sprintf(format, i), 0 <= i < n, into shards ranges; for a
// zero-padded format each range holds n/shards keys.
func evenSplits(format string, n, shards int) []string {
	var out []string
	for s := 1; s < shards; s++ {
		out = append(out, fmt.Sprintf(format, s*n/shards))
	}
	return out
}

func TestShardedCRUDRoutesToOwningShard(t *testing.T) {
	env := sim.NewEnv(2)
	defer env.Shutdown()
	c := New(env, 3, evenSplits("k%d", 30, 3), shardConfig())
	r := NewRouter(env, c, core.DefaultParams())

	var readBack storage.Document
	env.Spawn("client", func(p sim.Proc) {
		for i := 0; i < 30; i++ {
			id := fmt.Sprintf("k%d", i)
			if _, err := r.Insert(p, "kv", storage.D{"_id": id, "v": i}); err != nil {
				t.Errorf("insert %s: %v", id, err)
				return
			}
		}
		if _, err := r.Upsert(p, "kv", "k7", storage.D{"v": 700}); err != nil {
			t.Error(err)
			return
		}
		d, _, _, err := r.ReadByID(p, "kv", "k7")
		if err != nil {
			t.Error(err)
			return
		}
		readBack = d
		if _, err := r.Delete(p, "kv", "k3"); err != nil {
			t.Error(err)
		}
		if d, _, _, _ := r.ReadByID(p, "kv", "k3"); d != nil {
			t.Error("k3 survived delete")
		}
	})
	env.Run(5 * time.Second)
	if readBack == nil || readBack.Int("v") != 700 {
		t.Fatalf("read back %v", readBack)
	}
	// Documents must live only on their owning shard's primary.
	for i := 0; i < 30; i++ {
		if i == 3 {
			continue
		}
		id := fmt.Sprintf("k%d", i)
		owner := c.Owner(id)
		for s := 0; s < c.NumShards(); s++ {
			var found bool
			env.Spawn("check", func(p sim.Proc) {
				res, _ := c.Shard(s).ExecRead(p, c.Shard(s).PrimaryID(), func(v cluster.ReadView) (any, error) {
					_, ok := v.FindByID("kv", id)
					return ok, nil
				})
				found = res.(bool)
			})
			env.Run(env.Now() + 50*time.Millisecond)
			if found != (s == owner) {
				t.Fatalf("doc %s found=%v on shard %d (owner %d)", id, found, s, owner)
			}
		}
	}
}

func TestScatterFindMergesAcrossShards(t *testing.T) {
	env := sim.NewEnv(3)
	defer env.Shutdown()
	c := New(env, 3, evenSplits("item%02d", 60, 3), shardConfig())
	r := NewRouter(env, c, core.DefaultParams())
	// Load via Bootstrap so each shard holds only its own documents.
	err := c.Bootstrap(func(shard int, s *storage.Store) error {
		for i := 0; i < 60; i++ {
			id := fmt.Sprintf("item%02d", i)
			if c.Owner(id) != shard {
				continue
			}
			if err := s.C("items").Insert(storage.D{"_id": id, "grp": i % 2}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var docs []storage.Document
	env.Spawn("client", func(p sim.Proc) {
		var err error
		docs, err = r.ScatterFind(p, "items", storage.Filter{"grp": storage.Eq(1)}, 0)
		if err != nil {
			t.Error(err)
		}
	})
	env.Run(2 * time.Second)
	if len(docs) != 30 {
		t.Fatalf("scatter found %d docs, want 30", len(docs))
	}
	for i := 1; i < len(docs); i++ {
		if docs[i-1].ID() >= docs[i].ID() {
			t.Fatal("merged results not id-ordered")
		}
	}
	// Limit applies across the union.
	env.Spawn("client2", func(p sim.Proc) {
		limited, err := r.ScatterFind(p, "items", storage.Filter{"grp": storage.Eq(1)}, 7)
		if err != nil || len(limited) != 7 {
			t.Errorf("limited scatter: %d docs err %v", len(limited), err)
		}
	})
	env.Run(4 * time.Second)
}

// TestPerShardAdaptationIndependence validates §2.2's remark: with one
// shard's keys hot and the others idle, only the hot shard's Read
// Balancer shifts load to its secondaries.
func TestPerShardAdaptationIndependence(t *testing.T) {
	env := sim.NewEnv(4)
	defer env.Shutdown()
	cfg := shardConfig()
	cfg.CPUSlots = 8
	cfg.ReadCost = 3 * time.Millisecond
	c := New(env, 2, []string{"m"}, cfg)
	params := core.DefaultParams()
	params.Period = 3 * time.Second
	r := NewRouter(env, c, params)

	// Find a key owned by shard 0 to hammer.
	hotKey := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("hot%d", i)
		if c.Owner(k) == 0 {
			hotKey = k
			break
		}
	}
	c.Bootstrap(func(shard int, s *storage.Store) error {
		if shard == c.Owner(hotKey) {
			return s.C("kv").Insert(storage.D{"_id": hotKey, "v": 0})
		}
		return nil
	})
	for i := 0; i < 100; i++ {
		env.Spawn("hot-client", func(p sim.Proc) {
			for {
				r.ReadByID(p, "kv", hotKey)
			}
		})
	}
	env.Run(60 * time.Second)
	fr := r.Fractions()
	if fr[0] < 50 {
		t.Errorf("hot shard fraction %d%%, want it to climb", fr[0])
	}
	if fr[1] > 20 {
		t.Errorf("idle shard fraction %d%%, want it to stay near the floor", fr[1])
	}
}

// TestShardedBootstrapSyncsEachShard: Cluster.Bootstrap runs its
// loader once per shard, and every member of a shard then holds that
// shard's documents byte for byte, with the index built on each.
func TestShardedBootstrapSyncsEachShard(t *testing.T) {
	env := sim.NewEnv(4)
	defer env.Shutdown()
	c := New(env, 3, evenSplits("item%03d", 300, 3), shardConfig())
	calls := make([]int, c.NumShards())
	owned := make([]int, c.NumShards())
	grp2 := make([]int, c.NumShards())
	err := c.Bootstrap(func(shard int, s *storage.Store) error {
		calls[shard]++
		items := s.C("items")
		if _, err := items.CreateIndex("grp", false, "grp"); err != nil {
			return err
		}
		for i := 0; i < 300; i++ {
			id := fmt.Sprintf("item%03d", i)
			if c.Owner(id) != shard {
				continue
			}
			owned[shard]++
			if i%5 == 2 {
				grp2[shard]++
			}
			if err := items.Insert(storage.D{"_id": id, "grp": i % 5}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for shard, n := range calls {
		if n != 1 {
			t.Fatalf("shard %d loader ran %d times, want 1", shard, n)
		}
	}
	ran := false
	env.Spawn("reader", func(p sim.Proc) {
		defer func() { ran = true }()
		for shard := 0; shard < c.NumShards(); shard++ {
			rs := c.Shard(shard)
			var first [][]byte
			for _, id := range rs.NodeIDs() {
				res, err := rs.ExecRead(p, id, func(v cluster.ReadView) (any, error) {
					ev := v.(cluster.EncodedReadView)
					var out [][]byte
					for _, e := range ev.FindEncoded("items", storage.Filter{}, 0) {
						out = append(out, e.Bytes())
					}
					// An indexed query sees the same group on every member.
					if n := len(ev.FindEncoded("items", storage.Filter{"grp": storage.Eq(int64(2))}, 0)); n != grp2[shard] {
						return nil, fmt.Errorf("grp 2 holds %d documents, want %d", n, grp2[shard])
					}
					return out, nil
				})
				if err != nil {
					t.Errorf("shard %d member %d: %v", shard, id, err)
					return
				}
				docs := res.([][]byte)
				if len(docs) != owned[shard] {
					t.Errorf("shard %d member %d holds %d documents, want %d", shard, id, len(docs), owned[shard])
					return
				}
				if first == nil {
					first = docs
					continue
				}
				for i := range docs {
					if !bytes.Equal(docs[i], first[i]) {
						t.Errorf("shard %d member %d document %d differs from member 0's", shard, id, i)
						return
					}
				}
			}
		}
	})
	env.Run(time.Second)
	if !ran {
		t.Fatal("reader did not finish")
	}
}
