package cluster_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// adoptConfig replicates quickly and keeps a short oplog, so a member
// held down for a few hundred writes falls off it and resyncs.
func adoptConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.ReplIdlePoll = 5 * time.Millisecond
	cfg.HeartbeatInterval = 100 * time.Millisecond
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	cfg.FlowControlLagSecs = 0
	cfg.OplogCap = 64
	cfg.OplogHardCap = 128
	return cfg
}

// adoptedSets sums the set entries the members' pullers applied by
// storing the primary's version, and by splicing.
func adoptedSets(rs *cluster.ReplicaSet) (adopted, spliced int64) {
	for _, id := range rs.NodeIDs() {
		st := rs.Node(id).Stats()
		adopted += st.AdoptedSets
		spliced += st.SplicedSets
	}
	return adopted, spliced
}

// TestAdoptMatchesModel drives random inserts, $sets and deletes
// through the real commit path and pullers of a three-member set —
// with transactions that $set one hot key twice, a failover, and a
// member forced to resync — against a map model. Once replication
// drains, every member holds exactly the model's encoding of every
// document, and the members adopted the primary's versions of sets
// rather than splicing all of them.
func TestAdoptMatchesModel(t *testing.T) {
	env := sim.NewEnv(7)
	defer env.Shutdown()
	rs := cluster.New(env, adoptConfig())
	const coll = "kv"
	model := map[string]storage.Document{}
	set := func(id string, fields storage.D) {
		d, ok := model[id]
		if !ok {
			d = storage.Document{"_id": id}
			model[id] = d
		}
		for k, v := range fields {
			d[k] = v
		}
	}
	rng := rand.New(rand.NewSource(7))
	var failures []string
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	write := func(p sim.Proc, fn func(tx cluster.WriteTxn) error) {
		if _, err := rs.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) { return nil, fn(tx) }); err != nil {
			fail("write: %v", err)
		}
	}
	// step issues one random transaction and mirrors it in the model.
	step := func(p sim.Proc, i int) {
		id := fmt.Sprintf("k%02d", rng.Intn(24))
		v := int64(i)
		switch r := rng.Intn(10); {
		case r < 2:
			if _, exists := model[id]; exists {
				write(p, func(tx cluster.WriteTxn) error { return tx.Delete(coll, id) })
				delete(model, id)
				return
			}
			doc := storage.D{"_id": id, "v": v, "pad": strings.Repeat("x", 64+rng.Intn(64))}
			write(p, func(tx cluster.WriteTxn) error { return tx.Insert(coll, doc) })
			model[id] = storage.Document{"_id": id, "v": v, "pad": doc["pad"]}
		case r < 4:
			// Two $sets of one hot key in one transaction: one commit,
			// so one getMore batch carries both entries.
			write(p, func(tx cluster.WriteTxn) error {
				if err := tx.Set(coll, "hot", storage.D{"a": v}); err != nil {
					return err
				}
				return tx.Set(coll, "hot", storage.D{"b": v, "a": v + 1})
			})
			set("hot", storage.D{"a": v + 1, "b": v})
		default:
			f := fmt.Sprintf("f%d", rng.Intn(4))
			write(p, func(tx cluster.WriteTxn) error { return tx.Set(coll, id, storage.D{f: v}) })
			set(id, storage.D{f: v})
		}
	}
	const phase = 200
	var resyncID int
	env.Spawn("driver", func(p sim.Proc) {
		i := 0
		for ; i < phase; i++ {
			step(p, i)
			p.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
		p.Sleep(time.Second)
		rs.Failover(p)
		for ; i < 2*phase; i++ {
			step(p, i)
			p.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
		// Hold one secondary down past the primary's hard cap: on its
		// return its fetch position is gone and it resyncs.
		resyncID = rs.SecondaryIDs()[0]
		rs.SetDown(resyncID, true)
		for ; i < 4*phase; i++ {
			step(p, i)
		}
		rs.SetDown(resyncID, false)
		p.Sleep(time.Second)
		for ; i < 5*phase; i++ {
			step(p, i)
			p.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
	})
	env.Run(60 * time.Second)
	for _, f := range failures {
		t.Error(f)
	}
	if got := rs.Node(resyncID).Stats().Resyncs; got < 1 {
		t.Fatalf("member %d never resynced", resyncID)
	}
	for _, id := range rs.NodeIDs() {
		c := rs.NodeStore(id).C(coll)
		if c.Len() != len(model) {
			t.Errorf("member %d holds %d documents, model %d", id, c.Len(), len(model))
		}
		for docID, want := range model {
			e, ok := c.FindByIDEncoded(docID)
			if !ok || !bytes.Equal(e.Bytes(), storage.EncodeDoc(want)) {
				t.Fatalf("member %d: %s = %v, want %v", id, docID, e.Doc(), want)
			}
		}
	}
	adopted, spliced := adoptedSets(rs)
	t.Logf("sets applied by the pullers: %d adopted, %d spliced", adopted, spliced)
	if adopted == 0 {
		t.Fatal("no puller adopted the primary's version of a set")
	}
}

// TestAdoptRefusedOnStampMismatch: a member whose version of a
// document carries a stamp other than the one the primary's new
// version replaced splices the set into its own version, even when its
// bytes are the same, while a member holding the replaced version
// stores the primary's.
func TestAdoptRefusedOnStampMismatch(t *testing.T) {
	env := sim.NewEnv(3)
	defer env.Shutdown()
	rs := cluster.New(env, adoptConfig())
	if err := rs.Bootstrap(func(s *storage.Store) error {
		return s.C("kv").Insert(storage.D{"_id": "d", "v": int64(1), "pad": strings.Repeat("p", 1024)})
	}); err != nil {
		t.Fatal(err)
	}
	sec := rs.SecondaryIDs()
	restamped, shared := sec[0], sec[1]
	if err := rs.Restamp(restamped, "kv", "d"); err != nil {
		t.Fatal(err)
	}
	env.Spawn("writer", func(p sim.Proc) {
		if _, err := rs.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Set("kv", "d", storage.D{"v": int64(2)})
		}); err != nil {
			t.Error(err)
		}
	})
	env.Run(time.Second)
	prim, _ := rs.NodeStore(rs.PrimaryID()).C("kv").FindByIDEncoded("d")
	if st := rs.Node(restamped).Stats(); st.AdoptedSets != 0 || st.SplicedSets != 1 {
		t.Errorf("restamped member: %d adopted, %d spliced; want 0 and 1", st.AdoptedSets, st.SplicedSets)
	}
	if st := rs.Node(shared).Stats(); st.AdoptedSets != 1 || st.SplicedSets != 0 {
		t.Errorf("member holding the replaced version: %d adopted, %d spliced; want 1 and 0", st.AdoptedSets, st.SplicedSets)
	}
	own, _ := rs.NodeStore(restamped).C("kv").FindByIDEncoded("d")
	if own == prim || !bytes.Equal(own.Bytes(), prim.Bytes()) {
		t.Errorf("restamped member: shares the primary's version %v, or its bytes differ", own == prim)
	}
	if own.Stamp() != prim.Stamp() {
		t.Errorf("restamped member's splice is stamped %v, the primary's version %v", own.Stamp(), prim.Stamp())
	}
	if got, _ := rs.NodeStore(shared).C("kv").FindByIDEncoded("d"); got != prim {
		t.Error("member holding the replaced version does not share the primary's version")
	}
}

// TestAdoptRetention: while one secondary is down, a stream of $sets
// to one 1 KB document keeps no version alive beyond the ones the
// members hold. The down member still holds the document's first
// version, and live heap grows by no more than the oplogs do.
func TestAdoptRetention(t *testing.T) {
	env := sim.NewEnv(11)
	defer env.Shutdown()
	cfg := adoptConfig()
	cfg.OplogCap = 1000
	cfg.OplogHardCap = 2000
	rs := cluster.New(env, cfg)
	if err := rs.Bootstrap(func(s *storage.Store) error {
		return s.C("kv").Insert(storage.D{"_id": "d", "n": int64(0), "pad": strings.Repeat("p", 1024)})
	}); err != nil {
		t.Fatal(err)
	}
	down := rs.SecondaryIDs()[0]
	rs.SetDown(down, true)
	first, _ := rs.NodeStore(down).C("kv").FindByIDEncoded("d")
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	const writes = 10_000
	done := false
	env.Spawn("writer", func(p sim.Proc) {
		defer func() { done = true }()
		for i := 1; i <= writes; i++ {
			if _, err := rs.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
				return nil, tx.Set("kv", "d", storage.D{"n": int64(i)})
			}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	for horizon := time.Second; !done; horizon += time.Second {
		env.Run(horizon)
	}
	env.Run(env.Now() + time.Second) // the live secondary catches up
	after := heap()
	if d, _ := rs.NodeStore(rs.PrimaryID()).C("kv").FindByID("d"); d.Int("n") != writes {
		t.Fatalf("primary holds n = %d after %d writes", d.Int("n"), writes)
	}
	if held, _ := rs.NodeStore(down).C("kv").FindByIDEncoded("d"); held != first {
		t.Fatal("the down member's version changed")
	}
	logs := rs.OplogBytes()
	grew := int64(after) - int64(before)
	t.Logf("live heap grew %d B over %d writes; the oplogs hold at most %d B", grew, writes, logs)
	if grew >= logs+1<<20 {
		t.Fatalf("live heap grew %d B, past the oplogs' %d B plus 1 MB: versions are retained", grew, logs)
	}
	if adopted, _ := adoptedSets(rs); adopted == 0 {
		t.Fatal("the live secondary never adopted the primary's version")
	}
}
