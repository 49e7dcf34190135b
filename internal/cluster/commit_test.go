package cluster

import (
	"fmt"
	"testing"
	"time"

	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// TestFailedCommitChangesNothing: a transaction whose commit fails
// leaves the primary's store, its oplog and every secondary as they
// were, whichever of its mutations fails. Two failures are covered: a
// later mutation the store rejects (an array in an indexed field)
// after an earlier one already applied, and an insert whose _id a
// concurrent transaction committed between this one's staging and its
// commit. In both, exactly the acknowledged writes replicate.
func TestFailedCommitChangesNothing(t *testing.T) {
	env := sim.NewEnv(21)
	defer env.Shutdown()
	rs := New(env, fastConfig())
	err := rs.Bootstrap(func(s *storage.Store) error {
		c := s.C("kv")
		if _, err := c.CreateIndex("by_tag", false, "tag"); err != nil {
			return err
		}
		return c.Insert(storage.D{"_id": "a", "v": int64(1)})
	})
	if err != nil {
		t.Fatal(err)
	}
	prim := rs.Primary()

	// A Set on a, then an insert the tag index cannot key.
	var setErr error
	env.Spawn("set-then-bad-insert", func(p sim.Proc) {
		_, setErr = rs.ExecWrite(p, func(tx WriteTxn) (any, error) {
			if err := tx.Set("kv", "a", storage.D{"v": int64(2)}); err != nil {
				return nil, err
			}
			return nil, tx.Insert("kv", storage.D{"_id": "b", "tag": []any{int64(1)}})
		})
	})
	env.Run(time.Second)
	if setErr == nil {
		t.Fatal("an insert with an array in an indexed field committed")
	}
	if last := prim.OplogLast(); !last.IsZero() {
		t.Fatalf("the failed commit advanced the oplog to %v", last)
	}
	if got := prim.Stats().GroupCommits; got != 0 {
		t.Fatalf("the failed commit counted as %d commits", got)
	}
	for _, id := range rs.NodeIDs() {
		if d, _ := rs.NodeStore(id).C("kv").FindByID("a"); d.Int("v") != 1 {
			t.Fatalf("node %d: a = %v after the failed commit; want v:1", id, d)
		}
		if _, ok := rs.NodeStore(id).C("kv").FindByID("b"); ok {
			t.Fatalf("node %d stored b from the failed commit", id)
		}
	}

	// Two transactions stage an insert of x while neither has
	// committed: both pass the staging check, and the later commit must
	// fail instead of replacing the earlier one's document.
	var insErr [2]error
	for i := range insErr {
		env.Spawn(fmt.Sprintf("insert-x-%d", i), func(p sim.Proc) {
			_, insErr[i] = rs.ExecWrite(p, func(tx WriteTxn) (any, error) {
				if err := tx.Set("kv", "a", storage.D{"by": int64(i)}); err != nil {
					return nil, err
				}
				return nil, tx.Insert("kv", storage.D{"_id": "x", "w": int64(i)})
			})
		})
	}
	env.Run(2 * time.Second)
	winner := -1
	for i, err := range insErr {
		if err == nil {
			if winner >= 0 {
				t.Fatal("both concurrent inserts of x were acknowledged")
			}
			winner = i
		}
	}
	if winner < 0 {
		t.Fatalf("neither concurrent insert of x committed: %v, %v", insErr[0], insErr[1])
	}
	prim.mu.RLock()
	entries := prim.log.ScanAfter(nil, oplog.Zero, 0)
	prim.mu.RUnlock()
	if len(entries) != 2 {
		t.Fatalf("primary oplog holds %d entries; want the winner's set and insert", len(entries))
	}
	for _, id := range rs.NodeIDs() {
		if rs.Node(id).LastApplied() != prim.OplogLast() {
			t.Fatalf("node %d at %v; primary at %v", id, rs.Node(id).LastApplied(), prim.OplogLast())
		}
		c := rs.NodeStore(id).C("kv")
		x, _ := c.FindByID("x")
		a, _ := c.FindByID("a")
		if x.Int("w") != int64(winner) || a.Int("by") != int64(winner) || a.Int("v") != 1 {
			t.Fatalf("node %d: x = %v, a = %v; want the acknowledged writer %d's writes only", id, x, a, winner)
		}
	}
}

// TestFailedCommitRestoresVersions: a rejected commit puts back the
// very versions its earlier mutations replaced, stamps and all, rather
// than copies of their bytes: FindByIDEncoded returns the pointer it
// returned before the commit, for a document the commit $set and for
// one it deleted.
func TestFailedCommitRestoresVersions(t *testing.T) {
	env := sim.NewEnv(22)
	defer env.Shutdown()
	rs := New(env, fastConfig())
	err := rs.Bootstrap(func(s *storage.Store) error {
		c := s.C("kv")
		if _, err := c.CreateIndex("by_tag", false, "tag"); err != nil {
			return err
		}
		if err := c.Insert(storage.D{"_id": "a", "v": int64(1)}); err != nil {
			return err
		}
		return c.Insert(storage.D{"_id": "c", "v": int64(3)})
	})
	if err != nil {
		t.Fatal(err)
	}
	c := rs.NodeStore(rs.PrimaryID()).C("kv")
	a0, _ := c.FindByIDEncoded("a")
	c0, _ := c.FindByIDEncoded("c")
	var commitErr error
	env.Spawn("set-delete-then-bad-insert", func(p sim.Proc) {
		_, commitErr = rs.ExecWrite(p, func(tx WriteTxn) (any, error) {
			if err := tx.Set("kv", "a", storage.D{"v": int64(2)}); err != nil {
				return nil, err
			}
			if err := tx.Delete("kv", "c"); err != nil {
				return nil, err
			}
			return nil, tx.Insert("kv", storage.D{"_id": "b", "tag": []any{int64(1)}})
		})
	})
	env.Run(time.Second)
	if commitErr == nil {
		t.Fatal("an insert with an array in an indexed field committed")
	}
	if a1, _ := c.FindByIDEncoded("a"); a1 != a0 {
		t.Errorf("a is %p after the failed commit, %p before", a1, a0)
	}
	if c1, _ := c.FindByIDEncoded("c"); c1 != c0 {
		t.Errorf("c is %p after the failed commit, %p before", c1, c0)
	}
	if a0.Stamp() == (storage.Stamp{}) || c0.Stamp() == (storage.Stamp{}) {
		t.Error("a loaded version carries the zero stamp")
	}
}
