package cluster_test

import (
	"bytes"
	"fmt"
	"testing"

	"decongestant/internal/cluster"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
	"decongestant/internal/workload/tpcc"
)

// smallTPCC is a TPC-C population small enough to load in a test that
// still fills every collection and all three secondary indexes, with
// trees several levels deep.
func smallTPCC() tpcc.Scale {
	return tpcc.Scale{
		Warehouses:               1,
		DistrictsPerWH:           2,
		CustomersPerDistrict:     20,
		Items:                    1000,
		InitialOrdersPerDistrict: 300,
		UndeliveredFraction:      0.3,
	}
}

// tpccIndexes names the secondary indexes tpcc.Load creates.
var tpccIndexes = map[string][]string{
	tpcc.CollOrders:    {"wdo", "wdco"},
	tpcc.CollNewOrders: {"wdo"},
}

func newSet(t *testing.T, nodes int) *cluster.ReplicaSet {
	t.Helper()
	env := sim.NewEnv(1)
	t.Cleanup(env.Shutdown)
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	return cluster.New(env, cfg)
}

// ids lists a collection's _ids in order.
func ids(c *storage.Collection) []string {
	var out []string
	c.ScanIDs(func(id string) bool {
		out = append(out, id)
		return true
	})
	return out
}

// indexEntries lists an index's (key, _id) entries in key order.
func indexEntries(t *testing.T, c *storage.Collection, name string) [][2]string {
	t.Helper()
	var out [][2]string
	if !c.ScanIndex(name, func(k, id string) bool {
		out = append(out, [2]string{k, id})
		return true
	}) {
		t.Fatalf("collection has no index %q", name)
	}
	return out
}

// sameStore fails the test unless got holds the same collections,
// _ids, stored bytes and secondary index entries as want.
func sameStore(t *testing.T, label string, got, want *storage.Store, indexes map[string][]string) {
	t.Helper()
	gs, ws := got.Stats(), want.Stats()
	if len(gs.PerCollection) != len(ws.PerCollection) {
		t.Fatalf("%s: %d collections, want %d", label, len(gs.PerCollection), len(ws.PerCollection))
	}
	for i, wc := range ws.PerCollection {
		if gs.PerCollection[i] != wc {
			t.Fatalf("%s: collection stats %+v, want %+v", label, gs.PerCollection[i], wc)
		}
		gc, wcol := got.C(wc.Name), want.C(wc.Name)
		gids, wids := ids(gc), ids(wcol)
		if len(gids) != len(wids) {
			t.Fatalf("%s: %s holds %d ids, want %d", label, wc.Name, len(gids), len(wids))
		}
		for j, id := range wids {
			if gids[j] != id {
				t.Fatalf("%s: %s id %d is %q, want %q", label, wc.Name, j, gids[j], id)
			}
			ge, _ := gc.FindByIDEncoded(id)
			we, _ := wcol.FindByIDEncoded(id)
			if !bytes.Equal(ge.Bytes(), we.Bytes()) {
				t.Fatalf("%s: %s/%s stored bytes differ", label, wc.Name, id)
			}
		}
		for _, name := range indexes[wc.Name] {
			ge, we := indexEntries(t, gc, name), indexEntries(t, wcol, name)
			if len(ge) != len(we) {
				t.Fatalf("%s: %s.%s has %d entries, want %d", label, wc.Name, name, len(ge), len(we))
			}
			for j := range we {
				if ge[j] != we[j] {
					t.Fatalf("%s: %s.%s entry %d is %q, want %q", label, wc.Name, name, j, ge[j], we[j])
				}
			}
		}
	}
}

func TestBootstrapRunsLoaderOnce(t *testing.T) {
	rs := newSet(t, 3)
	calls := 0
	err := rs.Bootstrap(func(s *storage.Store) error {
		calls++
		return s.C("kv").Insert(storage.D{"_id": "k", "v": 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("Bootstrap ran its loader %d times on a 3-member set, want 1", calls)
	}
	for id := 0; id < 3; id++ {
		if d, ok := rs.NodeStore(id).C("kv").FindByID("k"); !ok || d["v"] != int64(1) {
			t.Fatalf("member %d holds %v (found %v)", id, d, ok)
		}
	}
}

// TestBootstrapMembersMatchTPCCLoad checks every member of a 3-member
// set against a one-member set that ran the same loader itself: the
// same collections, _ids, stored bytes and secondary index entries.
func TestBootstrapMembersMatchTPCCLoad(t *testing.T) {
	rs := newSet(t, 3)
	ref := newSet(t, 1)
	for _, set := range []*cluster.ReplicaSet{rs, ref} {
		if err := tpcc.Load(set, smallTPCC(), 11); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.NodeStore(0)
	if n := want.C(tpcc.CollOrders).Len(); n < 600 {
		t.Fatalf("reference load holds %d orders; the test needs multi-level index trees", n)
	}
	for id := 0; id < 3; id++ {
		sameStore(t, fmt.Sprintf("member %d", id), rs.NodeStore(id), want, tpccIndexes)
	}
}

// TestBootstrapMembersAreIndependent changes one member's store after
// Bootstrap and checks the others are untouched.
func TestBootstrapMembersAreIndependent(t *testing.T) {
	rs := newSet(t, 3)
	if err := tpcc.Load(rs, smallTPCC(), 5); err != nil {
		t.Fatal(err)
	}
	ref := newSet(t, 1)
	if err := tpcc.Load(ref, smallTPCC(), 5); err != nil {
		t.Fatal(err)
	}
	want := ref.NodeStore(0)

	order := tpcc.OrderID(1, 1, 1)
	// A $set that moves the order to another customer rewrites its
	// wdco index entry on member 1 only.
	set := storage.AppendDoc(nil, storage.D{"c_id": int64(999), "carrier": int64(7)})
	if _, _, err := rs.NodeStore(1).C(tpcc.CollOrders).ApplySetEncoded(order, set); err != nil {
		t.Fatal(err)
	}
	// A delete on member 2 drops the order and its index entries there.
	if rs.NodeStore(2).C(tpcc.CollOrders).Delete(tpcc.OrderID(1, 2, 3)) == nil {
		t.Fatal("delete on member 2 found nothing")
	}
	// An insert on member 0 adds an id the clones must not see.
	if err := rs.NodeStore(0).C(tpcc.CollItem).Insert(storage.D{"_id": "i_new", "i_id": 0}); err != nil {
		t.Fatal(err)
	}

	if d, _ := rs.NodeStore(1).C(tpcc.CollOrders).FindByID(order); d["c_id"] != int64(999) {
		t.Fatalf("member 1 lost its own $set: %v", d)
	}
	for _, id := range []int{0, 2} {
		if d, _ := rs.NodeStore(id).C(tpcc.CollOrders).FindByID(order); d["c_id"] == int64(999) {
			t.Fatalf("member 1's $set is visible on member %d", id)
		}
	}
	if _, ok := rs.NodeStore(2).C(tpcc.CollOrders).FindByID(tpcc.OrderID(1, 2, 3)); ok {
		t.Fatal("member 2 still holds the order it deleted")
	}
	for _, id := range []int{1, 2} {
		if _, ok := rs.NodeStore(id).C(tpcc.CollItem).FindByID("i_new"); ok {
			t.Fatalf("member 0's insert is visible on member %d", id)
		}
	}
	// Member 0's order indexes still hold the entries member 1 and 2
	// rewrote and dropped in theirs.
	for _, name := range tpccIndexes[tpcc.CollOrders] {
		got := indexEntries(t, rs.NodeStore(0).C(tpcc.CollOrders), name)
		ref := indexEntries(t, want.C(tpcc.CollOrders), name)
		if len(got) != len(ref) {
			t.Fatalf("member 0's orders.%s has %d entries, want %d", name, len(got), len(ref))
		}
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("member 0's orders.%s entry %d changed: %q, want %q", name, j, got[j], ref[j])
			}
		}
	}
	// Undo each change on its own member; all three then match the
	// reference again, index entries included.
	before, _ := want.C(tpcc.CollOrders).FindByIDEncoded(order)
	if _, err := rs.NodeStore(1).C(tpcc.CollOrders).ApplyBatch([]storage.ApplyOp{{Kind: storage.ApplyUpsert, Enc: bytes.Clone(before.Bytes())}}); err != nil {
		t.Fatal(err)
	}
	deleted, _ := want.C(tpcc.CollOrders).FindByIDEncoded(tpcc.OrderID(1, 2, 3))
	if _, err := rs.NodeStore(2).C(tpcc.CollOrders).ApplyBatch([]storage.ApplyOp{{Kind: storage.ApplyUpsert, Enc: bytes.Clone(deleted.Bytes())}}); err != nil {
		t.Fatal(err)
	}
	rs.NodeStore(0).C(tpcc.CollItem).Delete("i_new")
	for id := 0; id < 3; id++ {
		sameStore(t, fmt.Sprintf("restored member %d", id), rs.NodeStore(id), want, tpccIndexes)
	}
}
