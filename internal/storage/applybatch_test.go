package storage

// Tests for the replication apply entry points (ApplySetEncoded,
// ApplyBatch) and the initial-sync shallow clone.

import (
	"bytes"
	"testing"
)

// upsert stores enc, a document in its stored form, as an oplog insert
// does.
func upsert(c *Collection, enc []byte) error {
	_, err := c.ApplyBatch([]ApplyOp{{Kind: ApplyUpsert, Enc: enc}})
	return err
}

func TestApplyBatchMixedOps(t *testing.T) {
	c := NewStore().C("c")
	if _, err := c.CreateIndex("grp", false, "grp"); err != nil {
		t.Fatal(err)
	}
	ops := []ApplyOp{
		{Kind: ApplyUpsert, ID: "a", Enc: EncodeDoc(D{"_id": "a", "grp": int64(1), "v": int64(1)})},
		{Kind: ApplyUpsert, ID: "b", Enc: EncodeDoc(D{"_id": "b", "grp": int64(2), "v": int64(2)})},
		{Kind: ApplyMerge, ID: "a", Enc: EncodeDoc(D{"v": int64(10)})},
		{Kind: ApplyDelete, ID: "b"},
		{Kind: ApplyMerge, ID: "ghost", Enc: EncodeDoc(D{"grp": int64(3)})}, // upserting merge
	}
	n, err := c.ApplyBatch(ops)
	if err != nil || n.Applied != len(ops) || n.Spliced != 2 || n.Adopted != 0 {
		t.Fatalf("applied=%+v err=%v", n, err)
	}
	a, ok := c.FindByID("a")
	if !ok || a.Int("v") != 10 || a.Int("grp") != 1 {
		t.Fatalf("a=%v", a)
	}
	if _, ok := c.FindByID("b"); ok {
		t.Fatal("b survived delete")
	}
	// Index must reflect the batch: a moved nowhere, b gone, ghost added.
	if got := c.Find(Filter{"grp": Eq(int64(2))}, 0); len(got) != 0 {
		t.Fatalf("grp=2 still indexed: %v", got)
	}
	if got := c.Find(Filter{"grp": Eq(int64(3))}, 0); len(got) != 1 {
		t.Fatalf("ghost not indexed: %v", got)
	}
}

func TestApplyBatchSkipsBadOpAndReportsFirstError(t *testing.T) {
	c := NewStore().C("c")
	ops := []ApplyOp{
		{Kind: ApplyUpsert, ID: "a", Enc: EncodeDoc(D{"_id": "a", "v": int64(1)})},
		{Kind: ApplyUpsert, ID: "bad", Enc: EncodeDoc(D{"v": int64(2)})}, // no _id
		{Kind: ApplyUpsert, ID: "b", Enc: EncodeDoc(D{"_id": "b", "v": int64(3)})},
	}
	n, err := c.ApplyBatch(ops)
	if n.Applied != 2 || err == nil {
		t.Fatalf("applied=%d err=%v, want 2 with error", n.Applied, err)
	}
	if _, ok := c.FindByID("b"); !ok {
		t.Fatal("op after the failure was not applied")
	}
}

func TestOwnedVariantsMatchPublicOnes(t *testing.T) {
	plain := NewStore().C("c")
	owned := NewStore().C("c")
	doc := D{"_id": "k", "v": int64(1), "arr": []any{int64(1), int64(2)}}
	if err := upsert(plain, encoded(doc)); err != nil {
		t.Fatal(err)
	}
	norm, err := doc.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if err := upsert(owned, encoded(norm)); err != nil {
		t.Fatal(err)
	}
	fields := D{"v": int64(7), "w": int64(8)}
	if _, err := plain.ApplySet("k", fields); err != nil {
		t.Fatal(err)
	}
	if _, _, err := owned.ApplySetEncoded("k", EncodeDoc(fields)); err != nil {
		t.Fatal(err)
	}
	d1, _ := plain.FindByID("k")
	d2, _ := owned.FindByID("k")
	if !Equal(d1, d2) {
		t.Fatalf("owned path diverged: %v vs %v", d1, d2)
	}
}

func TestCloneShallowIsIndependent(t *testing.T) {
	s := NewStore()
	c := s.C("c")
	if _, err := c.CreateIndex("grp", false, "grp"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := c.Insert(D{"_id": string(rune('a' + i)), "grp": int64(i % 4), "v": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	clone := s.CloneShallow()
	cc := clone.C("c")
	if cc.Len() != 20 {
		t.Fatalf("clone has %d docs", cc.Len())
	}
	// Index works in the clone.
	if got := cc.Find(Filter{"grp": Eq(int64(2))}, 0); len(got) != 5 {
		t.Fatalf("clone index scan: %d docs, want 5", len(got))
	}
	// Documents are shared pointers, not deep copies.
	d1, _ := c.FindByID("a")
	d2, _ := cc.FindByID("a")
	if !Equal(d1, d2) {
		t.Fatal("clone content differs")
	}
	// Divergence after the clone stays private to each side.
	if _, err := cc.ApplySet("a", D{"v": int64(99)}); err != nil {
		t.Fatal(err)
	}
	if c.Delete("b") == nil {
		t.Fatal("delete in original failed")
	}
	if d, _ := c.FindByID("a"); d.Int("v") == 99 {
		t.Fatal("clone write leaked into the original")
	}
	if _, ok := cc.FindByID("b"); !ok {
		t.Fatal("original delete leaked into the clone")
	}
}

// TestApplyBatchAdoptsOnlyTheReplacedVersion: a merge that carries the
// primary's version stores it as it is, secondary-index entries moved
// over, when it replaced the version the collection holds, and splices
// its payload otherwise.
func TestApplyBatchAdoptsOnlyTheReplacedVersion(t *testing.T) {
	prim := NewStore().C("c")
	if _, err := prim.CreateIndex("grp", false, "grp"); err != nil {
		t.Fatal(err)
	}
	if err := prim.Insert(D{"_id": "a", "grp": int64(1), "v": int64(1)}); err != nil {
		t.Fatal(err)
	}
	sec := prim.CloneShallow()
	set := EncodeDoc(D{"grp": int64(2)})
	old, e, err := prim.ApplySetEncoded("a", set)
	if err != nil {
		t.Fatal(err)
	}
	ts := Stamp{Secs: 7, Inc: 1}
	e.SetStamps(ts, old.Stamp())
	op := ApplyOp{Kind: ApplyMerge, ID: "a", Enc: set, Stamp: ts, Version: e}

	other := sec.CloneShallow()
	if err := upsert(other, old.Bytes()); err != nil { // same bytes, another stamp
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		c     *Collection
		adopt bool
	}{{"holding the replaced version", sec, true}, {"holding another version", other, false}} {
		n, err := tc.c.ApplyBatch([]ApplyOp{op})
		if err != nil || n.Applied != 1 || (n.Adopted == 1) != tc.adopt || n.Adopted+n.Spliced != 1 {
			t.Fatalf("%s: %+v, %v", tc.name, n, err)
		}
		got, _ := tc.c.FindByIDEncoded("a")
		if (got == e) != tc.adopt || !bytes.Equal(got.Bytes(), e.Bytes()) || got.Stamp() != ts {
			t.Fatalf("%s: stored %p (primary's %p), stamp %v", tc.name, got, e, got.Stamp())
		}
		if hits := tc.c.Find(Filter{"grp": Eq(int64(2))}, 0); len(hits) != 1 {
			t.Fatalf("%s: grp=2 indexes %d documents", tc.name, len(hits))
		}
		if hits := tc.c.Find(Filter{"grp": Eq(int64(1))}, 0); len(hits) != 0 {
			t.Fatalf("%s: grp=1 still indexes %d documents", tc.name, len(hits))
		}
	}
}
