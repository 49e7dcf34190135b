package storage

// Tests for the replication apply entry points (UpsertEncoded,
// ApplySetEncoded, ApplyBatch) and the initial-sync shallow clone.

import "testing"

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
	applied, err := c.ApplyBatch(ops)
	if err != nil || applied != len(ops) {
		t.Fatalf("applied=%d err=%v", applied, err)
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
	applied, err := c.ApplyBatch(ops)
	if applied != 2 || err == nil {
		t.Fatalf("applied=%d err=%v, want 2 with error", applied, err)
	}
	if _, ok := c.FindByID("b"); !ok {
		t.Fatal("op after the failure was not applied")
	}
}

func TestOwnedVariantsMatchPublicOnes(t *testing.T) {
	plain := NewStore().C("c")
	owned := NewStore().C("c")
	doc := D{"_id": "k", "v": int64(1), "arr": []any{int64(1), int64(2)}}
	if err := plain.UpsertEncoded(encoded(doc)); err != nil {
		t.Fatal(err)
	}
	norm, err := doc.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if err := owned.UpsertEncoded(encoded(norm)); err != nil {
		t.Fatal(err)
	}
	fields := D{"v": int64(7), "w": int64(8)}
	if _, err := plain.ApplySet("k", fields); err != nil {
		t.Fatal(err)
	}
	if _, err := owned.ApplySetEncoded("k", EncodeDoc(fields)); err != nil {
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
	if err := c.Delete("b"); !err {
		t.Fatal("delete in original failed")
	}
	if d, _ := c.FindByID("a"); d.Int("v") == 99 {
		t.Fatal("clone write leaked into the original")
	}
	if _, ok := cc.FindByID("b"); !ok {
		t.Fatal("original delete leaked into the clone")
	}
}
