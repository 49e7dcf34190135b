package storage

import (
	"bytes"
	"fmt"
	"testing"
)

// encoded returns d's stored form, normalizing it first.
func encoded(d Document) []byte {
	n, err := d.Normalized()
	if err != nil {
		panic(err)
	}
	return EncodeDoc(n)
}

func TestInsertFindDelete(t *testing.T) {
	s := NewStore()
	c := s.C("users")
	if err := c.Insert(D{"_id": "u1", "name": "ada", "age": 36}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(D{"_id": "u1", "name": "dup"}); err == nil {
		t.Fatal("duplicate _id accepted")
	}
	if err := c.Insert(D{"name": "no id"}); err == nil {
		t.Fatal("missing _id accepted")
	}
	d, ok := c.FindByID("u1")
	if !ok || d.Str("name") != "ada" || d.Int("age") != 36 {
		t.Fatalf("FindByID: %v %v", d, ok)
	}
	if c.Delete("u1") == nil {
		t.Fatal("delete failed")
	}
	if c.Delete("u1") != nil {
		t.Fatal("second delete succeeded")
	}
	if _, ok := c.FindByID("u1"); ok {
		t.Fatal("found after delete")
	}
}

func TestStoredCopyDetached(t *testing.T) {
	c := NewStore().C("c")
	orig := D{"_id": "x", "v": 1, "nested": D{"a": 1}}
	if err := c.Insert(orig); err != nil {
		t.Fatal(err)
	}
	orig["v"] = 999
	orig["nested"].(D)["a"] = 999
	got, _ := c.FindByID("x")
	if got.Int("v") != 1 || got.Doc("nested").Int("a") != 1 {
		t.Fatal("stored document aliases caller value")
	}
}

func TestCopyOnWriteSnapshots(t *testing.T) {
	c := NewStore().C("c")
	if err := c.Insert(D{"_id": "x", "v": 1, "nested": D{"a": 1}}); err != nil {
		t.Fatal(err)
	}
	// A reader's snapshot must survive later writes: mutations build a
	// fresh document and swap the pointer rather than editing in place.
	snap, _ := c.FindByID("x")
	if _, err := c.ApplySet("x", D{"v": 2, "nested": D{"a": 2}}); err != nil {
		t.Fatal(err)
	}
	if snap.Int("v") != 1 || snap.Doc("nested").Int("a") != 1 {
		t.Fatalf("snapshot changed under a writer: %v", snap)
	}
	cur, _ := c.FindByID("x")
	if cur.Int("v") != 2 || cur.Doc("nested").Int("a") != 2 {
		t.Fatalf("post-write state wrong: %v", cur)
	}
	// Upsert replacement likewise leaves the old snapshot untouched.
	if err := upsert(c, encoded(D{"_id": "x", "v": 3})); err != nil {
		t.Fatal(err)
	}
	if cur.Int("v") != 2 {
		t.Fatalf("upsert mutated a committed document: %v", cur)
	}
}

func TestApplySetMergeAndIdempotence(t *testing.T) {
	c := NewStore().C("c")
	if err := c.Insert(D{"_id": "k", "a": 1, "b": 2}); err != nil {
		t.Fatal(err)
	}
	e, err := c.ApplySet("k", D{"b": 20, "c": 30})
	if err != nil {
		t.Fatal(err)
	}
	post := e.Doc()
	if post.Int("a") != 1 || post.Int("b") != 20 || post.Int("c") != 30 {
		t.Fatalf("post-image wrong: %v", post)
	}
	// Re-apply: state unchanged (idempotent, as oplog application needs).
	e2, err := c.ApplySet("k", D{"b": 20, "c": 30})
	if err != nil {
		t.Fatal(err)
	}
	if post2 := e2.Doc(); !bytes.Equal(e.Bytes(), e2.Bytes()) || !Equal(post, post2) {
		t.Fatalf("re-apply changed state: %v vs %v", post, post2)
	}
	// ApplySet on a missing id creates the document.
	if _, err := c.ApplySet("new", D{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if d, ok := c.FindByID("new"); !ok || d.Int("x") != 1 {
		t.Fatal("ApplySet did not upsert")
	}
}

func TestUpsertReplaces(t *testing.T) {
	c := NewStore().C("c")
	if err := upsert(c, encoded(D{"_id": "k", "a": 1, "b": 2})); err != nil {
		t.Fatal(err)
	}
	if err := upsert(c, encoded(D{"_id": "k", "a": 10})); err != nil {
		t.Fatal(err)
	}
	d, _ := c.FindByID("k")
	if d.Int("a") != 10 {
		t.Fatalf("a=%d", d.Int("a"))
	}
	if _, present := d["b"]; present {
		t.Fatal("upsert merged instead of replacing")
	}
}

func TestFindWithFilterFullScan(t *testing.T) {
	c := NewStore().C("c")
	for i := 0; i < 100; i++ {
		if err := c.Insert(D{"_id": fmt.Sprintf("d%03d", i), "n": i, "mod": i % 10}); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Find(Filter{"mod": Eq(3)}, 0)
	if len(got) != 10 {
		t.Fatalf("found %d, want 10", len(got))
	}
	got = c.Find(Filter{"n": Gte(90), "mod": Lt(5)}, 0)
	if len(got) != 5 {
		t.Fatalf("found %d, want 5", len(got))
	}
	got = c.Find(Filter{"mod": Eq(3)}, 4)
	if len(got) != 4 {
		t.Fatalf("limit ignored: %d", len(got))
	}
	if n := c.Count(Filter{"mod": In(1, 2)}); n != 20 {
		t.Fatalf("Count=%d, want 20", n)
	}
}

func TestSecondaryIndexEqualityAndRange(t *testing.T) {
	c := NewStore().C("orders")
	if _, err := c.CreateIndex("wdo", false, "w", "d", "o"); err != nil {
		t.Fatal(err)
	}
	n := 0
	for w := 1; w <= 3; w++ {
		for d := 1; d <= 4; d++ {
			for o := 1; o <= 25; o++ {
				n++
				err := c.Insert(D{"_id": fmt.Sprintf("o%d", n), "w": w, "d": d, "o": o})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	got := c.Find(Filter{"w": Eq(2), "d": Eq(3)}, 0)
	if len(got) != 25 {
		t.Fatalf("equality prefix found %d, want 25", len(got))
	}
	// Leading equalities + trailing range (the Stock Level pattern).
	got = c.Find(Filter{"w": Eq(2), "d": Eq(3), "o": Gt(5)}, 0)
	if len(got) != 20 {
		t.Fatalf("range found %d, want 20", len(got))
	}
	got = c.Find(Filter{"w": Eq(2), "d": Eq(3), "o": Gte(5)}, 0)
	if len(got) != 21 {
		t.Fatalf("gte found %d, want 21", len(got))
	}
	got = c.Find(Filter{"w": Eq(2), "d": Eq(3), "o": Lte(5)}, 0)
	if len(got) != 5 {
		t.Fatalf("lte found %d, want 5", len(got))
	}
	got = c.Find(Filter{"w": Eq(2), "d": Eq(3), "o": Lt(5)}, 0)
	if len(got) != 4 {
		t.Fatalf("lt found %d, want 4", len(got))
	}
}

func TestIndexMaintainedAcrossUpdateDelete(t *testing.T) {
	c := NewStore().C("c")
	if _, err := c.CreateIndex("byV", false, "v"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := c.Insert(D{"_id": fmt.Sprintf("k%d", i), "v": i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.ApplySet("k5", D{"v": 100}); err != nil {
		t.Fatal(err)
	}
	if got := c.Find(Filter{"v": Eq(5)}, 0); len(got) != 0 {
		t.Fatal("old index entry survived update")
	}
	if got := c.Find(Filter{"v": Eq(100)}, 0); len(got) != 1 {
		t.Fatal("new index entry missing after update")
	}
	c.Delete("k6")
	if got := c.Find(Filter{"v": Eq(6)}, 0); len(got) != 0 {
		t.Fatal("index entry survived delete")
	}
}

func TestIndexBackfill(t *testing.T) {
	c := NewStore().C("c")
	for i := 0; i < 50; i++ {
		if err := c.Insert(D{"_id": fmt.Sprintf("k%d", i), "grp": i % 5}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateIndex("byGrp", false, "grp"); err != nil {
		t.Fatal(err)
	}
	if got := c.Find(Filter{"grp": Eq(2)}, 0); len(got) != 10 {
		t.Fatalf("backfilled index found %d, want 10", len(got))
	}
	if _, err := c.CreateIndex("byGrp", false, "grp"); err == nil {
		t.Fatal("duplicate index name accepted")
	}
}

func TestUniqueIndexRejectsDuplicates(t *testing.T) {
	c := NewStore().C("c")
	if _, err := c.CreateIndex("uniq", true, "email"); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(D{"_id": "a", "email": "x@y"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(D{"_id": "b", "email": "x@y"}); err == nil {
		t.Fatal("unique violation accepted")
	}
	// Failed insert must not leave the doc behind.
	if _, ok := c.FindByID("b"); ok {
		t.Fatal("rejected document stored")
	}
	if err := c.Insert(D{"_id": "b", "email": "z@y"}); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedSetKeepsIndexEntries makes a $set break a unique index:
// the document and every index entry it had must survive unchanged.
func TestRejectedSetKeepsIndexEntries(t *testing.T) {
	c := NewStore().C("c")
	if _, err := c.CreateIndex("uniq", true, "email"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("byGrp", false, "grp"); err != nil {
		t.Fatal(err)
	}
	for _, d := range []D{{"_id": "a", "email": "x@y", "grp": 1}, {"_id": "b", "email": "z@y", "grp": 2}} {
		if err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := c.FindByIDEncoded("b")
	if _, err := c.ApplySet("b", D{"email": "x@y", "grp": 3}); err == nil {
		t.Fatal("unique violation accepted")
	}
	if after, _ := c.FindByIDEncoded("b"); after != before {
		t.Fatal("rejected $set replaced the document")
	}
	for _, f := range []Filter{{"email": Eq("z@y")}, {"grp": Eq(2)}} {
		if got := c.Find(f, 0); len(got) != 1 || got[0].ID() != "b" {
			t.Fatalf("%v after the rejected $set: %v", f, got)
		}
	}
	if got := c.Find(Filter{"grp": Eq(3)}, 0); len(got) != 0 {
		t.Fatalf("rejected $set left index entries: %v", got)
	}
}

// TestUnkeyableIndexedValueIsRejected: an array or an embedded
// document in an indexed field has no key order. Insert, ApplySet and
// an upsert reject it and leave the document and every index
// unchanged, and a filter holding such a value skips the index and
// scans instead.
func TestUnkeyableIndexedValueIsRejected(t *testing.T) {
	c := NewStore().C("c")
	for _, f := range []string{"a", "b"} {
		if _, err := c.CreateIndex("by"+f, false, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Insert(D{"_id": "x", "a": 1, "b": 1}); err != nil {
		t.Fatal(err)
	}
	before, _ := c.FindByIDEncoded("x")
	for _, v := range []any{[]any{1}, D{"k": 1}} {
		if err := c.Insert(D{"_id": "y", "a": v}); err == nil {
			t.Errorf("Insert of a: %v accepted", v)
		}
		if _, err := c.ApplySet("x", D{"a": v, "b": 2}); err == nil {
			t.Errorf("ApplySet of a: %v accepted", v)
		}
		if err := upsert(c, encoded(D{"_id": "x", "a": v, "b": 3})); err == nil {
			t.Errorf("upsert of a: %v accepted", v)
		}
		if got := c.Find(Filter{"a": Eq(v)}, 0); len(got) != 0 {
			t.Errorf("filter a = %v found %v", v, got)
		}
		if n := c.Count(Filter{"a": Gte(v), "b": Eq(1)}); n != 0 {
			t.Errorf("filter a >= %v counted %d", v, n)
		}
	}
	if after, _ := c.FindByIDEncoded("x"); after != before {
		t.Fatal("a rejected write replaced the document")
	}
	if _, ok := c.FindByID("y"); ok {
		t.Fatal("a rejected insert stored its document")
	}
	for _, f := range []Filter{{"a": Eq(1)}, {"b": Eq(1)}} {
		if got := c.Find(f, 0); len(got) != 1 || got[0].ID() != "x" {
			t.Fatalf("%v after the rejected writes: %v", f, got)
		}
	}
	for _, f := range []Filter{{"b": Eq(2)}, {"b": Eq(3)}} {
		if got := c.Find(f, 0); len(got) != 0 {
			t.Fatalf("rejected writes left index entries: %v found %v", f, got)
		}
	}
	// A backfill over a document the new index cannot key fails.
	d := NewStore().C("d")
	if err := d.Insert(D{"_id": "z", "a": []any{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateIndex("bya", false, "a"); err == nil {
		t.Fatal("index built over an array value")
	}
}

func TestMissingIndexedFieldIndexesAsNil(t *testing.T) {
	c := NewStore().C("c")
	if _, err := c.CreateIndex("byV", false, "v"); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(D{"_id": "novalue"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(D{"_id": "with", "v": 1}); err != nil {
		t.Fatal(err)
	}
	if got := c.Find(Filter{"v": Eq(1)}, 0); len(got) != 1 {
		t.Fatalf("found %d", len(got))
	}
}

func TestStoreCollections(t *testing.T) {
	s := NewStore()
	a := s.C("a")
	if s.C("a") != a {
		t.Fatal("C made a second collection under one name")
	}
	s.C("b").Insert(D{"_id": "1"})
	if _, ok := s.Lookup("zzz"); ok {
		t.Fatal("Lookup invented a collection")
	}
	if got, ok := s.Lookup("b"); !ok || got.Len() != 1 {
		t.Fatal("Lookup missed a collection")
	}
	if st := s.Stats(); st.Collections != 2 || st.PerCollection[0].Name != "a" || st.PerCollection[1].Name != "b" {
		t.Fatalf("Stats=%+v", st)
	}
	if s.TotalDocs() != 1 {
		t.Fatalf("TotalDocs=%d", s.TotalDocs())
	}
}

func TestFilterOperators(t *testing.T) {
	d := D{"n": int64(5), "s": "abc", "b": true}
	cases := []struct {
		f    Filter
		want bool
	}{
		{Filter{"n": Eq(5)}, true},
		{Filter{"n": Eq(5.0)}, true},
		{Filter{"n": Ne(4)}, true},
		{Filter{"n": Ne(5)}, false},
		{Filter{"n": Gt(4)}, true},
		{Filter{"n": Gt(5)}, false},
		{Filter{"n": Gte(5)}, true},
		{Filter{"n": Lt(6)}, true},
		{Filter{"n": Lte(5)}, true},
		{Filter{"n": In(1, 5, 9)}, true},
		{Filter{"n": In(1, 9)}, false},
		{Filter{"n": Exists()}, true},
		{Filter{"missing": Exists()}, false},
		{Filter{"missing": Ne(1)}, true}, // absent field != value
		{Filter{"s": Gt("abb")}, true},
		{Filter{"s": Gt(5)}, false}, // type-bracketed: no cross-type range
		{Filter{"n": Eq(5), "s": Eq("abc")}, true},
		{Filter{"n": Eq(5), "s": Eq("zzz")}, false},
	}
	for i, tc := range cases {
		if got := tc.f.Matches(d); got != tc.want {
			t.Errorf("case %d: Matches=%v, want %v", i, got, tc.want)
		}
	}
}
