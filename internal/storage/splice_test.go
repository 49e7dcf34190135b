package storage

import (
	"bytes"
	"testing"
)

// TestSpliceAllocs holds a $set to its two allocations — the new
// encoding, at exact size, and the EncodedDoc that carries it — and a
// filtered scan over numbers to none per document.
func TestSpliceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	c := NewStore().C("c")
	if err := c.Insert(ycsbDoc()); err != nil {
		t.Fatal(err)
	}
	set := EncodeDoc(Document{"field3": "0123456789"})
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := c.ApplySetEncoded("user0000000042", set); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("ApplySetEncoded: %.1f allocs, want 2", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.ApplySet("user0000000042", Document{"field3": "0123456789"}); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("ApplySet: %.1f allocs, want <= 3 (the fields map, the encoding, its EncodedDoc)", n)
	}
	e, _ := c.FindByIDEncoded("user0000000042")
	if cap(e.Bytes()) != len(e.Bytes()) {
		t.Errorf("spliced encoding: len %d, cap %d", len(e.Bytes()), cap(e.Bytes()))
	}
	for i := 0; i < 64; i++ {
		if err := c.Insert(Document{"_id": string(rune('A' + i)), "n": int64(i % 8)}); err != nil {
			t.Fatal(err)
		}
	}
	f := Filter{"n": Eq(int64(3))}
	if n := testing.AllocsPerRun(20, func() {
		if c.Count(f) != 8 {
			t.Fatal("wrong count")
		}
	}); n != 0 {
		t.Errorf("Count over an unindexed number: %.1f allocs, want 0", n)
	}
}

// FuzzApplySet splices arbitrary bytes into a stored document as $set
// fields. A payload that does not decode as one canonical document
// must be rejected and leave the stored bytes as they were; one that
// does must leave exactly the canonical encoding of the merged map.
func FuzzApplySet(f *testing.F) {
	f.Add(EncodeDoc(Document{"field0": "x"}))
	f.Add(EncodeDoc(Document{"_id": "other", "a": int64(1), "sub": Document{"k": []any{nil, 2.5}}}))
	f.Add(EncodeDoc(Document{}))
	f.Add([]byte{2, 1, 'b', btNil, 1, 'a', btNil})  // names out of order
	f.Add([]byte{2, 1, 'a', btNil, 1, 'a', btTrue}) // a name twice
	f.Add([]byte{0x01, 0x01, 'k', 0x7F})
	base := Document{"_id": "k", "a": int64(1), "m": "middle", "sub": Document{"x": true}}
	f.Fuzz(func(t *testing.T, set []byte) {
		c := NewStore().C("c")
		if err := c.Insert(base); err != nil {
			t.Fatal(err)
		}
		before, _ := c.FindByIDEncoded("k")
		fields, derr := DecodeDoc(set)
		_, _, err := c.ApplySetEncoded("k", set)
		if (err == nil) != (derr == nil) {
			t.Fatalf("ApplySetEncoded err=%v, DecodeDoc err=%v", err, derr)
		}
		after, _ := c.FindByIDEncoded("k")
		if err != nil {
			if after != before || !bytes.Equal(after.Bytes(), EncodeDoc(base)) {
				t.Fatal("a rejected payload changed the stored document")
			}
			return
		}
		want := base.Clone()
		for k, v := range fields {
			if k != "_id" {
				want[k] = v
			}
		}
		if !bytes.Equal(after.Bytes(), EncodeDoc(want)) {
			t.Fatalf("spliced %v, want %v", after.Doc(), want)
		}
	})
}
