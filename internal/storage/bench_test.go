package storage

// Read-path allocation benchmarks. The PR 3 headline: with immutable
// (copy-on-write) committed documents, point lookups and scans return
// shared snapshots instead of deep clones, so B/op and allocs/op on
// these benches collapse to near zero.
//
//	go test ./internal/storage -bench BenchmarkCollection -benchtime 1x -count 3 -benchmem

import (
	"fmt"
	"testing"
)

func benchCollection(b *testing.B, docs int) *Collection {
	b.Helper()
	c := newCollection("bench")
	if _, err := c.CreateIndex("w_id", false, "w_id"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < docs; i++ {
		lines := make([]any, 8)
		for j := range lines {
			lines[j] = Document{
				"i_id":   int64(j),
				"qty":    int64(5),
				"amount": 3.14,
				"info":   "abcdefghijklmnopqrstuvwx",
			}
		}
		if err := c.Insert(Document{
			"_id":         fmt.Sprintf("doc%05d", i),
			"w_id":        int64(i % 64),
			"val":         int64(i),
			"order_lines": lines,
		}); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

func BenchmarkCollectionFindByID(b *testing.B) {
	c := benchCollection(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, ok := c.FindByID(fmt.Sprintf("doc%05d", i%1024))
		if !ok || d == nil {
			b.Fatal("missing doc")
		}
	}
}

func BenchmarkCollectionFindScan(b *testing.B) {
	c := benchCollection(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs := c.Find(Filter{"w_id": Eq(int64(i % 64))}, 0)
		if len(docs) == 0 {
			b.Fatal("empty scan")
		}
	}
}

// BenchmarkEncodeDoc measures BSON-lite document encoding: "small" is
// the flat-document fast path (the per-call key-slice allocation and
// sort.Strings the PR 5 scratch-buffer sort removes), "nested" the
// recursive path through arrays of subdocuments.
func BenchmarkEncodeDoc(b *testing.B) {
	small := Document{
		"_id":  "doc00042",
		"w_id": int64(42),
		"val":  int64(7),
		"pad":  "abcdefghijklmnopqrstuvwxyz",
		"ok":   true,
		"f":    3.14,
	}
	lines := make([]any, 8)
	for j := range lines {
		lines[j] = Document{
			"i_id":   int64(j),
			"qty":    int64(5),
			"amount": 3.14,
			"info":   "abcdefghijklmnopqrstuvwx",
		}
	}
	nested := Document{
		"_id":         "doc00042",
		"w_id":        int64(42),
		"val":         int64(7),
		"order_lines": lines,
	}
	var dst []byte
	b.Run("small", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = AppendDoc(dst[:0], small)
		}
	})
	b.Run("nested", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = AppendDoc(dst[:0], nested)
		}
	})
}

func BenchmarkCollectionApplySet(b *testing.B) {
	c := benchCollection(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ApplySet(fmt.Sprintf("doc%05d", i%1024),
			Document{"val": int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
