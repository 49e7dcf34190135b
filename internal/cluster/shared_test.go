package cluster_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"decongestant/internal/cluster"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// TestOplogEntriesShared: once a stream of $sets has reached both
// secondaries, every member's oplog holds, for each TS, the very entry
// the primary logged; truncating one member's oplog leaves the entries
// the others hold as they were; and live heap grew by at most one
// entry, three pointer slots and the payload's size class per write,
// plus 1 MB. A member that logged copies would hold 3 entries a write.
func TestOplogEntriesShared(t *testing.T) {
	env := sim.NewEnv(13)
	defer env.Shutdown()
	cfg := adoptConfig()
	cfg.OplogCap, cfg.OplogHardCap = 0, 0 // every member keeps every entry
	rs := cluster.New(env, cfg)
	if err := rs.Bootstrap(func(s *storage.Store) error {
		return s.C("kv").Insert(storage.D{"_id": "d", "n": int64(0), "pad": strings.Repeat("p", 1024)})
	}); err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	const writes = 20_000
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
	env.Run(env.Now() + time.Second) // the secondaries catch up
	after := heap()

	primID := rs.PrimaryID()
	prim := rs.OplogEntries(primID)
	if len(prim) != writes {
		t.Fatalf("the primary's oplog holds %d entries after %d writes", len(prim), writes)
	}
	want := make([]oplog.Entry, len(prim))
	for i, e := range prim {
		want[i] = *e
		want[i].Payload = bytes.Clone(e.Payload)
	}
	sameEntries := func(id int) {
		t.Helper()
		got := rs.OplogEntries(id)
		if len(got) != len(prim) {
			t.Fatalf("member %d's oplog holds %d entries, the primary's %d", id, len(got), len(prim))
		}
		for i, e := range got {
			if e != prim[i] {
				t.Fatalf("member %d logs its own entry for %v, not the primary's", id, e.TS)
			}
			w := want[i]
			if e.TS != w.TS || e.Kind != w.Kind || e.Collection != w.Collection || e.DocID != w.DocID || !bytes.Equal(e.Payload, w.Payload) {
				t.Fatalf("member %d's entry %d changed: %+v, logged as %+v", id, i, *e, w)
			}
		}
	}
	sec := rs.SecondaryIDs()
	for _, id := range sec {
		sameEntries(id)
	}
	if dropped := rs.TruncateOplog(sec[0], 0); dropped != writes {
		t.Fatalf("truncating member %d dropped %d entries, want %d", sec[0], dropped, writes)
	}
	sameEntries(primID)
	sameEntries(sec[1])

	perWrite := int64(unsafe.Sizeof(oplog.Entry{})) + 3*int64(unsafe.Sizeof(prim[0])) + sizeClass(cap(prim[0].Payload))
	grew := int64(after) - int64(before)
	t.Logf("live heap grew %d B over %d writes, %.1f B a write; bound %d B a write plus 1 MB",
		grew, writes, float64(grew)/writes, perWrite)
	if grew > writes*perWrite+1<<20 {
		t.Fatalf("live heap grew %d B, past %d writes × %d B plus 1 MB", grew, writes, perWrite)
	}
}

// sizeClass rounds a small allocation of n bytes up to the size class
// the Go allocator serves it from.
func sizeClass(n int) int64 {
	for _, c := range []int{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256} {
		if n <= c {
			return int64(c)
		}
	}
	return int64(n)
}
