package btree

import (
	"cmp"
	"maps"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func newInt() *Tree[int, int] { return New[int, int](cmp.Compare[int]) }

func TestEmptyTree(t *testing.T) {
	tr := newInt()
	if tr.Len() != 0 {
		t.Fatalf("Len=%d", tr.Len())
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if tr.Delete(1) {
		t.Fatal("Delete on empty tree returned true")
	}
	if _, _, ok := tr.Min(); ok {
		t.Fatal("Min on empty tree returned ok")
	}
	if _, _, ok := tr.Max(); ok {
		t.Fatal("Max on empty tree returned ok")
	}
}

func TestSetGetReplace(t *testing.T) {
	tr := newInt()
	if !tr.Set(1, 10) {
		t.Fatal("first Set not reported as insert")
	}
	if tr.Set(1, 20) {
		t.Fatal("second Set reported as insert")
	}
	if v, ok := tr.Get(1); !ok || v != 20 {
		t.Fatalf("Get=%d,%v", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len=%d", tr.Len())
	}
}

func TestInsertManyAscendOrder(t *testing.T) {
	tr := newInt()
	const n = 10000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, k := range perm {
		tr.Set(k, k*2)
	}
	if tr.Len() != n {
		t.Fatalf("Len=%d, want %d", tr.Len(), n)
	}
	prev := -1
	count := 0
	tr.AscendAll(func(k, v int) bool {
		if k <= prev {
			t.Fatalf("out of order: %d after %d", k, prev)
		}
		if v != k*2 {
			t.Fatalf("wrong value %d for key %d", v, k)
		}
		prev = k
		count++
		return true
	})
	if count != n {
		t.Fatalf("iterated %d, want %d", count, n)
	}
}

func TestDeleteEverySecondThenAll(t *testing.T) {
	tr := newInt()
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Set(i, i)
	}
	for i := 0; i < n; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len=%d", tr.Len())
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(i)
		if (i%2 == 0) == ok {
			t.Fatalf("Get(%d) = %v after deleting evens", i, ok)
		}
	}
	for i := 1; i < n; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len=%d after deleting all", tr.Len())
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := newInt()
	for i := 0; i < 100; i++ {
		tr.Set(i*2, i)
	}
	for i := 0; i < 100; i++ {
		if tr.Delete(i*2 + 1) {
			t.Fatalf("deleted missing key %d", i*2+1)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len=%d", tr.Len())
	}
}

func TestAscendFrom(t *testing.T) {
	tr := newInt()
	for i := 0; i < 100; i++ {
		tr.Set(i*10, i)
	}
	var got []int
	tr.Ascend(250, func(k, v int) bool {
		got = append(got, k)
		return len(got) < 5
	})
	want := []int{250, 260, 270, 280, 290}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// From a key that is absent: starts at successor.
	got = nil
	tr.Ascend(255, func(k, v int) bool {
		got = append(got, k)
		return len(got) < 2
	})
	if got[0] != 260 {
		t.Fatalf("Ascend(255) starts at %d, want 260", got[0])
	}
}

func TestRangeHalfOpen(t *testing.T) {
	tr := newInt()
	for i := 0; i < 50; i++ {
		tr.Set(i, i)
	}
	var got []int
	tr.Range(10, 15, func(k, v int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 5 || got[0] != 10 || got[4] != 14 {
		t.Fatalf("Range(10,15)=%v", got)
	}
	got = nil
	tr.Range(20, 20, func(k, v int) bool { got = append(got, k); return true })
	if len(got) != 0 {
		t.Fatalf("empty range returned %v", got)
	}
}

func TestMinMax(t *testing.T) {
	tr := newInt()
	perm := rand.New(rand.NewSource(2)).Perm(1000)
	for _, k := range perm {
		tr.Set(k, k)
	}
	if k, _, _ := tr.Min(); k != 0 {
		t.Fatalf("Min=%d", k)
	}
	if k, _, _ := tr.Max(); k != 999 {
		t.Fatalf("Max=%d", k)
	}
}

func TestStringKeys(t *testing.T) {
	tr := New[string, int](cmp.Compare[string])
	words := []string{"mongo", "oplog", "primary", "secondary", "staleness", "balance"}
	for i, w := range words {
		tr.Set(w, i)
	}
	sorted := append([]string(nil), words...)
	sort.Strings(sorted)
	var got []string
	tr.AscendAll(func(k string, v int) bool { got = append(got, k); return true })
	for i := range sorted {
		if got[i] != sorted[i] {
			t.Fatalf("got %v, want %v", got, sorted)
		}
	}
}

// TestQuickAgainstMap drives random operations against a reference map
// and checks full agreement including iteration order.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		tr := newInt()
		ref := map[int]int{}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			k := int(op % 512)
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Int()
				insNew := tr.Set(k, v)
				_, existed := ref[k]
				if insNew == existed {
					return false
				}
				ref[k] = v
			case 2:
				del := tr.Delete(k)
				_, existed := ref[k]
				if del != existed {
					return false
				}
				delete(ref, k)
			}
			if tr.Len() != len(ref) {
				return false
			}
		}
		// Full scan must equal sorted reference.
		keys := make([]int, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		i := 0
		ok := true
		tr.AscendAll(func(k, v int) bool {
			if i >= len(keys) || k != keys[i] || v != ref[k] {
				ok = false
				return false
			}
			i++
			return true
		})
		return ok && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRangeMatchesReference checks Range against a sorted slice.
func TestQuickRangeMatchesReference(t *testing.T) {
	f := func(keys []uint16, lo, hi uint16) bool {
		tr := newInt()
		ref := map[int]bool{}
		for _, k := range keys {
			tr.Set(int(k), int(k))
			ref[int(k)] = true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		var want []int
		for k := range ref {
			if k >= int(lo) && k < int(hi) {
				want = append(want, k)
			}
		}
		sort.Ints(want)
		var got []int
		tr.Range(int(lo), int(hi), func(k, v int) bool { got = append(got, k); return true })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// tracked is a tree value whose collection the garbage collector
// reports through a finalizer; the padding keeps it out of the tiny
// allocator, whose blocks may never run finalizers.
type tracked struct {
	key int
	_   [48]byte
}

// finalizedCounter hands out tracked values and counts how many the
// collector has reclaimed.
type finalizedCounter struct{ created, collected atomic.Int64 }

func (c *finalizedCounter) value(k int) *tracked {
	v := &tracked{key: k}
	c.created.Add(1)
	runtime.SetFinalizer(v, func(*tracked) { c.collected.Add(1) })
	return v
}

// awaitCollected runs the collector until want values have been
// finalized, or gives up after a bounded number of cycles.
func (c *finalizedCounter) awaitCollected(t *testing.T, want int64) {
	t.Helper()
	for i := 0; i < 50 && c.collected.Load() < want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := c.collected.Load(); got != want {
		t.Fatalf("%d of %d dropped values collected; the tree pins the rest past a slice's length", got, want)
	}
}

//go:noinline
func fillThenReplaceAfterSplit(tr *Tree[int, *tracked], c *finalizedCounter) {
	// maxKeys+1 sequential keys fill the root leaf and split it; the
	// split moves the upper half into a new right sibling.
	for k := 0; k <= maxKeys; k++ {
		tr.Set(k, c.value(k))
	}
	// Replace every moved value: the originals are garbage now.
	for k := maxKeys / 2; k <= maxKeys; k++ {
		tr.Set(k, c.value(k))
	}
}

func TestReplacedValueAfterSplitIsCollected(t *testing.T) {
	var c finalizedCounter
	tr := New[int, *tracked](cmp.Compare[int])
	fillThenReplaceAfterSplit(tr, &c)
	c.awaitCollected(t, c.created.Load()-int64(tr.Len()))
	runtime.KeepAlive(tr)
}

//go:noinline
func churn(tr *Tree[int, *tracked], c *finalizedCounter, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 20000; i++ {
		k := rng.Intn(2000)
		if rng.Intn(3) == 0 {
			tr.Delete(k)
		} else {
			tr.Set(k, c.value(k))
		}
	}
	// Drain most of the tree so deletes borrow from and merge siblings.
	for k := 0; k < 2000; k++ {
		if k%7 != 0 {
			tr.Delete(k)
		}
	}
}

// TestDroppedValuesAreCollected runs splits, deletes, borrows and
// merges, then checks that every value no longer in the tree is
// collectable: no node keeps a vacated slot's stale reference.
func TestDroppedValuesAreCollected(t *testing.T) {
	var c finalizedCounter
	tr := New[int, *tracked](cmp.Compare[int])
	churn(tr, &c, 1)
	c.awaitCollected(t, c.created.Load()-int64(tr.Len()))
	runtime.KeepAlive(tr)
}

func BenchmarkTreeSet(b *testing.B) {
	tr := newInt()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Set(rng.Intn(1<<20), i)
	}
}

func BenchmarkTreeGet(b *testing.B) {
	tr := newInt()
	for i := 0; i < 1<<16; i++ {
		tr.Set(i, i)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(rng.Intn(1 << 16))
	}
}

// walk returns the tree's pairs in ascending order, read through the
// leaf links.
func walk(tr *Tree[int, int]) [][2]int {
	var out [][2]int
	tr.AscendAll(func(k, v int) bool {
		out = append(out, [2]int{k, v})
		return true
	})
	return out
}

// sameWalk fails the test unless the tree holds exactly the reference
// pairs, by walk, Len and point lookups.
func sameWalk(t *testing.T, label string, tr *Tree[int, int], ref map[int]int) {
	t.Helper()
	got := walk(tr)
	if len(got) != len(ref) || tr.Len() != len(ref) {
		t.Fatalf("%s: walk has %d pairs, Len %d, want %d", label, len(got), tr.Len(), len(ref))
	}
	for i, kv := range got {
		if i > 0 && got[i-1][0] >= kv[0] {
			t.Fatalf("%s: walk out of order at %d: %d then %d", label, i, got[i-1][0], kv[0])
		}
		if want, ok := ref[kv[0]]; !ok || want != kv[1] {
			t.Fatalf("%s: pair %v, reference has %d (present %v)", label, kv, want, ok)
		}
		if v, ok := tr.Get(kv[0]); !ok || v != kv[1] {
			t.Fatalf("%s: Get(%d) = %d, %v", label, kv[0], v, ok)
		}
	}
}

func TestCloneWalksTheSameAndStaysIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orig := newInt()
	ref := map[int]int{}
	for i := 0; i < 6000; i++ {
		k := rng.Intn(4000)
		if rng.Intn(4) == 0 {
			orig.Delete(k)
			delete(ref, k)
			continue
		}
		orig.Set(k, i)
		ref[k] = i
	}
	var mapped []int
	cl := orig.Clone(func(k, v int) int {
		mapped = append(mapped, k)
		return v * 10
	})
	if !sort.IntsAreSorted(mapped) || len(mapped) != len(ref) {
		t.Fatalf("mapValue saw %d keys (sorted %v), want %d in order", len(mapped), sort.IntsAreSorted(mapped), len(ref))
	}
	scaled := map[int]int{}
	for k, v := range ref {
		scaled[k] = v * 10
	}
	sameWalk(t, "mapped clone", cl, scaled)
	plain := orig.Clone(nil)
	sameWalk(t, "plain clone", plain, ref)
	sameWalk(t, "original", orig, ref)

	// A range that starts mid-leaf must follow the copied leaf links.
	var from []int
	plain.Ascend(2000, func(k, v int) bool {
		from = append(from, k)
		return true
	})
	var want []int
	for k := range ref {
		if k >= 2000 {
			want = append(want, k)
		}
	}
	sort.Ints(want)
	if len(from) != len(want) || (len(want) > 0 && (from[0] != want[0] || from[len(from)-1] != want[len(want)-1])) {
		t.Fatalf("Ascend(2000) on the clone visited %d keys, want %d", len(from), len(want))
	}

	// Changes to the clone, enough to split and merge nodes, leave the
	// original as it was, and the other way round.
	plainRef := maps.Clone(ref)
	for i := 0; i < 6000; i++ {
		k := rng.Intn(8000)
		if rng.Intn(2) == 0 {
			plain.Delete(k)
			delete(plainRef, k)
		} else {
			plain.Set(k, -i)
			plainRef[k] = -i
		}
	}
	sameWalk(t, "changed clone", plain, plainRef)
	sameWalk(t, "original after clone changes", orig, ref)
	for k := range ref {
		orig.Delete(k)
	}
	sameWalk(t, "emptied original", orig, map[int]int{})
	sameWalk(t, "clone after original emptied", plain, plainRef)
	sameWalk(t, "mapped clone after both changed", cl, scaled)
}

func TestCloneEmpty(t *testing.T) {
	cl := newInt().Clone(nil)
	sameWalk(t, "empty clone", cl, map[int]int{})
	cl.Set(1, 1)
	sameWalk(t, "empty clone after Set", cl, map[int]int{1: 1})
}

func BenchmarkTreeClone(b *testing.B) {
	tr := newInt()
	for _, k := range rand.New(rand.NewSource(1)).Perm(50_000) {
		tr.Set(k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Clone(nil)
	}
}
