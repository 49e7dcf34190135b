package oplog

import (
	"testing"
	"testing/quick"
	"time"

	"decongestant/internal/storage"
)

func TestOpTimeCompare(t *testing.T) {
	cases := []struct {
		a, b OpTime
		want int
	}{
		{OpTime{1, 1}, OpTime{1, 1}, 0},
		{OpTime{1, 1}, OpTime{1, 2}, -1},
		{OpTime{1, 2}, OpTime{1, 1}, 1},
		{OpTime{1, 9}, OpTime{2, 1}, -1},
		{OpTime{2, 1}, OpTime{1, 9}, 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v)=%d want %d", c.a, c.b, got, c.want)
		}
	}
	if !Zero.IsZero() || (OpTime{0, 1}).IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestLagSeconds(t *testing.T) {
	if got := (OpTime{10, 5}).LagSeconds(OpTime{7, 9}); got != 3 {
		t.Fatalf("lag=%d want 3", got)
	}
	if got := (OpTime{7, 1}).LagSeconds(OpTime{10, 0}); got != 0 {
		t.Fatalf("negative lag not clamped: %d", got)
	}
}

func TestNextTSMonotonic(t *testing.T) {
	l := NewLog()
	prev := Zero
	// Simulate time moving forward and occasionally repeating a second.
	times := []time.Duration{0, 100 * time.Millisecond, 900 * time.Millisecond,
		time.Second, time.Second, 2 * time.Second, 2 * time.Second}
	for _, now := range times {
		ts := l.NextTS(now)
		if !prev.Before(ts) {
			t.Fatalf("NextTS not monotonic: %v then %v", prev, ts)
		}
		if err := l.Append(NewNoop(ts)); err != nil {
			t.Fatal(err)
		}
		prev = ts
	}
	if l.Len() != len(times) {
		t.Fatalf("Len=%d", l.Len())
	}
}

func TestAppendRejectsOutOfOrder(t *testing.T) {
	l := NewLog()
	if err := l.Append(NewNoop(OpTime{5, 1})); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(NewNoop(OpTime{5, 1})); err == nil {
		t.Fatal("duplicate TS accepted")
	}
	if err := l.Append(NewNoop(OpTime{4, 9})); err == nil {
		t.Fatal("earlier TS accepted")
	}
}

func TestScanAfter(t *testing.T) {
	l := NewLog()
	for i := 1; i <= 10; i++ {
		if err := l.Append(NewNoop(OpTime{int64(i), 1})); err != nil {
			t.Fatal(err)
		}
	}
	got := l.ScanAfter(nil, OpTime{3, 1}, 0)
	if len(got) != 7 || got[0].TS.Secs != 4 {
		t.Fatalf("ScanAfter: %d entries starting %v", len(got), got[0].TS)
	}
	got = l.ScanAfter(nil, OpTime{3, 0}, 0) // strictly-after semantics
	if len(got) != 8 || got[0].TS.Secs != 3 {
		t.Fatalf("ScanAfter(3,0): %d entries", len(got))
	}
	got = l.ScanAfter(nil, Zero, 4)
	if len(got) != 4 {
		t.Fatalf("max ignored: %d", len(got))
	}
	if got := l.ScanAfter(nil, OpTime{10, 1}, 0); got != nil {
		t.Fatalf("scan past end: %v", got)
	}
}

func TestTruncateBefore(t *testing.T) {
	l := NewLog()
	for i := 1; i <= 10; i++ {
		l.Append(NewNoop(OpTime{int64(i), 1}))
	}
	if n := l.TruncateBefore(OpTime{5, 0}); n != 4 {
		t.Fatalf("dropped %d, want 4", n)
	}
	if l.Len() != 6 {
		t.Fatalf("Len=%d", l.Len())
	}
	if got := l.ScanAfter(nil, Zero, 1); got[0].TS.Secs != 5 {
		t.Fatalf("first entry %v", got[0].TS)
	}
	if l.Last() != (OpTime{10, 1}) {
		t.Fatalf("Last=%v", l.Last())
	}
}

func TestApplyInsertSetDelete(t *testing.T) {
	s := storage.NewStore()
	ins := NewInsert(OpTime{1, 1}, "c", storage.D{"_id": "k", "v": 1})
	if err := ins.Apply(s); err != nil {
		t.Fatal(err)
	}
	set := NewSet(OpTime{1, 2}, "c", "k", storage.D{"v": 2, "w": 3})
	if err := set.Apply(s); err != nil {
		t.Fatal(err)
	}
	d, _ := s.C("c").FindByID("k")
	if d.Int("v") != 2 || d.Int("w") != 3 {
		t.Fatalf("after set: %v", d)
	}
	del := NewDelete(OpTime{1, 3}, "c", "k")
	if err := del.Apply(s); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.C("c").FindByID("k"); ok {
		t.Fatal("doc survived delete")
	}
	if err := NewNoop(OpTime{1, 4}).Apply(s); err != nil {
		t.Fatal(err)
	}
}

// Applying a suffix of the log twice must be a no-op — the property
// MongoDB's oplog application relies on after restarts.
func TestApplyIdempotent(t *testing.T) {
	entries := []*Entry{
		NewInsert(OpTime{1, 1}, "c", storage.D{"_id": "a", "v": 1}),
		NewSet(OpTime{1, 2}, "c", "a", storage.D{"v": 5}),
		NewInsert(OpTime{1, 3}, "c", storage.D{"_id": "b", "v": 2}),
		NewDelete(OpTime{1, 4}, "c", "b"),
		NewSet(OpTime{1, 5}, "c", "newdoc", storage.D{"x": 9}),
	}
	once := storage.NewStore()
	for _, e := range entries {
		if err := e.Apply(once); err != nil {
			t.Fatal(err)
		}
	}
	twice := storage.NewStore()
	for _, e := range entries {
		if err := e.Apply(twice); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range entries[2:] { // re-apply a suffix
		if err := e.Apply(twice); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"a", "b", "newdoc"} {
		d1, ok1 := once.C("c").FindByID(id)
		d2, ok2 := twice.C("c").FindByID(id)
		if ok1 != ok2 || (ok1 && !storage.Equal(d1, d2)) {
			t.Fatalf("divergence on %q: %v/%v vs %v/%v", id, d1, ok1, d2, ok2)
		}
	}
}

func TestApplyCorruptPayload(t *testing.T) {
	s := storage.NewStore()
	bad := Entry{TS: OpTime{1, 1}, Kind: KindInsert, Collection: "c", Payload: []byte{0xFF, 0x00}}
	if err := bad.Apply(s); err == nil {
		t.Fatal("corrupt payload applied without error")
	}
}

// Property: replaying any log prefix on a fresh store, then the rest,
// equals replaying the whole log.
func TestQuickPrefixReplayEquivalence(t *testing.T) {
	f := func(vals []uint8, split uint8) bool {
		l := NewLog()
		var entries []*Entry
		for i, v := range vals {
			ts := OpTime{int64(i + 1), 1}
			var e *Entry
			switch v % 3 {
			case 0:
				e = NewInsert(ts, "c", storage.D{"_id": "k" + string(rune('a'+v%7)), "v": int64(v)})
			case 1:
				e = NewSet(ts, "c", "k"+string(rune('a'+v%7)), storage.D{"v": int64(v) * 2})
			case 2:
				e = NewDelete(ts, "c", "k"+string(rune('a'+v%7)))
			}
			if err := l.Append(e); err != nil {
				return false
			}
			entries = append(entries, e)
		}
		whole := storage.NewStore()
		for _, e := range entries {
			if err := e.Apply(whole); err != nil {
				return false
			}
		}
		k := int(split)
		if len(entries) > 0 {
			k = k % (len(entries) + 1)
		} else {
			k = 0
		}
		parts := storage.NewStore()
		for _, e := range entries[:k] {
			if err := e.Apply(parts); err != nil {
				return false
			}
		}
		for _, e := range l.ScanAfter(nil, prefixLastTS(entries, k), 0) {
			if err := e.Apply(parts); err != nil {
				return false
			}
		}
		ok := true
		whole.C("c").ScanIDs(func(id string) bool {
			d1, _ := whole.C("c").FindByID(id)
			d2, found := parts.C("c").FindByID(id)
			if !found || !storage.Equal(d1, d2) {
				ok = false
				return false
			}
			return true
		})
		return ok && whole.C("c").Len() == parts.C("c").Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func prefixLastTS(entries []*Entry, k int) OpTime {
	if k == 0 {
		return Zero
	}
	return entries[k-1].TS
}

func TestTruncateToLast(t *testing.T) {
	l := NewLog()
	for i := 1; i <= 10; i++ {
		l.Append(NewNoop(OpTime{int64(i), 1}))
	}
	if n := l.TruncateToLast(4); n != 6 {
		t.Fatalf("dropped %d, want 6", n)
	}
	if l.Len() != 4 {
		t.Fatalf("Len=%d", l.Len())
	}
	if got := l.ScanAfter(nil, Zero, 1); got[0].TS.Secs != 7 {
		t.Fatalf("first entry %v, want secs=7", got[0].TS)
	}
	if n := l.TruncateToLast(100); n != 0 {
		t.Fatalf("over-large keep dropped %d", n)
	}
	if l.Last() != (OpTime{10, 1}) {
		t.Fatalf("Last=%v", l.Last())
	}
}
