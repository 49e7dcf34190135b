package oplog

// Tests for the ring-buffer Log representation introduced with the
// write-path pipeline: wraparound correctness against a flat-slice
// reference model, gap tracking for fetchers that fall off the log,
// batch append, tail notification and the checked batch apply path.

import (
	"bytes"
	"math/rand"
	"testing"

	"decongestant/internal/storage"
)

// TestRingAgainstReferenceModel drives the ring through randomized
// append/scan/truncate traffic and cross-checks every observable
// against a plain-slice model. This is what proves the modular-index
// arithmetic right across many wraparounds.
func TestRingAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := NewLog()
	var ref []Entry
	var next int64
	for step := 0; step < 5000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // append
			next++
			e := NewNoop(OpTime{next, 1})
			if err := l.Append(e); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			ref = append(ref, e)
		case 5: // batch append
			batch := make([]Entry, rng.Intn(7))
			for i := range batch {
				next++
				batch[i] = NewNoop(OpTime{next, 1})
			}
			if err := l.AppendBatch(batch); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			ref = append(ref, batch...)
		case 6: // truncate to last n
			n := rng.Intn(20)
			want := 0
			if len(ref) > n {
				want = len(ref) - n
			}
			if got := l.TruncateToLast(n); got != want {
				t.Fatalf("step %d: TruncateToLast dropped %d, want %d", step, got, want)
			}
			ref = ref[len(ref)-min(n, len(ref)):]
		case 7: // truncate before a random retained cutoff
			if len(ref) == 0 {
				continue
			}
			cut := ref[rng.Intn(len(ref))].TS
			i := 0
			for i < len(ref) && ref[i].TS.Before(cut) {
				i++
			}
			if got := l.TruncateBefore(cut); got != i {
				t.Fatalf("step %d: TruncateBefore dropped %d, want %d", step, got, i)
			}
			ref = ref[i:]
		case 8: // scan from a random position
			var after OpTime
			if len(ref) > 0 && rng.Intn(2) == 0 {
				after = ref[rng.Intn(len(ref))].TS
			}
			max := rng.Intn(10)
			got := l.ScanAfter(after, max)
			var want []Entry
			for _, e := range ref {
				if after.Before(e.TS) {
					want = append(want, e)
					if max > 0 && len(want) == max {
						break
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: scan len %d, want %d", step, len(got), len(want))
			}
			for i := range got {
				if got[i].TS != want[i].TS {
					t.Fatalf("step %d: scan[%d]=%v, want %v", step, i, got[i].TS, want[i].TS)
				}
			}
		case 9: // invariants
			if l.Len() != len(ref) {
				t.Fatalf("step %d: Len=%d, want %d", step, l.Len(), len(ref))
			}
			if len(ref) > 0 {
				if l.First() != ref[0].TS {
					t.Fatalf("step %d: First=%v, want %v", step, l.First(), ref[0].TS)
				}
				if l.Last() != ref[len(ref)-1].TS {
					t.Fatalf("step %d: Last=%v, want %v", step, l.Last(), ref[len(ref)-1].TS)
				}
			}
		}
	}
}

func TestTruncatedToTracksNewestDrop(t *testing.T) {
	l := NewLog()
	if !l.TruncatedTo().IsZero() {
		t.Fatal("fresh log reports truncation")
	}
	for i := 1; i <= 10; i++ {
		l.Append(NewNoop(OpTime{int64(i), 1}))
	}
	l.TruncateBefore(OpTime{4, 0})
	if got := l.TruncatedTo(); got != (OpTime{3, 1}) {
		t.Fatalf("TruncatedTo=%v, want 3.1", got)
	}
	// A fetcher at 2.1 has a gap; one exactly at 3.1 does not.
	if !(OpTime{2, 1}).Before(l.TruncatedTo()) {
		t.Fatal("gapped fetch position not detected")
	}
	if (OpTime{3, 1}).Before(l.TruncatedTo()) {
		t.Fatal("fetcher at the truncation point wrongly gapped")
	}
	l.TruncateToLast(2)
	if got := l.TruncatedTo(); got != (OpTime{8, 1}) {
		t.Fatalf("TruncatedTo after second cut=%v, want 8.1", got)
	}
}

func TestAppendBatchRejectsOutOfOrderAtomically(t *testing.T) {
	l := NewLog()
	l.Append(NewNoop(OpTime{5, 1}))
	bad := []Entry{NewNoop(OpTime{6, 1}), NewNoop(OpTime{6, 1})}
	if err := l.AppendBatch(bad); err == nil {
		t.Fatal("out-of-order batch accepted")
	}
	if l.Len() != 1 || l.Last() != (OpTime{5, 1}) {
		t.Fatalf("failed batch mutated the log: len=%d last=%v", l.Len(), l.Last())
	}
	if err := l.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestOnAppendFiresOncePerBatch(t *testing.T) {
	l := NewLog()
	fired := 0
	l.OnAppend(func() { fired++ })
	l.Append(NewNoop(OpTime{1, 1}))
	if fired != 1 {
		t.Fatalf("fired=%d after Append, want 1", fired)
	}
	l.AppendBatch([]Entry{NewNoop(OpTime{2, 1}), NewNoop(OpTime{2, 2}), NewNoop(OpTime{2, 3})})
	if fired != 2 {
		t.Fatalf("fired=%d after AppendBatch, want 2", fired)
	}
	l.AppendBatch(nil) // nothing appended, nothing signaled
	if fired != 2 {
		t.Fatalf("fired=%d after empty batch, want 2", fired)
	}
}

func TestResetToRestartsLog(t *testing.T) {
	l := NewLog()
	for i := 1; i <= 5; i++ {
		l.Append(NewNoop(OpTime{int64(i), 1}))
	}
	syncPoint := OpTime{40, 7}
	l.ResetTo(syncPoint)
	if l.Len() != 0 || l.Last() != syncPoint || l.TruncatedTo() != syncPoint {
		t.Fatalf("after reset: len=%d last=%v truncatedTo=%v", l.Len(), l.Last(), l.TruncatedTo())
	}
	if err := l.Append(NewNoop(OpTime{40, 6})); err == nil {
		t.Fatal("append before the sync point accepted")
	}
	if err := l.Append(NewNoop(OpTime{40, 8})); err != nil {
		t.Fatal(err)
	}
	if got := l.ScanAfter(syncPoint, 0); len(got) != 1 {
		t.Fatalf("scan after reset: %d entries, want 1", len(got))
	}
}

// TestBatchApplyMatchesByteApply replays the same entry sequence
// through the per-entry path and the checked batch path and requires
// identical stored bytes.
func TestBatchApplyMatchesByteApply(t *testing.T) {
	entries := []Entry{
		NewInsert(OpTime{1, 1}, "c", storage.D{"_id": "a", "v": int64(1), "nested": storage.D{"x": int64(9)}}),
		NewSet(OpTime{1, 2}, "c", "a", storage.D{"v": int64(5)}),
		NewInsert(OpTime{1, 3}, "d", storage.D{"_id": "b", "v": int64(2)}),
		NewNoop(OpTime{1, 4}),
		NewSet(OpTime{1, 5}, "c", "ghost", storage.D{"x": int64(9)}),
		NewDelete(OpTime{1, 6}, "d", "b"),
		NewInsert(OpTime{1, 7}, "c", storage.D{"_id": "z", "v": int64(3)}),
	}
	byBytes := storage.NewStore()
	for _, e := range entries {
		if err := e.Apply(byBytes); err != nil {
			t.Fatal(err)
		}
	}
	checked, dropped, err := CheckBatch(append([]Entry(nil), entries...))
	if err != nil || dropped != 0 {
		t.Fatalf("CheckBatch: dropped=%d err=%v", dropped, err)
	}
	byBatch := storage.NewStore()
	applied, failed, err := ApplyBatch(byBatch, checked)
	if err != nil || failed != 0 || applied != len(entries) {
		t.Fatalf("ApplyBatch: applied=%d failed=%d err=%v", applied, failed, err)
	}
	sameStores(t, byBytes, byBatch, "c", "d")
}

// sameStores requires the named collections of two stores to hold the
// same ids with byte-identical stored documents.
func sameStores(t *testing.T, a, b *storage.Store, colls ...string) {
	t.Helper()
	for _, coll := range colls {
		a.C(coll).ScanIDs(func(id string) bool {
			e1, _ := a.C(coll).FindByIDEncoded(id)
			e2, ok := b.C(coll).FindByIDEncoded(id)
			if !ok || !bytes.Equal(e1.Bytes(), e2.Bytes()) {
				t.Fatalf("divergence at %s/%s: %v vs %v (ok=%v)", coll, id, e1.Doc(), e2, ok)
			}
			return true
		})
		if a.C(coll).Len() != b.C(coll).Len() {
			t.Fatalf("length divergence in %s", coll)
		}
	}
}

func TestCheckBatchDropsCorruptEntries(t *testing.T) {
	entries := []Entry{
		NewInsert(OpTime{1, 1}, "c", storage.D{"_id": "a", "v": int64(1)}),
		{TS: OpTime{1, 2}, Kind: KindSet, Collection: "c", DocID: "a", Payload: []byte{0xFF, 0x01}},
		NewNoop(OpTime{1, 3}),
		// {b: nil, a: nil}: well formed, but its names are out of order,
		// so it is not a stored form.
		{TS: OpTime{1, 4}, Kind: KindSet, Collection: "c", DocID: "a", Payload: []byte{2, 1, 'b', 0x00, 1, 'a', 0x00}},
	}
	kept, dropped, err := CheckBatch(entries)
	if dropped != 2 || err == nil {
		t.Fatalf("dropped=%d err=%v, want 2 drops with error", dropped, err)
	}
	if len(kept) != 2 || kept[0].TS != (OpTime{1, 1}) || kept[1].TS != (OpTime{1, 3}) {
		t.Fatalf("kept %v, want the insert and the noop", kept)
	}
}

func TestDecodeBatchDropsCorruptEntries(t *testing.T) {
	entries := []Entry{
		NewInsert(OpTime{1, 1}, "c", storage.D{"_id": "a", "v": int64(1)}),
		{TS: OpTime{1, 2}, Kind: KindSet, Collection: "c", DocID: "a", Payload: []byte{0xFF, 0x01}},
		NewNoop(OpTime{1, 3}),
	}
	decoded, dropped, err := DecodeBatch(entries)
	if dropped != 1 || err == nil {
		t.Fatalf("dropped=%d err=%v, want 1 drop with error", dropped, err)
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d entries, want 2", len(decoded))
	}
}
