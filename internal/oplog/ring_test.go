package oplog

// Tests for the segmented Log: every operation cross-checked against a
// flat-slice reference model across many segment boundaries (randomly
// and as a native fuzz target), the memory held bounded by the entries
// kept, a capped log's steady state free of allocation, gap tracking
// for fetchers that fall off the log, batch append, tail notification
// and the checked batch apply path.

import (
	"bytes"
	"math/rand"
	"testing"

	"decongestant/internal/storage"
)

// logModel runs operations on a Log and on a plain-slice model of it
// side by side, failing at the first observable difference.
type logModel struct {
	t     testing.TB
	l     *Log
	ref   []Entry
	last  OpTime // newest appended or reset TS
	trunc OpTime // newest dropped or reset TS
	next  int64  // Secs of the newest minted TS
}

func newLogModel(t testing.TB) *logModel { return &logModel{t: t, l: NewLog()} }

func (m *logModel) mint() OpTime {
	m.next++
	return OpTime{m.next, 1}
}

func (m *logModel) appendOne() {
	e := NewDelete(m.mint(), "c", "d")
	if err := m.l.Append(e); err != nil {
		m.t.Fatal(err)
	}
	m.ref = append(m.ref, e)
	m.last = e.TS
}

func (m *logModel) appendBatch(n int) {
	batch := make([]Entry, n)
	for i := range batch {
		batch[i] = NewDelete(m.mint(), "c", "d")
	}
	if err := m.l.AppendBatch(batch); err != nil {
		m.t.Fatal(err)
	}
	m.ref = append(m.ref, batch...)
	if n > 0 {
		m.last = batch[n-1].TS
	}
}

func (m *logModel) drop(n int) {
	if n > 0 {
		m.trunc = m.ref[n-1].TS
		m.ref = m.ref[n:]
	}
}

func (m *logModel) truncateToLast(n int) {
	want := max(0, len(m.ref)-n)
	if got := m.l.TruncateToLast(n); got != want {
		m.t.Fatalf("TruncateToLast(%d) dropped %d, want %d", n, got, want)
	}
	m.drop(want)
}

func (m *logModel) truncateBefore(cut OpTime) {
	want := 0
	for want < len(m.ref) && m.ref[want].TS.Before(cut) {
		want++
	}
	if got := m.l.TruncateBefore(cut); got != want {
		m.t.Fatalf("TruncateBefore(%v) dropped %d, want %d", cut, got, want)
	}
	m.drop(want)
}

// truncateToSegment cuts the oldest entries up to the end of the first
// segment, so the head lands exactly on a segment boundary.
func (m *logModel) truncateToSegment() {
	if drop := segLen - m.l.head; drop <= len(m.ref) {
		m.truncateToLast(len(m.ref) - drop)
		if m.l.head != 0 {
			m.t.Fatalf("head at %d after a cut to a segment boundary", m.l.head)
		}
	}
}

func (m *logModel) scan(after OpTime, max int) {
	got := m.l.ScanAfter(after, max)
	var want []Entry
	for _, e := range m.ref {
		if after.Before(e.TS) {
			want = append(want, e)
			if max > 0 && len(want) == max {
				break
			}
		}
	}
	if len(got) != len(want) {
		m.t.Fatalf("ScanAfter(%v, %d) returned %d entries, want %d", after, max, len(got), len(want))
	}
	for i := range got {
		if got[i].TS != want[i].TS || got[i].DocID != want[i].DocID {
			m.t.Fatalf("ScanAfter(%v, %d)[%d] = %v, want %v", after, max, i, got[i].TS, want[i].TS)
		}
	}
}

func (m *logModel) reset() {
	ts := m.mint()
	m.l.ResetTo(ts)
	m.ref = nil
	m.last, m.trunc = ts, ts
	if len(m.l.segs) != 0 || len(m.l.spares) > maxSpares {
		m.t.Fatalf("ResetTo kept %d segments and %d spares, want 0 and at most %d",
			len(m.l.segs), len(m.l.spares), maxSpares)
	}
}

// pick returns the TS at fraction frac/256 of the retained entries, or
// Zero for frac 0 or an empty log.
func (m *logModel) pick(frac int) OpTime {
	if frac == 0 || len(m.ref) == 0 {
		return Zero
	}
	return m.ref[frac*len(m.ref)/256].TS
}

// step runs one operation decoded from two bytes: op's low three bits
// choose it, and arg (with op's high bits, for scans) sizes it. Batches
// and caps run up to four segments' worth of entries.
func (m *logModel) step(op, arg byte) {
	switch op % 8 {
	case 0:
		m.appendOne()
	case 1, 7:
		m.appendBatch(int(arg) * 16)
	case 2:
		m.truncateToLast(int(arg) * 16)
	case 3:
		m.truncateBefore(m.pick(int(arg)))
	case 4:
		m.scan(m.pick(int(arg)), int(op>>3)*100)
	case 5:
		m.reset()
	case 6:
		m.truncateToSegment()
	}
	m.check()
}

// check compares every observable with the model, then the storage
// itself (checkSlots).
func (m *logModel) check() {
	l := m.l
	if l.Len() != len(m.ref) {
		m.t.Fatalf("Len=%d, want %d", l.Len(), len(m.ref))
	}
	first := Zero
	if len(m.ref) > 0 {
		first = m.ref[0].TS
	}
	if l.First() != first || l.Last() != m.last || l.TruncatedTo() != m.trunc {
		m.t.Fatalf("First/Last/TruncatedTo = %v/%v/%v, want %v/%v/%v",
			l.First(), l.Last(), l.TruncatedTo(), first, m.last, m.trunc)
	}
	checkSlots(m.t, l, m.ref)
}

// checkSlots checks a Log's storage directly: the live slots hold ref
// in order, every other slot held is zero (so dropped payloads are
// collectable), and the slots held are at most count plus two
// segments, one partly used at each end, plus maxSpares spares.
func checkSlots(t testing.TB, l *Log, ref []Entry) {
	t.Helper()
	if held, limit := len(l.segs)*segLen, l.count+2*segLen; held > limit {
		t.Fatalf("%d slots in segments for %d entries, limit %d", held, l.count, limit)
	}
	if len(l.spares) > maxSpares {
		t.Fatalf("%d spare segments, limit %d", len(l.spares), maxSpares)
	}
	if l.head < 0 || l.head >= segLen {
		t.Fatalf("head %d outside the first segment", l.head)
	}
	zero := func(e Entry) bool {
		return e.TS == Zero && e.Kind == 0 && e.Collection == "" && e.DocID == "" && e.Payload == nil
	}
	i := -l.head // logical index of segs[0][0]
	for _, seg := range l.segs {
		if len(seg) != segLen {
			t.Fatalf("segment of %d slots, want %d", len(seg), segLen)
		}
		for _, e := range seg {
			if i >= 0 && i < len(ref) {
				if e.TS != ref[i].TS {
					t.Fatalf("slot of entry %d holds %v, want %v", i, e.TS, ref[i].TS)
				}
			} else if !zero(e) {
				t.Fatalf("slot at logical index %d (of %d) not zeroed: %v", i, len(ref), e.TS)
			}
			i++
		}
	}
	for _, seg := range l.spares {
		for _, e := range seg {
			if !zero(e) {
				t.Fatalf("spare segment holds %v", e.TS)
			}
		}
	}
}

// TestRingAgainstReferenceModel drives the Log through randomized
// append/scan/truncate/reset traffic, with batches and caps of up to
// four segments, and cross-checks every observable and every slot
// against a plain-slice model after each operation. This is what
// proves the segment arithmetic right across many boundaries.
func TestRingAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := newLogModel(t)
	segsSeen := 0
	for step := 0; step < 5000; step++ {
		m.step(byte(rng.Intn(256)), byte(rng.Intn(256)))
		segsSeen = max(segsSeen, len(m.l.segs))
	}
	if segsSeen < 4 {
		t.Fatalf("the log never grew past %d segments", segsSeen)
	}
}

// FuzzLogOps decodes its input into Log operations, two bytes each
// (logModel.step), and checks each one against the slice model.
func FuzzLogOps(f *testing.F) {
	f.Add([]byte{1, 255, 4, 128, 6, 0, 2, 64, 3, 100, 5, 0, 0, 0, 12, 0})
	f.Add([]byte{7, 255, 7, 255, 6, 0, 6, 0, 2, 0, 1, 1, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newLogModel(t)
		for ; len(ops) >= 2; ops = ops[2:] {
			m.step(ops[0], ops[1])
		}
	})
}

// TestSlotsHeldFollowEntries checks the memory a Log holds follows the
// entries it keeps: truncation releases the segments it empties, and a
// reset keeps nothing but the spares, which the next appends reuse.
func TestSlotsHeldFollowEntries(t *testing.T) {
	m := newLogModel(t)
	m.appendBatch(10 * segLen)
	if len(m.l.segs) != 10 {
		t.Fatalf("%d entries in %d segments, want 10", 10*segLen, len(m.l.segs))
	}
	m.truncateToLast(100)
	m.check()
	if len(m.l.segs) > 2 || len(m.l.spares) != maxSpares {
		t.Fatalf("after truncating to 100 entries: %d segments and %d spares, want at most 2 and %d",
			len(m.l.segs), len(m.l.spares), maxSpares)
	}
	m.reset()
	m.check()
	spare := m.l.spares[len(m.l.spares)-1]
	m.appendOne()
	if &m.l.segs[0][0] != &spare[0] {
		t.Fatal("the first append after a reset did not reuse a spare segment")
	}
	m.check()
}

// TestCappedLogSteadyStateAllocatesNothing checks a capped log's
// maintenance round — append a batch, truncate back to the cap —
// allocates nothing once the spare segments are filled.
func TestCappedLogSteadyStateAllocatesNothing(t *testing.T) {
	const capEntries, batch = 3 * segLen, segLen - 24
	l := NewLog()
	var secs int64
	round := func() {
		for i := 0; i < batch; i++ {
			secs++
			if err := l.Append(NewNoop(OpTime{secs, 1})); err != nil {
				t.Fatal(err)
			}
		}
		l.TruncateToLast(capEntries)
	}
	// A cycle of the head's offset within a segment is 128 rounds. A
	// run is two cycles: AllocsPerRun truncates to whole allocations per
	// run, and one allocation every few dozen rounds must still show.
	cycles := func() {
		for i := 0; i < 256; i++ {
			round()
		}
	}
	cycles()
	if allocs := testing.AllocsPerRun(4, cycles); allocs != 0 {
		t.Fatalf("%.0f allocations per 256 rounds, want 0", allocs)
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
	n, failed, err := ApplyBatch(byBatch, checked, nil)
	if err != nil || failed != 0 || n.Applied != len(entries) {
		t.Fatalf("ApplyBatch: applied=%d failed=%d err=%v", n.Applied, failed, err)
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
