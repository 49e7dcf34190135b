package oplog

// Tests for the segmented Log: every operation cross-checked against a
// flat-slice reference model across many segment boundaries (randomly
// and as a native fuzz target), with a second log that shares the
// first one's entries as a secondary does, the memory held bounded by
// the entries kept, scans and a capped log's steady state free of
// allocation, gap tracking for fetchers that fall off the log, batch
// append, tail notification and the checked batch apply path.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"decongestant/internal/storage"
)

// modelLog is one Log and a plain-slice model of it.
type modelLog struct {
	l     *Log
	ref   []*Entry
	last  OpTime // newest appended or reset TS
	trunc OpTime // newest dropped or reset TS
}

// logModel runs operations on two Logs that share entries, as a
// replica set's members do, and on a model of each side by side,
// failing at the first observable difference. The leader mints and
// appends entries; the follower appends the very entries it scans from
// the leader, and truncates and resets on its own.
type logModel struct {
	t        testing.TB
	leader   modelLog
	follower modelLog
	batch    []*Entry // the follower's fetch batch, reused like a puller's
	next     int64    // Secs of the newest minted TS
}

func newLogModel(t testing.TB) *logModel {
	return &logModel{t: t, leader: modelLog{l: NewLog()}, follower: modelLog{l: NewLog()}}
}

func (m *logModel) mint() OpTime {
	m.next++
	return OpTime{m.next, 1}
}

// entry mints a set entry whose fields all follow from its TS, so
// intact can tell whether anything changed it since.
func (m *logModel) entry() *Entry {
	ts := m.mint()
	return &Entry{TS: ts, Kind: KindSet, Collection: "c", DocID: "d",
		Payload: binary.BigEndian.AppendUint64(nil, uint64(ts.Secs))}
}

// intact reports whether e still holds what entry gave it.
func intact(e *Entry) bool {
	return e.TS.Inc == 1 && e.Kind == KindSet && e.Collection == "c" && e.DocID == "d" &&
		len(e.Payload) == 8 && binary.BigEndian.Uint64(e.Payload) == uint64(e.TS.Secs)
}

func (m *logModel) appendOne() {
	e := m.entry()
	if err := m.leader.l.Append(e); err != nil {
		m.t.Fatal(err)
	}
	m.leader.ref = append(m.leader.ref, e)
	m.leader.last = e.TS
}

func (m *logModel) appendBatch(n int) {
	batch := make([]*Entry, n)
	for i := range batch {
		batch[i] = m.entry()
	}
	if err := m.leader.l.AppendBatch(batch); err != nil {
		m.t.Fatal(err)
	}
	m.leader.ref = append(m.leader.ref, batch...)
	if n > 0 {
		m.leader.last = batch[n-1].TS
	}
}

// follow is one fetch and apply at the follower: scan the leader after
// the follower's newest entry into the reused batch, and append those
// very entries (max <= 0 takes all). A follower whose position fell
// off the leader's log resyncs to the leader's newest entry instead.
func (m *logModel) follow(max int) {
	f := &m.follower
	if f.last.Before(m.leader.l.TruncatedTo()) {
		m.reset(f, m.leader.last)
		return
	}
	m.batch = m.leader.l.ScanAfter(m.batch[:0], f.last, max)
	if err := f.l.AppendBatch(m.batch); err != nil {
		m.t.Fatal(err)
	}
	f.ref = append(f.ref, m.batch...)
	if n := len(m.batch); n > 0 {
		f.last = m.batch[n-1].TS
	}
}

// drop removes the n oldest entries from the model.
func (s *modelLog) drop(n int) {
	if n > 0 {
		s.trunc = s.ref[n-1].TS
		s.ref = s.ref[n:]
	}
}

func (m *logModel) truncateToLast(s *modelLog, n int) {
	want := max(0, len(s.ref)-n)
	if got := s.l.TruncateToLast(n); got != want {
		m.t.Fatalf("TruncateToLast(%d) dropped %d, want %d", n, got, want)
	}
	s.drop(want)
}

func (m *logModel) truncateBefore(s *modelLog, cut OpTime) {
	want := 0
	for want < len(s.ref) && s.ref[want].TS.Before(cut) {
		want++
	}
	if got := s.l.TruncateBefore(cut); got != want {
		m.t.Fatalf("TruncateBefore(%v) dropped %d, want %d", cut, got, want)
	}
	s.drop(want)
}

// truncateToSegment cuts the oldest entries up to the end of the first
// segment, so the head lands exactly on a segment boundary.
func (m *logModel) truncateToSegment(s *modelLog) {
	if drop := segLen - s.l.head; drop <= len(s.ref) {
		m.truncateToLast(s, len(s.ref)-drop)
		if s.l.head != 0 {
			m.t.Fatalf("head at %d after a cut to a segment boundary", s.l.head)
		}
	}
}

func (m *logModel) scan(s *modelLog, after OpTime, max int) {
	got := s.l.ScanAfter(nil, after, max)
	var want []*Entry
	for _, e := range s.ref {
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
		if got[i] != want[i] || !intact(got[i]) {
			m.t.Fatalf("ScanAfter(%v, %d)[%d] = %+v, want the entry minted at %v", after, max, i, *got[i], want[i].TS)
		}
	}
}

// reset restarts s at ts, as an initial sync does.
func (m *logModel) reset(s *modelLog, ts OpTime) {
	s.l.ResetTo(ts)
	s.ref = nil
	s.last, s.trunc = ts, ts
	if len(s.l.segs) != 0 || len(s.l.spares) > maxSpares {
		m.t.Fatalf("ResetTo kept %d segments and %d spares, want 0 and at most %d",
			len(s.l.segs), len(s.l.spares), maxSpares)
	}
}

// pick returns the TS at fraction frac/256 of s's retained entries, or
// Zero for frac 0 or an empty log.
func (m *logModel) pick(s *modelLog, frac int) OpTime {
	if frac == 0 || len(s.ref) == 0 {
		return Zero
	}
	return s.ref[frac*len(s.ref)/256].TS
}

// step runs one operation decoded from two bytes: op modulo 13 chooses
// it, and arg (with op/13, for scans) sizes it. Batches and caps run up
// to four segments' worth of entries.
func (m *logModel) step(op, arg byte) {
	l, f := &m.leader, &m.follower
	switch op % 13 {
	case 0:
		m.appendOne()
	case 1, 7:
		m.appendBatch(int(arg) * 16)
	case 2:
		m.truncateToLast(l, int(arg)*16)
	case 3:
		m.truncateBefore(l, m.pick(l, int(arg)))
	case 4:
		m.scan(l, m.pick(l, int(arg)), int(op/13)*100)
	case 5:
		m.reset(l, m.mint())
	case 6:
		m.truncateToSegment(l)
	case 8:
		m.follow(int(arg) * 16)
	case 9:
		m.truncateToLast(f, int(arg)*16)
	case 10:
		m.truncateBefore(f, m.pick(f, int(arg)))
	case 11:
		m.scan(f, m.pick(f, int(arg)), int(op/13)*100)
	case 12:
		m.reset(f, m.leader.last)
	}
	m.check()
}

// check compares every observable of both logs with its model, then
// their storage itself (checkSlots).
func (m *logModel) check() {
	for _, s := range []*modelLog{&m.leader, &m.follower} {
		l := s.l
		if l.Len() != len(s.ref) {
			m.t.Fatalf("Len=%d, want %d", l.Len(), len(s.ref))
		}
		first := Zero
		if len(s.ref) > 0 {
			first = s.ref[0].TS
		}
		if l.First() != first || l.Last() != s.last || l.TruncatedTo() != s.trunc {
			m.t.Fatalf("First/Last/TruncatedTo = %v/%v/%v, want %v/%v/%v",
				l.First(), l.Last(), l.TruncatedTo(), first, s.last, s.trunc)
		}
		checkSlots(m.t, l, s.ref)
	}
}

// checkSlots checks a Log's storage directly: the live slots hold ref
// in order, each entry intact, every other slot held is nil (so a
// dropped entry no other log holds is collectable), and the slots held
// are at most count plus two segments, one partly used at each end,
// plus maxSpares spares.
func checkSlots(t testing.TB, l *Log, ref []*Entry) {
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
	i := -l.head // logical index of segs[0][0]
	for _, seg := range l.segs {
		if len(seg) != segLen {
			t.Fatalf("segment of %d slots, want %d", len(seg), segLen)
		}
		for _, e := range seg {
			if i >= 0 && i < len(ref) {
				if e != ref[i] || !intact(e) {
					t.Fatalf("slot of entry %d holds %+v, want the entry minted at %v", i, e, ref[i].TS)
				}
			} else if e != nil {
				t.Fatalf("slot at logical index %d (of %d) not cleared: %v", i, len(ref), e.TS)
			}
			i++
		}
	}
	for _, seg := range l.spares {
		for _, e := range seg {
			if e != nil {
				t.Fatalf("spare segment holds %v", e.TS)
			}
		}
	}
}

// TestRingAgainstReferenceModel drives two entry-sharing Logs through
// randomized append/follow/scan/truncate/reset traffic, with batches
// and caps of up to four segments, and cross-checks every observable
// and every slot against the models after each operation. This is what
// proves the segment arithmetic right across many boundaries, and that
// neither log's truncation or reset disturbs what the other holds.
func TestRingAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := newLogModel(t)
	segsSeen, followed := 0, 0
	for step := 0; step < 5000; step++ {
		m.step(byte(rng.Intn(256)), byte(rng.Intn(256)))
		segsSeen = max(segsSeen, len(m.leader.l.segs))
		followed = max(followed, len(m.follower.ref))
	}
	if segsSeen < 4 {
		t.Fatalf("the log never grew past %d segments", segsSeen)
	}
	if followed < segLen {
		t.Fatalf("the follower never held more than %d entries", followed)
	}
}

// FuzzLogOps decodes its input into operations on the two logs, two
// bytes each (logModel.step), and checks each one against the models.
func FuzzLogOps(f *testing.F) {
	f.Add([]byte{1, 255, 4, 128, 6, 0, 2, 64, 3, 100, 5, 0, 0, 0, 17, 0})
	f.Add([]byte{7, 255, 7, 255, 6, 0, 6, 0, 2, 0, 1, 1, 5, 0})
	f.Add([]byte{1, 200, 8, 0, 9, 10, 1, 30, 8, 4, 11, 128, 2, 5, 8, 0, 10, 200, 12, 0, 8, 0})
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
	l := &m.leader
	m.appendBatch(10 * segLen)
	if len(l.l.segs) != 10 {
		t.Fatalf("%d entries in %d segments, want 10", 10*segLen, len(l.l.segs))
	}
	m.truncateToLast(l, 100)
	m.check()
	if len(l.l.segs) > 2 || len(l.l.spares) != maxSpares {
		t.Fatalf("after truncating to 100 entries: %d segments and %d spares, want at most 2 and %d",
			len(l.l.segs), len(l.l.spares), maxSpares)
	}
	m.reset(l, m.mint())
	m.check()
	spare := l.l.spares[len(l.l.spares)-1]
	m.appendOne()
	if &l.l.segs[0][0] != &spare[0] {
		t.Fatal("the first append after a reset did not reuse a spare segment")
	}
	m.check()
}

// entryRing hands out noop entries from a fixed pool, reusing each one
// only after the log has dropped it, so a test can append without end
// and without allocating.
type entryRing struct {
	pool []Entry
	next int
}

func (r *entryRing) take(ts OpTime) *Entry {
	e := &r.pool[r.next]
	r.next = (r.next + 1) % len(r.pool)
	*e = Entry{TS: ts, Kind: KindNoop}
	return e
}

// TestCappedLogSteadyStateAllocatesNothing checks a capped log's
// maintenance round — append a batch, truncate back to the cap —
// allocates nothing once the spare segments are filled.
func TestCappedLogSteadyStateAllocatesNothing(t *testing.T) {
	const capEntries, batch = 3 * segLen, segLen - 24
	l := NewLog()
	ring := entryRing{pool: make([]Entry, capEntries+batch)}
	var secs int64
	round := func() {
		for i := 0; i < batch; i++ {
			secs++
			if err := l.Append(ring.take(OpTime{secs, 1})); err != nil {
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

// TestScanAfterIntoReusedBatchAllocatesNothing: a fetcher that hands
// its previous batch back to ScanAfter scans without allocating,
// caught up at the tail or a full batch behind it.
func TestScanAfterIntoReusedBatchAllocatesNothing(t *testing.T) {
	l := NewLog()
	for i := 1; i <= 3*segLen; i++ {
		if err := l.Append(NewNoop(OpTime{int64(i), 1})); err != nil {
			t.Fatal(err)
		}
	}
	const max = 500
	batch := make([]*Entry, 0, max)
	for _, behind := range []int64{0, 1, max, 2 * segLen} {
		after := OpTime{int64(3*segLen) - behind, 1}
		allocs := testing.AllocsPerRun(100, func() { batch = l.ScanAfter(batch[:0], after, max) })
		if allocs != 0 {
			t.Errorf("%d entries behind: %.0f allocations per scan, want 0", behind, allocs)
		}
		if want := min(behind, max); int64(len(batch)) != want || (want > 0 && batch[0].TS != OpTime{after.Secs + 1, 1}) {
			t.Errorf("%d entries behind: scanned %d entries, want %d from %v", behind, len(batch), want, after.Secs+1)
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
	bad := []*Entry{NewNoop(OpTime{6, 1}), NewNoop(OpTime{6, 1})}
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
	l.AppendBatch([]*Entry{NewNoop(OpTime{2, 1}), NewNoop(OpTime{2, 2}), NewNoop(OpTime{2, 3})})
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
	if got := l.ScanAfter(nil, syncPoint, 0); len(got) != 1 {
		t.Fatalf("scan after reset: %d entries, want 1", len(got))
	}
}

// TestBatchApplyMatchesByteApply replays the same entry sequence
// through the per-entry path and the checked batch path and requires
// identical stored bytes.
func TestBatchApplyMatchesByteApply(t *testing.T) {
	entries := []*Entry{
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
	checked, dropped, err := CheckBatch(append([]*Entry(nil), entries...))
	if err != nil || dropped != 0 {
		t.Fatalf("CheckBatch: dropped=%d err=%v", dropped, err)
	}
	byBatch := storage.NewStore()
	n, failed, err := ApplyBatch(byBatch, checked, nil, nil)
	if err != nil || failed != 0 || n.Applied != len(entries) {
		t.Fatalf("ApplyBatch: applied=%d failed=%d err=%v", n.Applied, failed, err)
	}
	sameStores(t, byBytes, byBatch, "c", "d")
}

// TestApplyBatchIntoReusedRunAllocatesOnlySplices: with the caller's
// run scratch, ApplyBatch's grouping allocates nothing, so a batch of
// deletes allocates nothing and a batch of 64 $sets allocates what 64
// single-entry Applies do, its splices' new versions.
func TestApplyBatchIntoReusedRunAllocatesOnlySplices(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const sets = 64
	s := storage.NewStore()
	var deletes, batch []*Entry
	for i := 0; i < sets; i++ {
		id := fmt.Sprintf("d%d", i)
		if err := s.C("c").Insert(storage.D{"_id": id, "v": int64(0)}); err != nil {
			t.Fatal(err)
		}
		deletes = append(deletes, NewDelete(OpTime{1, uint32(i + 1)}, "c", fmt.Sprintf("ghost%d", i)))
		batch = append(batch, NewSet(OpTime{2, uint32(i + 1)}, "c", id, storage.D{"v": int64(i)}))
	}
	run := make([]storage.ApplyOp, 0, sets)
	apply := func(b []*Entry) func() {
		return func() {
			if _, failed, err := ApplyBatch(s, b, nil, run); failed != 0 || err != nil {
				t.Fatalf("ApplyBatch: failed=%d err=%v", failed, err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, apply(deletes)); allocs != 0 {
		t.Errorf("%.0f allocations per batch of %d deletes, want 0", allocs, sets)
	}
	one := testing.AllocsPerRun(20, func() {
		if err := batch[0].Apply(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs := testing.AllocsPerRun(20, apply(batch)); allocs > sets*one {
		t.Errorf("%.0f allocations per batch of %d $sets, want at most %d × %.0f of one Apply", allocs, sets, sets, one)
	}
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
	entries := []*Entry{
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
	entries := []*Entry{
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
