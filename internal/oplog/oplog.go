// Package oplog implements the operation log that drives primary-copy
// replication: OpTimes with MongoDB-style (seconds, increment)
// structure, idempotent log entries, and an append-only log with
// scan-from-timestamp reads used by secondary pullers.
package oplog

import (
	"fmt"
	"sort"
	"time"

	"decongestant/internal/storage"
)

// OpTime identifies a position in the oplog: wall-clock seconds plus a
// within-second increment, like MongoDB's Timestamp. The one-second
// granularity of the Secs component is what gives serverStatus-based
// staleness estimates their one-second resolution (§4.5 of the paper).
type OpTime struct {
	Secs int64
	Inc  uint32
}

// Zero is the OpTime before any operation.
var Zero = OpTime{}

// IsZero reports whether t is the zero OpTime.
func (t OpTime) IsZero() bool { return t == Zero }

// Compare orders OpTimes: -1, 0, or 1.
func (t OpTime) Compare(o OpTime) int {
	switch {
	case t.Secs != o.Secs:
		if t.Secs < o.Secs {
			return -1
		}
		return 1
	case t.Inc != o.Inc:
		if t.Inc < o.Inc {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// Before reports whether t precedes o.
func (t OpTime) Before(o OpTime) bool { return t.Compare(o) < 0 }

// LagSeconds returns the whole-second distance from t back to earlier;
// this is exactly what a serverStatus staleness computation sees.
func (t OpTime) LagSeconds(earlier OpTime) int64 {
	d := t.Secs - earlier.Secs
	if d < 0 {
		return 0
	}
	return d
}

func (t OpTime) String() string { return fmt.Sprintf("%d.%d", t.Secs, t.Inc) }

// Kind is the type of a logged operation.
type Kind int

const (
	// KindInsert carries the full document.
	KindInsert Kind = iota
	// KindSet carries the fields to merge (post-image values), which
	// makes re-application idempotent.
	KindSet
	// KindDelete removes the document.
	KindDelete
	// KindNoop advances the log without touching data (heartbeat
	// writes, used to keep staleness measurable on idle systems).
	KindNoop
)

func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindSet:
		return "set"
	case KindDelete:
		return "delete"
	case KindNoop:
		return "noop"
	}
	return "unknown"
}

// Entry is one replicated operation, immutable once logged. A replica
// set's members share one process, so a secondary logs the very *Entry
// its primary logged: each entry exists once per set however many logs
// hold it, and a log's slot is one pointer. The payload is a BSON-lite
// encoded document, which each member's store checks and splices or
// stores without decoding.
type Entry struct {
	TS         OpTime
	Kind       Kind
	Collection string
	DocID      string
	Payload    []byte
}

// NewInsert builds an insert entry for doc. The document is normalized
// (convenience numeric widths become int64/float64) before encoding.
func NewInsert(ts OpTime, collection string, doc storage.Document) *Entry {
	norm, err := doc.Canonicalized()
	if err != nil {
		panic(err) // unencodable value: programming error at the write site
	}
	return &Entry{TS: ts, Kind: KindInsert, Collection: collection,
		DocID: norm.ID(), Payload: storage.EncodeDoc(norm)}
}

// NewSet builds a field-merge entry with post-image field values,
// normalized before encoding.
func NewSet(ts OpTime, collection, docID string, fields storage.Document) *Entry {
	norm, err := fields.Canonicalized()
	if err != nil {
		panic(err)
	}
	return &Entry{TS: ts, Kind: KindSet, Collection: collection,
		DocID: docID, Payload: storage.EncodeDoc(norm)}
}

// NewDelete builds a delete entry.
func NewDelete(ts OpTime, collection, docID string) *Entry {
	return &Entry{TS: ts, Kind: KindDelete, Collection: collection, DocID: docID}
}

// NewNoop builds a no-op entry.
func NewNoop(ts OpTime) *Entry { return &Entry{TS: ts, Kind: KindNoop} }

// Apply executes the entry against a store, idempotently: applying an
// entry twice leaves the same state as applying it once. Payloads are
// not decoded: an insert's payload becomes the stored document as it
// is, and a set's encoded fields are spliced into the stored one; the
// version either stores carries e.TS as its stamp. The store validates
// both, so a corrupt payload fails without effect.
func (e *Entry) Apply(s *storage.Store) error {
	op, ok := e.applyOp(nil)
	if !ok {
		if e.Kind == KindNoop {
			return nil
		}
		return fmt.Errorf("oplog: unknown entry kind %d", e.Kind)
	}
	if _, err := s.C(e.Collection).ApplyBatch([]storage.ApplyOp{op}); err != nil {
		return fmt.Errorf("oplog: apply %s %s: %w", e.Kind, e.TS, err)
	}
	return nil
}

// applyOp is e as a store mutation stamped e.TS, offering v as the
// primary's version of a set; false for a noop or an unknown kind.
func (e *Entry) applyOp(v *storage.EncodedDoc) (storage.ApplyOp, bool) {
	op := storage.ApplyOp{ID: e.DocID, Enc: e.Payload, Stamp: storage.Stamp(e.TS)}
	switch e.Kind {
	case KindInsert:
		op.Kind = storage.ApplyUpsert
	case KindSet:
		op.Kind, op.Version = storage.ApplyMerge, v
	case KindDelete:
		op.Kind = storage.ApplyDelete
	default:
		return op, false
	}
	return op, true
}

// Check validates e's payload without decoding it: an insert or set
// must carry exactly one canonical BSON-lite document.
func (e *Entry) Check() error {
	switch e.Kind {
	case KindInsert, KindSet:
		if err := storage.CheckDoc(e.Payload); err != nil {
			return fmt.Errorf("oplog: check %s %s: %w", e.Kind, e.TS, err)
		}
	}
	return nil
}

// CheckBatch drops the entries of a fetched batch whose payload fails
// Check, filtering in place, so a secondary validates a batch outside
// any lock and never logs a corrupt entry. It returns the kept
// entries, how many were dropped, and the first error (nil if none).
func CheckBatch(entries []*Entry) ([]*Entry, int, error) {
	out := entries[:0]
	var first error
	for _, e := range entries {
		if err := e.Check(); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		out = append(out, e)
	}
	return out, len(entries) - len(out), first
}

// DecodedEntry is a copy of an Entry with its payload decoded, for
// consumers outside a store: chunk migration replays it as writes, and
// the wire ships it in oplog_tail responses.
type DecodedEntry struct {
	Entry
	// Doc is the decoded payload: the full document for an insert, the
	// post-image fields for a set, nil for delete/noop.
	Doc storage.Document
}

// Decode parses e's payload once.
func (e *Entry) Decode() (DecodedEntry, error) {
	d := DecodedEntry{Entry: *e}
	switch e.Kind {
	case KindInsert, KindSet:
		doc, err := storage.DecodeDoc(e.Payload)
		if err != nil {
			return d, fmt.Errorf("oplog: decode %s %s: %w", e.Kind, e.TS, err)
		}
		d.Doc = doc
	}
	return d, nil
}

// DecodeBatch decodes every entry of a fetched batch, dropping
// undecodable ones. It returns the decoded batch, how many entries
// were dropped, and the first decode error (nil if none).
func DecodeBatch(entries []*Entry) ([]DecodedEntry, int, error) {
	out := make([]DecodedEntry, 0, len(entries))
	dropped := 0
	var first error
	for _, e := range entries {
		d, err := e.Decode()
		if err != nil {
			dropped++
			if first == nil {
				first = err
			}
			continue
		}
		out = append(out, d)
	}
	return out, dropped, first
}

// ApplyBatch applies an ordered run of entries to a store, grouping
// consecutive same-collection mutations so each group takes its
// collection's write lock once (the batch apply entry point). Like
// Apply it hands payloads to the store undecoded and stamps each
// stored version with its entry's TS. versions is nil or parallel to
// batch: versions[i], when set, is the version the primary stored for
// set entry batch[i] (stamped batch[i].TS), which the store adopts in
// place of a splice when it replaced the version this store holds
// (storage.ApplyOp.Version). Individual failures are skipped, not
// fatal: it returns what applied (noops count as applied), how many
// entries failed, and the first error. run is scratch space for the
// same-collection groups, nil or a slice the caller reuses: each group
// is built in run[:0] and cleared once applied, so a run with room for
// len(batch) ops spares the call its allocation.
func ApplyBatch(s *storage.Store, batch []*Entry, versions []*storage.EncodedDoc, run []storage.ApplyOp) (n storage.ApplyCounts, failed int, firstErr error) {
	run = run[:0]
	var runColl string
	flush := func() {
		if len(run) == 0 {
			return
		}
		got, err := s.C(runColl).ApplyBatch(run)
		n.Applied += got.Applied
		n.Adopted += got.Adopted
		n.Spliced += got.Spliced
		failed += len(run) - got.Applied
		if err != nil && firstErr == nil {
			firstErr = err
		}
		clear(run) // hold no payload or version the log and store drop
		run = run[:0]
	}
	for i, e := range batch {
		var v *storage.EncodedDoc
		if versions != nil {
			v = versions[i]
		}
		op, ok := e.applyOp(v)
		if !ok {
			if e.Kind == KindNoop {
				n.Applied++ // advances the log without touching data
				continue
			}
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("oplog: unknown entry kind %d", e.Kind)
			}
			continue
		}
		if e.Collection != runColl {
			flush()
			runColl = e.Collection
		}
		run = append(run, op)
	}
	flush()
	return n, failed, firstErr
}

// Segment geometry: a Log stores pointers to its entries in segments
// of segLen slots (8 KB each), so a slot's segment and offset are a
// shift and a mask of its position. A log keeps up to maxSpares emptied
// segments for reuse: a round that appends up to one segment's worth of
// entries and then truncates back to a cap crosses at most two segment
// boundaries at the tail before the head releases any, so two spares
// keep that steady state free of allocation.
const (
	segShift  = 10
	segLen    = 1 << segShift
	segMask   = segLen - 1
	maxSpares = 2
)

// Log is an append-only sequence of entries ordered by OpTime, stored
// as pointers in fixed-size segments. The entries are immutable and
// may be shared: a secondary's log holds the very entries its
// primary's does, while its head, truncation and reset stay its own.
// An append fills the newest segment and adds a segment when it is
// full; truncation clears the dropped slots and releases every segment
// it empties. No entry is ever copied, and the memory held follows the
// entries kept: at most one partly filled segment at each end plus the
// spares, which the next segments added reuse, so a capped log's
// steady state allocates nothing. The Log carries no lock of its own;
// callers (the cluster node) synchronize access.
type Log struct {
	segs   [][]*Entry // segLen-slot segments, oldest first; unused slots are nil
	head   int        // slot of the oldest entry in segs[0]
	count  int        // live entries
	spares [][]*Entry // up to maxSpares emptied (all-nil) segments

	lastTS  OpTime
	nextInc uint32
	lastSec int64

	// truncatedTo is the TS of the newest entry ever discarded (by
	// truncation or reset). A fetcher whose position is before this has
	// fallen off the log and must resync rather than fetch.
	truncatedTo OpTime

	// onAppend, if set, runs once after every Append/AppendBatch — the
	// tail-notification hook pullers use to wake on new entries instead
	// of sleep-polling. It runs under whatever lock guards the Log, so
	// it must not block.
	onAppend func()
}

// NewLog creates an empty log.
func NewLog() *Log { return &Log{} }

// OnAppend installs the tail-notification hook (nil disables it).
func (l *Log) OnAppend(fn func()) { l.onAppend = fn }

func (l *Log) notify() {
	if l.onAppend != nil {
		l.onAppend()
	}
}

// at returns the i-th oldest entry.
func (l *Log) at(i int) *Entry {
	i += l.head
	return l.segs[i>>segShift][i&segMask]
}

// put stores e in the next free slot, which ensure has made room for.
func (l *Log) put(e *Entry) {
	i := l.head + l.count
	l.segs[i>>segShift][i&segMask] = e
	l.count++
}

// span calls fn on the slots of entries [i, j) one segment at a time.
func (l *Log) span(i, j int, fn func(slots []*Entry)) {
	for i < j {
		k := l.head + i
		slots := l.segs[k>>segShift][k&segMask:]
		slots = slots[:min(len(slots), j-i)]
		fn(slots)
		i += len(slots)
	}
}

// ensure adds segments, spares first, until n more entries fit.
func (l *Log) ensure(n int) {
	for len(l.segs)<<segShift < l.head+l.count+n {
		var seg []*Entry
		if k := len(l.spares) - 1; k >= 0 {
			seg = l.spares[k]
			l.spares[k] = nil
			l.spares = l.spares[:k]
		} else {
			seg = make([]*Entry, segLen)
		}
		l.segs = append(l.segs, seg)
	}
}

// release discards the k oldest segments, which hold no live entry,
// keeping up to maxSpares of them. The rest shift down in place, so
// segs keeps its backing array.
func (l *Log) release(k int) {
	for _, seg := range l.segs[:k] {
		if len(l.spares) < maxSpares {
			l.spares = append(l.spares, seg)
		}
	}
	n := copy(l.segs, l.segs[k:])
	clear(l.segs[n:])
	l.segs = l.segs[:n]
}

// dropFirst discards the n oldest entries, clearing their slots so an
// entry no other log holds is collectable, releases the segments that
// emptied (all of them when the log empties), and records the newest
// dropped TS.
func (l *Log) dropFirst(n int) int {
	if n <= 0 {
		return 0
	}
	if n > l.count {
		n = l.count
	}
	l.truncatedTo = l.at(n - 1).TS
	l.span(0, n, func(slots []*Entry) { clear(slots) })
	l.head += n
	l.count -= n
	if l.count == 0 {
		l.release(len(l.segs))
		l.head = 0
		return n
	}
	l.release(l.head >> segShift)
	l.head &= segMask
	return n
}

// NextTS mints the OpTime for an operation occurring at virtual time
// now, monotonically increasing.
func (l *Log) NextTS(now time.Duration) OpTime {
	secs := int64(now / time.Second)
	if secs < l.lastSec {
		secs = l.lastSec
	}
	if secs != l.lastSec {
		l.lastSec = secs
		l.nextInc = 0
	}
	l.nextInc++
	ts := OpTime{Secs: secs, Inc: l.nextInc}
	if !l.lastTS.Before(ts) {
		ts = OpTime{Secs: l.lastTS.Secs, Inc: l.lastTS.Inc + 1}
		l.lastSec = ts.Secs
		l.nextInc = ts.Inc
	}
	return ts
}

// Append adds an entry; its TS must exceed the last appended TS. The
// log holds e itself, which must not change from here on.
func (l *Log) Append(e *Entry) error {
	if !l.lastTS.Before(e.TS) {
		return fmt.Errorf("oplog: append out of order: %s after %s", e.TS, l.lastTS)
	}
	l.ensure(1)
	l.put(e)
	l.lastTS = e.TS
	l.notify()
	return nil
}

// AppendBatch adds entries (each TS exceeding the previous) with one
// capacity check and one tail notification for the whole batch: a
// transaction's commit at the primary, or an applied chunk at a
// secondary. The log holds the entries themselves, not copies; the
// caller may reuse the slice. On an ordering error nothing is appended.
func (l *Log) AppendBatch(entries []*Entry) error {
	last := l.lastTS
	for _, e := range entries {
		if !last.Before(e.TS) {
			return fmt.Errorf("oplog: batch append out of order: %s after %s", e.TS, last)
		}
		last = e.TS
	}
	if len(entries) == 0 {
		return nil
	}
	l.ensure(len(entries))
	for _, e := range entries {
		l.put(e)
	}
	l.lastTS = last
	l.notify()
	return nil
}

// Last returns the OpTime of the newest entry (Zero if empty).
func (l *Log) Last() OpTime { return l.lastTS }

// First returns the OpTime of the oldest retained entry (Zero if empty).
func (l *Log) First() OpTime {
	if l.count == 0 {
		return Zero
	}
	return l.at(0).TS
}

// TruncatedTo returns the TS of the newest entry ever discarded (Zero
// if the log has never dropped anything). A fetch position before this
// value has a gap: entries it has not seen are gone.
func (l *Log) TruncatedTo() OpTime { return l.truncatedTo }

// Len returns the number of entries retained.
func (l *Log) Len() int { return l.count }

// search returns the smallest logical index whose entry's TS
// satisfies pred, or count if none does; pred must hold from some
// index on and nowhere before it (entries are TS-ordered). Fetch
// positions and truncation cutoffs sit near the tail, so search
// gallops back from the newest entry, probing 1, 2, 4, … entries back,
// and binary-searches only the span it crossed last: an answer d
// entries from the tail costs O(log d) probes, and a caught-up
// fetcher's costs one.
func (l *Log) search(pred func(OpTime) bool) int {
	hi := l.count // pred holds from hi on
	for step := 1; hi > 0; step <<= 1 {
		lo := max(hi-step, 0)
		if !pred(l.at(lo).TS) {
			return lo + 1 + sort.Search(hi-lo-1, func(k int) bool {
				return pred(l.at(lo + 1 + k).TS)
			})
		}
		hi = lo
	}
	return 0
}

// ScanAfter appends to dst up to max entries (all if max <= 0) with
// TS strictly after `after`, and returns the extended slice. The
// entries are the log's own, shared and immutable; a caller that
// passes its previous batch back as dst[:0] scans without allocating.
func (l *Log) ScanAfter(dst []*Entry, after OpTime, max int) []*Entry {
	i := l.search(after.Before)
	end := l.count
	if max > 0 && i+max < end {
		end = i + max
	}
	l.span(i, end, func(slots []*Entry) { dst = append(dst, slots...) })
	return dst
}

// TruncateBefore discards entries with TS before the cutoff, bounding
// memory like MongoDB's capped oplog collection. It returns how many
// entries were dropped.
func (l *Log) TruncateBefore(cutoff OpTime) int {
	return l.dropFirst(l.search(func(ts OpTime) bool { return !ts.Before(cutoff) }))
}

// TruncateToLast keeps only the newest n entries, returning how many
// were dropped — the secondary-side oplog cap (secondaries have no
// fetchers to protect, but must bound memory like any capped
// collection).
func (l *Log) TruncateToLast(n int) int {
	if n < 0 || l.count <= n {
		return 0
	}
	return l.dropFirst(l.count - n)
}

// ResetTo discards every entry and restarts the log at ts, as after an
// initial sync: the node's data now reflects a snapshot at ts, earlier
// history is gone (TruncatedTo reports ts), and the next append must
// follow ts.
func (l *Log) ResetTo(ts OpTime) {
	l.dropFirst(l.count)
	l.lastTS = ts
	l.lastSec = ts.Secs
	l.nextInc = ts.Inc
	l.truncatedTo = ts
}
