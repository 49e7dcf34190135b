package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"decongestant/internal/btree"
)

// Collection is a set of documents keyed by their _id, with optional
// secondary compound indexes.
//
// Each document is stored once, as an immutable EncodedDoc reached
// through the _id index (idIndex); a mutation builds a new encoding (a
// $set splices its fields into the old one) and swaps the slot's
// pointer. Point reads hand the bytes to the wire untouched; FindByID
// and Find decode one document at a time for the caller.
//
// Concurrency: a Collection is safe for concurrent use. An RWMutex
// lets any number of readers scan while writers mutate exclusively.
type Collection struct {
	name    string
	mu      sync.RWMutex
	ids     idIndex
	indexes map[string]*Index
}

// Index is a secondary compound index. Entries are keyed by the
// memcomparable encoding of the indexed field values followed by the
// document _id (so duplicates coexist); the entry value is the _id.
type Index struct {
	Name   string
	Fields []string
	Unique bool
	tree   *btree.Tree[string, string]
}

func newCollection(name string) *Collection {
	return &Collection{
		name:    name,
		ids:     newIDIndex(),
		indexes: make(map[string]*Index),
	}
}

// Len returns the number of documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ids.len()
}

// CreateIndex adds a compound index over the given field paths and
// backfills it from existing documents.
func (c *Collection) CreateIndex(name string, unique bool, fields ...string) (*Index, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("storage: index %q has no fields", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.indexes[name]; exists {
		return nil, fmt.Errorf("storage: index %q already exists on %s", name, c.name)
	}
	idx := &Index{
		Name:   name,
		Fields: fields,
		Unique: unique,
		tree:   btree.New[string, string](cmp.Compare[string]),
	}
	var backfillErr error
	c.ids.ascend("", "", func(id string, e *EncodedDoc) bool {
		if err := idx.checkKeyable(e); err != nil {
			backfillErr = err
			return false
		}
		if err := idx.insert(e, id); err != nil {
			backfillErr = err
			return false
		}
		return true
	})
	if backfillErr != nil {
		return nil, backfillErr
	}
	c.indexes[name] = idx
	return idx, nil
}

// checkKeyable rejects a document whose indexed field holds a value
// with no key order (an array or an embedded document).
func (idx *Index) checkKeyable(doc *EncodedDoc) error {
	for _, f := range idx.Fields {
		if v, _ := doc.Get(f); !keyable(v) {
			return fmt.Errorf("storage: index %q cannot key field %q holding %T", idx.Name, f, v)
		}
	}
	return nil
}

func (idx *Index) keyFor(doc *EncodedDoc, id string) (string, string) {
	var enc []byte
	for _, f := range idx.Fields {
		v, _ := doc.Get(f) // missing fields index as nil, like MongoDB
		enc = AppendKey(enc, v)
	}
	prefix := string(enc)
	return prefix, prefix + "\x00id:" + id
}

func (idx *Index) insert(doc *EncodedDoc, id string) error {
	prefix, key := idx.keyFor(doc, id)
	if idx.Unique {
		dup := false
		idx.tree.Range(prefix, PrefixSuccessor(prefix), func(k, v string) bool {
			dup = true
			return false
		})
		if dup {
			return fmt.Errorf("storage: duplicate key for unique index %q", idx.Name)
		}
	}
	idx.tree.Set(key, id)
	return nil
}

func (idx *Index) remove(doc *EncodedDoc, id string) {
	_, key := idx.keyFor(doc, id)
	idx.tree.Delete(key)
}

// Insert adds a document. The document must carry a string _id that is
// not already present. It is stored as its own encoding, detached from
// the caller's value, under a local stamp.
func (c *Collection) Insert(doc Document) error {
	doc, err := doc.Canonicalized()
	if err != nil {
		return err
	}
	id, ok := doc["_id"].(string)
	if !ok || id == "" {
		return fmt.Errorf("storage: insert into %s requires a string _id", c.name)
	}
	e := &EncodedDoc{b: EncodeDoc(doc), ver: localStamp()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.ids.get(id); exists {
		return fmt.Errorf("storage: duplicate _id %q in %s", id, c.name)
	}
	return c.storeLocked(id, nil, e)
}

// InsertEncoded adds a document already in its stored form (an oplog
// insert payload) under a local stamp and returns the stored version.
// It fails, changing nothing, if the document's _id is present. enc is
// validated and then kept as it is: the caller hands it over.
func (c *Collection) InsertEncoded(enc []byte) (*EncodedDoc, error) {
	e := &EncodedDoc{b: enc, ver: localStamp()}
	id, err := c.checkStored(e)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.ids.get(id); exists {
		return nil, fmt.Errorf("storage: duplicate _id %q in %s", id, c.name)
	}
	if err := c.storeLocked(id, nil, e); err != nil {
		return nil, err
	}
	return e, nil
}

// checkStored validates a version's encoding and returns its _id.
func (c *Collection) checkStored(e *EncodedDoc) (string, error) {
	if err := CheckDoc(e.b); err != nil {
		return "", err
	}
	v, _ := e.Get("_id")
	id, ok := v.(string)
	if !ok || id == "" {
		return "", fmt.Errorf("storage: a document stored in %s requires a string _id", c.name)
	}
	return id, nil
}

// upsertLocked stores e, whose ver is set, in place of the document
// with its _id, recording that version's stamp as e's pre-image. e's
// encoding is validated and then kept as it is.
func (c *Collection) upsertLocked(e *EncodedDoc) error {
	id, err := c.checkStored(e)
	if err != nil {
		return err
	}
	old, _ := c.ids.get(id)
	e.prev = old.Stamp()
	return c.storeLocked(id, old, e)
}

// ApplySet merges the given fields into the document with the given
// _id, creating it if absent; re-applying the same set yields the same
// state. It encodes the fields into scratch space, splices them in
// (ApplySetEncoded) and returns the committed post-image.
func (c *Collection) ApplySet(id string, fields Document) (*EncodedDoc, error) {
	fields, err := fields.Canonicalized()
	if err != nil {
		return nil, err
	}
	bp := encodeScratch.Get().(*[]byte)
	*bp = AppendDoc((*bp)[:0], fields)
	_, e, err := c.ApplySetEncoded(id, *bp)
	putScratch(bp)
	return e, err
}

// ApplySetEncoded is ApplySet for an oplog $set payload (see splice):
// it returns the version it replaced (nil if the document was absent)
// and the spliced version, stored under a local stamp. A corrupt set
// is rejected and changes nothing; set is never kept.
func (c *Collection) ApplySetEncoded(id string, set []byte) (old, e *EncodedDoc, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, _ = c.ids.get(id)
	if e, err = c.spliceLocked(id, old, set, localStamp()); err != nil {
		return nil, nil, err
	}
	return old, e, nil
}

// spliceLocked stores set's fields spliced into old, the committed
// version of id, as a new version stamped ver. Caller holds the write
// lock.
func (c *Collection) spliceLocked(id string, old *EncodedDoc, set []byte, ver Stamp) (*EncodedDoc, error) {
	enc, err := splice(old.Bytes(), set, id)
	if err != nil {
		return nil, err
	}
	e := &EncodedDoc{b: enc, ver: ver, prev: old.Stamp()}
	if err := c.storeLocked(id, old, e); err != nil {
		return nil, err
	}
	return e, nil
}

// Restore makes e, a version this collection held for id before, its
// committed version again, stamps and all (nil removes id): the undo
// of a failed commit. Restoring a state the indexes accepted before
// fails only if something else changed since.
func (c *Collection) Restore(id string, e *EncodedDoc) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e == nil {
		c.deleteLocked(id)
		return nil
	}
	cur, _ := c.ids.get(id)
	return c.storeLocked(id, cur, e)
}

// storeLocked makes e the committed version of document id, moving its
// secondary-index entries over from old (nil for a new document). An
// indexed field e cannot key is rejected before any index is touched;
// a unique-index violation restores old's entries. Either way the
// collection is left unchanged. Caller holds the write lock.
func (c *Collection) storeLocked(id string, old, e *EncodedDoc) error {
	for _, idx := range c.indexes {
		if err := idx.checkKeyable(e); err != nil {
			return err
		}
	}
	for _, idx := range c.indexes {
		if old != nil {
			idx.remove(old, id)
		}
		if err := idx.insert(e, id); err != nil {
			for _, idx := range c.indexes {
				idx.remove(e, id)
				if old != nil {
					_, key := idx.keyFor(old, id)
					idx.tree.Set(key, id)
				}
			}
			return err
		}
	}
	c.ids.put(id, e)
	return nil
}

// Delete removes the document with the given _id and returns the
// version it removed (nil if there was none).
func (c *Collection) Delete(id string) *EncodedDoc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deleteLocked(id)
}

// deleteLocked removes a document. Caller holds the write lock.
func (c *Collection) deleteLocked(id string) *EncodedDoc {
	old, ok := c.ids.get(id)
	if !ok {
		return nil
	}
	for _, idx := range c.indexes {
		idx.remove(old, id)
	}
	c.ids.delete(id)
	return old
}

// ApplyKind selects the operation of one ApplyOp.
type ApplyKind int

const (
	// ApplyUpsert stores Enc (which carries its own _id) outright.
	ApplyUpsert ApplyKind = iota
	// ApplyMerge merges Enc's fields into the document identified by
	// ID, or stores Version in its place.
	ApplyMerge
	// ApplyDelete removes the document identified by ID.
	ApplyDelete
)

// ApplyOp is one replication mutation inside an ApplyBatch. Enc is its
// oplog payload, which an upsert stores as it is (the caller hands it
// over) and a merge splices (see ApplySetEncoded), and Stamp the
// OpTime of its oplog entry, which the version it stores carries (the
// zero Stamp takes a local one).
//
// Version, when set on a merge, is the version the primary stored for
// the same entry: stamped Stamp, immutable, and shared. The merge
// stores it as it is, adopting it instead of splicing, when it replaced
// a version carrying the same stamp as this collection's current one —
// both members then held the same bytes, so the splice would rebuild
// Version's. Otherwise the merge splices Enc.
type ApplyOp struct {
	Kind    ApplyKind
	ID      string
	Enc     []byte
	Stamp   Stamp
	Version *EncodedDoc
}

// ApplyCounts tallies an ApplyBatch: the ops applied, and how many of
// the merges among them adopted the primary's version or spliced.
type ApplyCounts struct {
	Applied, Adopted, Spliced int
}

// ApplyBatch applies an ordered run of replication mutations under one
// write-lock acquisition, the secondary's batch apply entry point.
// A failed op is skipped, not fatal (oplog application must keep
// going); it returns what applied and the first error.
func (c *Collection) ApplyBatch(ops []ApplyOp) (ApplyCounts, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n ApplyCounts
	var first error
	for _, op := range ops {
		if err := c.applyLocked(op, &n); err != nil && first == nil {
			first = err
		}
	}
	return n, first
}

// applyLocked applies one op, counting it in n if it applied. Caller
// holds the write lock.
func (c *Collection) applyLocked(op ApplyOp, n *ApplyCounts) error {
	ver := op.Stamp
	if ver == (Stamp{}) {
		ver = localStamp()
	}
	switch op.Kind {
	case ApplyUpsert:
		if err := c.upsertLocked(&EncodedDoc{b: op.Enc, ver: ver}); err != nil {
			return err
		}
	case ApplyMerge:
		old, _ := c.ids.get(op.ID)
		if v := op.Version; v != nil && v.ver == ver && v.prev == old.Stamp() {
			if err := c.storeLocked(op.ID, old, v); err != nil {
				return err
			}
			n.Adopted++
			break
		}
		if _, err := c.spliceLocked(op.ID, old, op.Enc, ver); err != nil {
			return err
		}
		n.Spliced++
	case ApplyDelete:
		c.deleteLocked(op.ID)
	default:
		return fmt.Errorf("storage: unknown apply op kind %d", op.Kind)
	}
	n.Applied++
	return nil
}

// CloneShallow returns a new collection sharing this collection's
// immutable stored documents, with new slots and with the _id index
// and secondary index trees copied node by node (same keys and shape):
// the initial-sync snapshot, O(n) pointer copies instead of n
// documents.
func (c *Collection) CloneShallow() *Collection {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := newCollection(c.name)
	out.ids = c.ids.clone()
	for name, idx := range c.indexes {
		out.indexes[name] = &Index{
			Name:   idx.Name,
			Fields: append([]string(nil), idx.Fields...),
			Unique: idx.Unique,
			tree:   idx.tree.Clone(nil),
		}
	}
	return out
}

// FindByID returns the committed document with the given _id, decoded
// into a Document the caller owns.
func (c *Collection) FindByID(id string) (Document, bool) {
	e, ok := c.FindByIDEncoded(id)
	if !ok {
		return nil, false
	}
	return e.Doc(), true
}

// FindByIDEncoded returns the committed document in its stored form.
// The wire server's read path splices its bytes into response frames.
func (c *Collection) FindByIDEncoded(id string) (*EncodedDoc, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ids.get(id)
}

// Find returns the committed documents matching the filter, up to
// limit (0 = no limit), each decoded into a Document the caller owns.
func (c *Collection) Find(f Filter, limit int) []Document {
	sp := c.matches(f, limit)
	defer releaseMatches(sp)
	if len(*sp) == 0 {
		return nil
	}
	out := make([]Document, len(*sp))
	for i, e := range *sp {
		out[i] = e.Doc()
	}
	return out
}

// FindEncoded is Find returning the stored forms, so the wire server
// can serve a filtered scan without decoding or encoding a document.
func (c *Collection) FindEncoded(f Filter, limit int) []*EncodedDoc {
	sp := c.matches(f, limit)
	defer releaseMatches(sp)
	if len(*sp) == 0 {
		return nil
	}
	return slices.Clone(*sp)
}

// matches collects the documents matching f, up to limit, into a
// pooled scratch slice, so Find and FindEncoded allocate their results
// once at their final size; releaseMatches hands the slice back.
func (c *Collection) matches(f Filter, limit int) *[]*EncodedDoc {
	sp := matchScratch.Get().(*[]*EncodedDoc)
	hits := (*sp)[:0]
	c.mu.RLock()
	c.scan(f, func(e *EncodedDoc) bool {
		hits = append(hits, e)
		return limit <= 0 || len(hits) < limit
	})
	c.mu.RUnlock()
	*sp = hits
	return sp
}

var matchScratch = sync.Pool{New: func() any { return new([]*EncodedDoc) }}

// maxPooledMatches caps the scratch slices returned to matchScratch,
// so one unbounded scan does not keep a large slice resident.
const maxPooledMatches = 4096

// releaseMatches clears a matches result, so the pool holds no
// document alive, and pools it unless it grew past maxPooledMatches.
func releaseMatches(sp *[]*EncodedDoc) {
	clear(*sp)
	if cap(*sp) <= maxPooledMatches {
		*sp = (*sp)[:0]
		matchScratch.Put(sp)
	}
}

// Count returns the number of documents matching the filter.
func (c *Collection) Count(f Filter) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	c.scan(f, func(*EncodedDoc) bool {
		n++
		return true
	})
	return n
}

// scan calls fn, until it returns false, on each document matching f.
// It uses a secondary index when the filter has equality conditions on
// an index's leading fields (optionally followed by one range
// condition on the next field); otherwise it walks the _id interval
// the filter's _id condition selects. Caller holds c.mu.
func (c *Collection) scan(f Filter, fn func(e *EncodedDoc) bool) {
	visit := func(e *EncodedDoc) bool { return !f.matchesEncoded(e) || fn(e) }
	if idx, lo, hi := c.planIndex(f); idx != nil {
		idx.tree.Range(lo, hi, func(k, id string) bool {
			e, ok := c.ids.get(id)
			return !ok || visit(e)
		})
		return
	}
	lo, hi := planIDRange(f)
	c.ids.ascend(lo, hi, func(id string, e *EncodedDoc) bool { return visit(e) })
}

// planIDRange resolves a filter's _id condition into a primary-key
// interval [lo, hi) ("" hi = unbounded). An equality becomes a
// single-key interval; one- and two-sided string ranges map directly
// (ids compare as raw strings, and s+"\x00" is the successor of s).
// A condition that does not bound the scan yields ("", ""): every id.
func planIDRange(f Filter) (lo, hi string) {
	cnd, present := f["_id"]
	if !present {
		return "", ""
	}
	bound := func(op Op, v any) bool {
		s, isStr := v.(string)
		if !isStr {
			return false
		}
		switch op {
		case OpGt:
			lo = s + "\x00"
		case OpGte:
			lo = s
		case OpLt:
			hi = s
		case OpLte:
			hi = s + "\x00"
		default:
			return false
		}
		return true
	}
	switch {
	case cnd.Op == OpEq:
		if id, isStr := cnd.Value.(string); isStr {
			return id, id + "\x00"
		}
	case IsRangeOp(cnd.Op):
		if bound(cnd.Op, cnd.Value) && (cnd.Op2 == 0 || bound(cnd.Op2, cnd.Value2)) {
			return lo, hi
		}
	}
	return "", ""
}

// planIndex picks an index usable for the filter and returns the scan
// bounds, or nil if none applies. An index whose key the filter's
// values cannot encode (an array or an embedded document) is skipped:
// the scan then filters every candidate. Caller holds c.mu (read or
// write).
func (c *Collection) planIndex(f Filter) (*Index, string, string) {
	var best *Index
	var bestLo, bestHi string
	bestScore := 0
	for _, idx := range c.indexes {
		if !filterKeyable(f, idx) {
			continue
		}
		score := 0
		var enc []byte
		var lo, hi string
		for i, field := range idx.Fields {
			cnd, ok := f[field]
			if !ok {
				break
			}
			if cnd.Op == OpEq {
				enc = AppendKey(enc, cnd.Value)
				score = i + 1
				continue
			}
			// One trailing range condition is usable — one-sided, or a
			// two-sided interval carried in Op2/Value2, which scans the
			// closed interval [lo, hi) instead of one side of the prefix
			// plus residual filtering.
			if IsRangeOp(cnd.Op) {
				prefix := string(enc)
				lo, hi = prefix, PrefixSuccessor(prefix)
				apply := func(op Op, val any) {
					switch op {
					case OpGt, OpGte:
						lo = string(AppendKey([]byte(prefix), val))
						if op == OpGt {
							lo = PrefixSuccessor(lo)
						}
					case OpLt, OpLte:
						hi = string(AppendKey([]byte(prefix), val))
						if op == OpLte {
							hi = PrefixSuccessor(hi)
						}
					}
				}
				apply(cnd.Op, cnd.Value)
				if cnd.Op2 != 0 {
					apply(cnd.Op2, cnd.Value2)
				}
				score = i + 1
			}
			break
		}
		if score == 0 {
			continue
		}
		if lo == "" && hi == "" {
			prefix := string(enc)
			lo, hi = prefix, PrefixSuccessor(prefix)
		}
		if score > bestScore {
			best, bestLo, bestHi, bestScore = idx, lo, hi, score
		}
	}
	if best == nil {
		return nil, "", ""
	}
	if bestHi == "" {
		bestHi = "\xff\xff\xff\xff\xff\xff\xff\xff"
	}
	return best, bestLo, bestHi
}

// filterKeyable reports whether every filter value planIndex would
// encode for idx's fields is keyable.
func filterKeyable(f Filter, idx *Index) bool {
	for _, field := range idx.Fields {
		cnd, ok := f[field]
		switch {
		case !ok:
			return true
		case cnd.Op == OpEq:
			if !keyable(cnd.Value) {
				return false
			}
		case IsRangeOp(cnd.Op):
			return keyable(cnd.Value) && (cnd.Op2 == 0 || keyable(cnd.Value2))
		default:
			return true
		}
	}
	return true
}

// ScanIDs iterates document ids in _id order, for diagnostics/tests.
func (c *Collection) ScanIDs(fn func(id string) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.ids.ascend("", "", func(id string, e *EncodedDoc) bool { return fn(id) })
}

// ScanIndex iterates the named secondary index's entries in key
// order — each entry's encoded key and its document's _id — for
// diagnostics/tests. It reports whether the index exists.
func (c *Collection) ScanIndex(name string, fn func(key, id string) bool) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	idx, ok := c.indexes[name]
	if ok {
		idx.tree.AscendAll(fn)
	}
	return ok
}

// CollStats is the collstats command's view of one collection.
type CollStats struct {
	Name    string
	Docs    int
	Indexes int
	// EncodedBytes is the collection's data size: the sum of its
	// documents' stored encodings.
	EncodedBytes int64
}

// Stats reads the collection's collstats under the read lock in one
// ordered walk.
func (c *Collection) Stats() CollStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := CollStats{Name: c.name, Docs: c.ids.len(), Indexes: len(c.indexes)}
	c.ids.ascend("", "", func(id string, e *EncodedDoc) bool {
		st.EncodedBytes += int64(len(e.b))
		return true
	})
	return st
}
