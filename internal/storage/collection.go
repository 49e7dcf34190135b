package storage

import (
	"cmp"
	"fmt"
	"sync"

	"decongestant/internal/btree"
)

// Collection is a set of documents keyed by their _id, with optional
// secondary compound indexes.
//
// Concurrency: a Collection is safe for concurrent use. An RWMutex
// lets any number of readers scan while writers mutate exclusively.
// Committed documents are immutable — mutating operations build a
// fresh document and swap the pointer (copy-on-write) — so read
// methods return the stored documents themselves, without defensive
// copies, and a reader's result set stays a consistent snapshot even
// while writers advance the collection. Callers must therefore treat
// every returned Document as strictly read-only; a caller that wants
// to modify a result clones it first.
//
// Documents are reached only through the _id index (idIndex), whose
// per-document slot holds an EncodedDoc wrapper that lazily caches the
// canonical BSON-lite encoding — populated the first time the wire
// layer serializes the document, and invalidated for free because a
// mutation stores a new wrapper in the slot.
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

// Name returns the collection name; Len the number of documents.
func (c *Collection) Name() string { return c.name }

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
		if err := idx.insert(e.doc, id); err != nil {
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

// Indexes returns a copy of the collection's secondary-index map, so
// callers can enumerate indexes without racing concurrent CreateIndex
// calls or mutating the collection's own bookkeeping.
func (c *Collection) Indexes() map[string]*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]*Index, len(c.indexes))
	for name, idx := range c.indexes {
		out[name] = idx
	}
	return out
}

func (idx *Index) keyFor(d Document, id string) (string, string) {
	var enc []byte
	for _, f := range idx.Fields {
		v, _ := d.Get(f) // missing fields index as nil, like MongoDB
		enc = AppendKey(enc, v)
	}
	prefix := string(enc)
	return prefix, prefix + "\x00id:" + id
}

func (idx *Index) insert(d Document, id string) error {
	prefix, key := idx.keyFor(d, id)
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

func (idx *Index) remove(d Document, id string) {
	_, key := idx.keyFor(d, id)
	idx.tree.Delete(key)
}

// Insert adds a document. The document must carry a string _id that is
// not already present. The stored copy is normalized and detached from
// the caller's value.
func (c *Collection) Insert(doc Document) error {
	norm, err := doc.Normalized()
	if err != nil {
		return err
	}
	id, ok := norm["_id"].(string)
	if !ok || id == "" {
		return fmt.Errorf("storage: insert into %s requires a string _id", c.name)
	}
	stored := norm.Clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.ids.get(id); exists {
		return fmt.Errorf("storage: duplicate _id %q in %s", id, c.name)
	}
	var added []*Index
	for _, idx := range c.indexes {
		if err := idx.insert(stored, id); err != nil {
			for _, undo := range added {
				undo.remove(stored, id)
			}
			return err
		}
		added = append(added, idx)
	}
	c.ids.put(id, newEncodedDoc(stored))
	return nil
}

// Upsert inserts the document or fully replaces an existing one with
// the same _id. Used by idempotent oplog application. The previous
// committed document is left untouched (copy-on-write): readers that
// already hold it keep a consistent snapshot.
func (c *Collection) Upsert(doc Document) error {
	norm, err := doc.Normalized()
	if err != nil {
		return err
	}
	stored := norm.Clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.upsertLocked(stored)
}

// UpsertOwned is Upsert for a document the caller hands over: already
// normalized and never mutated again (a freshly decoded oplog payload,
// or a commit-time post-image). It skips the normalize-and-clone pass
// and stores the document directly — committed documents stay immutable
// under copy-on-write, so transferring (or even sharing) the pointer is
// safe.
func (c *Collection) UpsertOwned(doc Document) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.upsertLocked(doc)
}

// upsertLocked replaces or inserts a ready-to-store document. Caller
// holds the write lock.
func (c *Collection) upsertLocked(stored Document) error {
	id, ok := stored["_id"].(string)
	if !ok || id == "" {
		return fmt.Errorf("storage: upsert into %s requires a string _id", c.name)
	}
	if old, exists := c.ids.get(id); exists {
		for _, idx := range c.indexes {
			idx.remove(old.doc, id)
		}
	}
	for _, idx := range c.indexes {
		if err := idx.insert(stored, id); err != nil {
			return err
		}
	}
	c.ids.put(id, newEncodedDoc(stored))
	return nil
}

// ApplySet merges the given fields into the document with the given
// _id, creating it if absent. The operation is idempotent: re-applying
// the same set yields the same state. Copy-on-write: the merge builds
// a fresh document (sharing the unchanged values of the old one, which
// are immutable) and swaps the pointer, so concurrent readers holding
// the pre-image never observe the mutation. It returns the committed
// post-image, which callers must treat as read-only.
func (c *Collection) ApplySet(id string, fields Document) (Document, error) {
	norm, err := fields.Normalized()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applySetLocked(id, norm, false)
}

// ApplySetOwned is ApplySet for field values the caller hands over:
// already normalized and never mutated again (a freshly decoded oplog
// payload, or commit-time post-image fields). It skips normalization
// and moves the values into the merged document without cloning.
func (c *Collection) ApplySetOwned(id string, fields Document) (Document, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applySetLocked(id, fields, true)
}

// applySetLocked merges ready-to-store fields into the identified
// document (copy-on-write: the merge builds a fresh document). Caller
// holds the write lock. When owned, field values transfer without a
// clone.
func (c *Collection) applySetLocked(id string, fields Document, owned bool) (Document, error) {
	var old Document
	oldEnc, exists := c.ids.get(id)
	if exists {
		old = oldEnc.doc
	}
	merged := make(Document, len(old)+len(fields))
	for k, v := range old {
		merged[k] = v
	}
	merged["_id"] = id
	for k, v := range fields {
		if k == "_id" {
			continue
		}
		if owned {
			merged[k] = v
		} else {
			merged[k] = cloneValue(v)
		}
	}
	if exists {
		for _, idx := range c.indexes {
			idx.remove(old, id)
		}
	}
	for _, idx := range c.indexes {
		if err := idx.insert(merged, id); err != nil {
			return nil, err
		}
	}
	c.ids.put(id, newEncodedDoc(merged))
	return merged, nil
}

// Delete removes the document with the given _id; it reports whether a
// document was removed.
func (c *Collection) Delete(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deleteLocked(id)
}

// deleteLocked removes a document. Caller holds the write lock.
func (c *Collection) deleteLocked(id string) bool {
	e, exists := c.ids.get(id)
	if !exists {
		return false
	}
	for _, idx := range c.indexes {
		idx.remove(e.doc, id)
	}
	return c.ids.delete(id)
}

// ApplyKind selects the operation of one ApplyOp.
type ApplyKind int

const (
	// ApplyUpsert stores Doc (which carries its own _id) outright.
	ApplyUpsert ApplyKind = iota
	// ApplyMerge merges Doc's fields into the document identified by ID.
	ApplyMerge
	// ApplyDelete removes the document identified by ID.
	ApplyDelete
)

// ApplyOp is one replication mutation inside an ApplyBatch. Doc is
// owned by the collection after the call (see UpsertOwned).
type ApplyOp struct {
	Kind ApplyKind
	ID   string
	Doc  Document
}

// ApplyBatch applies an ordered run of replication mutations under a
// single write-lock acquisition — the batch apply entry point used by
// secondary oplog application, amortizing lock traffic that per-entry
// calls would pay per document. Individual failures skip the op rather
// than aborting the batch (oplog application must keep going); it
// returns how many ops applied and the first error encountered.
func (c *Collection) ApplyBatch(ops []ApplyOp) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	applied := 0
	var first error
	for _, op := range ops {
		var err error
		switch op.Kind {
		case ApplyUpsert:
			err = c.upsertLocked(op.Doc)
		case ApplyMerge:
			_, err = c.applySetLocked(op.ID, op.Doc, true)
		case ApplyDelete:
			c.deleteLocked(op.ID)
		default:
			err = fmt.Errorf("storage: unknown apply op kind %d", op.Kind)
		}
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		applied++
	}
	return applied, first
}

// CloneShallow returns a new collection sharing this collection's
// committed documents. Documents are immutable under copy-on-write, so
// the pointer sharing is safe; the _id index and secondary index trees
// are copied entry by entry (new slots and trees, same keys). This is
// the initial-sync snapshot: O(n) pointer copies instead of a deep
// clone of every document. Sharing a wrapper shares its encoding cache
// too — safe, since both the document and its cached bytes are
// immutable.
func (c *Collection) CloneShallow() *Collection {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := newCollection(c.name)
	out.ids = c.ids.clone()
	for name, idx := range c.indexes {
		ni := &Index{
			Name:   idx.Name,
			Fields: append([]string(nil), idx.Fields...),
			Unique: idx.Unique,
			tree:   btree.New[string, string](cmp.Compare[string]),
		}
		idx.tree.AscendAll(func(k, id string) bool {
			ni.tree.Set(k, id)
			return true
		})
		out.indexes[name] = ni
	}
	return out
}

// FindByID returns the committed document with the given _id. The
// result is a shared immutable snapshot (committed documents are never
// mutated in place); the caller must not modify it, or anything
// reachable from it, and clones it first if it needs to.
func (c *Collection) FindByID(id string) (Document, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.ids.get(id)
	if !ok {
		return nil, false
	}
	return e.doc, true
}

// FindByIDEncoded returns the committed document's EncodedDoc wrapper,
// giving the caller access to its lazily cached BSON-lite encoding.
// The wire server's binary read path uses it to splice pre-encoded
// bytes into response frames.
func (c *Collection) FindByIDEncoded(id string) (*EncodedDoc, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ids.get(id)
}

// Find returns the committed documents matching the filter, up to
// limit (0 = no limit). It uses a secondary index when the filter has
// equality conditions on an index's leading fields (optionally followed
// by one range condition on the next field); otherwise it scans. The
// results are shared immutable snapshots — strictly read-only for the
// caller.
func (c *Collection) Find(f Filter, limit int) []Document {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Document
	emit := func(d Document) bool {
		if f.Matches(d) {
			out = append(out, d)
			if limit > 0 && len(out) >= limit {
				return false
			}
		}
		return true
	}
	if idx, lo, hi := c.planIndex(f); idx != nil {
		idx.tree.Range(lo, hi, func(k, id string) bool {
			e, ok := c.ids.get(id)
			if !ok {
				return true
			}
			return emit(e.doc)
		})
		return out
	}
	c.scanIDRange(f, func(id string, e *EncodedDoc) bool { return emit(e.doc) })
	return out
}

// FindEncoded is Find returning EncodedDoc wrappers, so the wire
// server can serve a filtered scan from the per-document encoding
// cache. Matching runs against the wrapped documents; results are
// shared and strictly read-only.
func (c *Collection) FindEncoded(f Filter, limit int) []*EncodedDoc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*EncodedDoc
	emit := func(e *EncodedDoc) bool {
		if f.Matches(e.doc) {
			out = append(out, e)
			if limit > 0 && len(out) >= limit {
				return false
			}
		}
		return true
	}
	if idx, lo, hi := c.planIndex(f); idx != nil {
		idx.tree.Range(lo, hi, func(k, id string) bool {
			e, ok := c.ids.get(id)
			if !ok {
				return true
			}
			return emit(e)
		})
		return out
	}
	c.scanIDRange(f, func(id string, e *EncodedDoc) bool { return emit(e) })
	return out
}

// Count returns the number of documents matching the filter.
func (c *Collection) Count(f Filter) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	if idx, lo, hi := c.planIndex(f); idx != nil {
		idx.tree.Range(lo, hi, func(k, id string) bool {
			if e, ok := c.ids.get(id); ok && f.Matches(e.doc) {
				n++
			}
			return true
		})
		return n
	}
	c.scanIDRange(f, func(id string, e *EncodedDoc) bool {
		if f.Matches(e.doc) {
			n++
		}
		return true
	})
	return n
}

// scanIDRange walks the _id index over the slice selected by the
// filter's _id condition — every document when the filter has no
// usable _id bound. Residual matching stays with the caller; this only
// narrows the walk. Caller holds c.mu.
func (c *Collection) scanIDRange(f Filter, fn func(id string, e *EncodedDoc) bool) {
	lo, hi := planIDRange(f)
	c.ids.ascend(lo, hi, fn)
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
// bounds, or nil if none applies. Caller holds c.mu (read or write).
func (c *Collection) planIndex(f Filter) (*Index, string, string) {
	var best *Index
	var bestLo, bestHi string
	bestScore := 0
	for _, idx := range c.indexes {
		score := 0
		var enc []byte
		usable := true
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
		if !usable || score == 0 {
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

// ScanIDs iterates document ids in _id order, for diagnostics/tests.
func (c *Collection) ScanIDs(fn func(id string) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.ids.ascend("", "", func(id string, e *EncodedDoc) bool { return fn(id) })
}

// CollStats is the collstats command's view of one collection.
type CollStats struct {
	Name    string
	Docs    int
	Indexes int
	// EncodedBytes sums the cached BSON-lite encodings — the
	// collection's wire-cache footprint. Documents never serialized
	// contribute 0 (the cache is lazy), so this is a lower bound on
	// data size that converges to it as the read set heats up.
	EncodedBytes int64
	// EncodedDocs counts documents whose encoding is cached.
	EncodedDocs int
}

// Stats reads the collection's collstats under the read lock in one
// ordered walk. It never forces encodings (that would churn CPU and
// memory on a scrape), so EncodedBytes prices only the cache that
// exists.
func (c *Collection) Stats() CollStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := CollStats{Name: c.name, Docs: c.ids.len(), Indexes: len(c.indexes)}
	c.ids.ascend("", "", func(id string, e *EncodedDoc) bool {
		if n := e.EncodedLen(); n > 0 {
			st.EncodedBytes += int64(n)
			st.EncodedDocs++
		}
		return true
	})
	return st
}
