package storage

import (
	"cmp"

	"decongestant/internal/btree"
)

// idIndex is a collection's primary index: every committed document,
// keyed by _id. It pairs a hash map, which serves every point lookup
// in O(1), with an ordered B+ tree, which serves scans, _id ranges and
// CloneShallow. Both hold the same *idSlot per document, so replacing
// a document rewrites the slot and touches neither structure; only
// inserting a new id or deleting one changes them.
//
// It is not safe for concurrent use; the owning Collection's lock
// guards it.
type idIndex struct {
	byID  map[string]*idSlot
	order *btree.Tree[string, *idSlot]
}

// idSlot holds the current committed version of one document. The
// wrapper it points to is immutable; a write stores a new one.
type idSlot struct {
	e *EncodedDoc
}

func newIDIndex() idIndex {
	return idIndex{
		byID:  make(map[string]*idSlot),
		order: btree.New[string, *idSlot](cmp.Compare[string]),
	}
}

func (x *idIndex) len() int { return len(x.byID) }

// get returns the committed document stored under id.
func (x *idIndex) get(id string) (*EncodedDoc, bool) {
	s, ok := x.byID[id]
	if !ok {
		return nil, false
	}
	return s.e, true
}

// put stores e under id, replacing the slot's current document when
// the id exists and adding a slot to both structures when it does not.
func (x *idIndex) put(id string, e *EncodedDoc) {
	if s, ok := x.byID[id]; ok {
		s.e = e
		return
	}
	s := &idSlot{e: e}
	x.byID[id] = s
	x.order.Set(id, s)
}

// delete removes id and reports whether it was present.
func (x *idIndex) delete(id string) bool {
	if _, ok := x.byID[id]; !ok {
		return false
	}
	delete(x.byID, id)
	x.order.Delete(id)
	return true
}

// ascend calls fn over the documents with lo <= _id < hi in _id
// order; an empty hi leaves the interval unbounded above.
func (x *idIndex) ascend(lo, hi string, fn func(id string, e *EncodedDoc) bool) {
	visit := func(id string, s *idSlot) bool { return fn(id, s.e) }
	if hi == "" {
		x.order.Ascend(lo, visit)
		return
	}
	x.order.Range(lo, hi, visit)
}

// clone returns an index over the same committed documents with slots
// of its own, so writes to either copy stay invisible to the other.
// The ordered tree is copied node by node (btree.Tree.Clone).
func (x *idIndex) clone() idIndex {
	out := idIndex{byID: make(map[string]*idSlot, len(x.byID))}
	out.order = x.order.Clone(func(id string, s *idSlot) *idSlot {
		ns := &idSlot{e: s.e}
		out.byID[id] = ns
		return ns
	})
	return out
}
