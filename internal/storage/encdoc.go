package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync/atomic"
)

// EncodedDoc is one committed version of a document in its stored
// form, the only form a collection keeps: its canonical BSON-lite
// encoding (names sorted at every level) at exact size, plus two
// stamps — the version's own and that of the version it replaced. It
// is immutable once stored and stamped — a mutation stores a new
// EncodedDoc in the document's slot — so readers, and the co-hosted
// members of a replica set, share it without copies and keep a
// consistent snapshot while writers move on.
type EncodedDoc struct {
	b    []byte
	ver  Stamp // this version's stamp
	prev Stamp // the stamp of the version it replaced; zero if none
}

// Stamp names one stored version of a document. A version replication
// produced carries the OpTime of the oplog entry that produced it: the
// same seconds and increment, so an oplog.OpTime converts to a Stamp.
// A version written outside the oplog (a load, a test's direct write)
// carries a local stamp, unique in the process, whose negative seconds
// no OpTime has. The zero Stamp names no version: the pre-image of a
// document that did not exist. Two members whose versions of a
// document carry the same stamp therefore hold the same bytes, which
// is what lets a secondary store the primary's version of a $set
// instead of splicing its own (ApplyOp.Version).
type Stamp struct {
	Secs int64
	Inc  uint32
}

// localStamps counts the local stamps minted. It is one per process,
// not per collection, because clones share versions across stores: a
// stamp must not recur in any store a version can reach.
var localStamps atomic.Int64

// localStamp mints a stamp no other version carries.
func localStamp() Stamp { return Stamp{Secs: -localStamps.Add(1)} }

// Stamp returns the version's stamp (zero for a nil EncodedDoc).
func (e *EncodedDoc) Stamp() Stamp {
	if e == nil {
		return Stamp{}
	}
	return e.ver
}

// SetStamps restamps a version its writer has just stored, before the
// stamps are read by anyone else: the primary's commit stamps each
// version it stored with the OpTime it mints for the version's oplog
// entry, and with the stamp of the version it replaced. Every other
// writer stamps through the store.
func (e *EncodedDoc) SetStamps(ver, replaced Stamp) { e.ver, e.prev = ver, replaced }

// Bytes returns the stored encoding (nil for a nil EncodedDoc): shared
// and strictly read-only, spliced into wire frames as it is.
func (e *EncodedDoc) Bytes() []byte {
	if e == nil {
		return nil
	}
	return e.b
}

// Doc decodes the document into a fresh Document the caller owns.
func (e *EncodedDoc) Doc() Document {
	r := decoder{s: string(e.b)}
	return r.doc()
}

// Get decodes the value of one (possibly dotted) field path, as
// Document.Get does, and nothing else of the document.
func (e *EncodedDoc) Get(path string) (any, bool) {
	raw, ok := lookup(e.b, path)
	if !ok {
		return nil, false
	}
	r := decoder{s: string(raw)}
	return r.value(), true
}

// fieldIter walks the top-level fields of an encoded document,
// validating each: next stops, setting err, at a corrupt field or at a
// name that does not sort strictly after the one before it. The
// current field is held as offsets into b, so next writes no pointers.
type fieldIter struct {
	b             []byte
	off, depth    int
	left          uint64
	start, ks, vs int // the current field's first byte, name and value (type tag on)
	err           error
}

// iterFields starts a walk over the document at the front of b,
// nested inside depth arrays and documents.
func iterFields(b []byte, depth int) fieldIter {
	n, off, err := readUvarint(b, 0)
	// A field costs at least two bytes (key length + type tag): reject a
	// count beyond the remaining bytes / 2 before the decode pass sizes
	// a map from it, so hostile input cannot force a huge allocation.
	if err == nil && n > uint64(len(b)-off)/2 {
		err = errCorrupt
	}
	return fieldIter{b: b, off: off, depth: depth, left: n, err: err}
}

func (it *fieldIter) next() bool {
	if it.left == 0 || it.err != nil {
		return false
	}
	n, ks, err := readUvarint(it.b, it.off)
	if err != nil || n > uint64(len(it.b)-ks) {
		it.err = errCorrupt
		return false
	}
	vs := ks + int(n)
	if it.start > 0 && bytes.Compare(it.b[it.ks:it.vs], it.b[ks:vs]) >= 0 {
		it.err = fmt.Errorf("%w: field %q out of order", errCorrupt, it.b[ks:vs])
		return false
	}
	end, err := skipValue(it.b, vs, it.depth+1)
	if err != nil {
		it.err = err
		return false
	}
	it.start, it.ks, it.vs, it.off = it.off, ks, vs, end
	it.left--
	return true
}

// key, val and field return the current field's name, its value (type
// tag on) and its whole encoding.
func (it *fieldIter) key() []byte   { return it.b[it.ks:it.vs] }
func (it *fieldIter) val() []byte   { return it.b[it.vs:it.off] }
func (it *fieldIter) field() []byte { return it.b[it.start:it.off] }

// lookup finds the value (type tag onward) of a possibly dotted field
// path in an encoded document, descending only through embedded
// documents, as Document.Get does.
func lookup(doc []byte, path string) ([]byte, bool) {
	for {
		seg, rest, dotted := strings.Cut(path, ".")
		it, found := iterFields(doc, 0), false
		for !found && it.next() {
			found = string(it.key()) == seg
		}
		if !found {
			return nil, false
		}
		v := it.val()
		if !dotted || v[0] != btDoc {
			return v, !dotted
		}
		doc, path = v[1:], rest
	}
}

// splice returns the stored form of old with the fields of set merged
// in: one linear merge of two sorted field lists, with no map and no
// sort, copied out at exact size. A field in both takes set's value,
// set's own _id is dropped, and an absent document (old nil) starts as
// {_id: id}. A set that is not exactly one canonical document is
// rejected (CheckDoc).
func splice(old, set []byte, id string) ([]byte, error) {
	if err := CheckDoc(set); err != nil {
		return nil, err
	}
	if old == nil {
		old = EncodeDoc(Document{"_id": id})
	}
	// The field count is known only at the end, so the merge leaves
	// room for its uvarint in front of the fields.
	bp := encodeScratch.Get().(*[]byte)
	defer putScratch(bp)
	buf := append((*bp)[:0], make([]byte, binary.MaxVarintLen64)...)
	a, b := iterFields(old, 0), iterFields(set, 0)
	okA, okB := a.next(), b.next()
	n := 0
	for okA || okB {
		if okB && string(b.key()) == "_id" {
			okB = b.next()
			continue
		}
		c := -1
		if !okA {
			c = 1
		} else if okB {
			c = bytes.Compare(a.key(), b.key())
		}
		if c < 0 {
			buf = append(buf, a.field()...)
			okA = a.next()
		} else {
			buf = append(buf, b.field()...)
			if c == 0 {
				okA = a.next()
			}
			okB = b.next()
		}
		n++
	}
	*bp = buf
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(n))
	enc := buf[binary.MaxVarintLen64-h:]
	copy(enc, hdr[:h])
	out := make([]byte, len(enc))
	copy(out, enc)
	return out, nil
}
