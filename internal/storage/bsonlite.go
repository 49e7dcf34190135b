package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// BSON-lite: a compact, self-describing binary encoding of documents,
// in the spirit of BSON. It is the stored form of every committed
// document (EncodedDoc), the oplog payload format and the wire's
// document format.
//
// Layout: document = uvarint fieldCount, then per field:
// uvarint len + name bytes, 1-byte type code, value. Fields are written
// in sorted name order so encodings are canonical and comparable.

const (
	btNil    byte = 0x00
	btFalse  byte = 0x01
	btTrue   byte = 0x02
	btInt64  byte = 0x03
	btFloat  byte = 0x04
	btString byte = 0x05
	btBytes  byte = 0x06
	btArray  byte = 0x07
	btDoc    byte = 0x08
)

var errCorrupt = errors.New("storage: corrupt bson-lite data")

// EncodeDoc serializes a document to BSON-lite bytes. The result is
// one allocation whose capacity equals its length: the document is
// encoded into pooled scratch space and copied out once, so a stored
// encoding (EncodedDoc) carries no growth slack.
func EncodeDoc(d Document) []byte {
	bp := encodeScratch.Get().(*[]byte)
	*bp = AppendDoc((*bp)[:0], d)
	out := make([]byte, len(*bp))
	copy(out, *bp)
	putScratch(bp)
	return out
}

// encodeScratch holds reusable encoding buffers (EncodeDoc, ApplySet).
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

func putScratch(bp *[]byte) {
	if cap(*bp) <= maxPooledScratch {
		encodeScratch.Put(bp)
	}
}

// maxPooledScratch caps the buffers EncodeDoc returns to its pool, so
// one outsized document does not stay resident.
const maxPooledScratch = 64 << 10

// AppendDoc appends a document's BSON-lite encoding to dst. Up to 16
// keys sort in a stack buffer (slices.SortFunc does not box, so it
// does not escape), keeping small-document encoding off the allocator.
func AppendDoc(dst []byte, d Document) []byte {
	var scratch [16]string
	keys := scratch[:0]
	for k := range d {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, strings.Compare)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = appendValue(dst, d[k])
	}
	return dst
}

func appendValue(dst []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, btNil)
	case bool:
		if x {
			return append(dst, btTrue)
		}
		return append(dst, btFalse)
	case int64:
		dst = append(dst, btInt64)
		return binary.AppendVarint(dst, x)
	case float64:
		dst = append(dst, btFloat)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		return append(dst, buf[:]...)
	case string:
		dst = append(dst, btString)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...)
	case []byte:
		dst = append(dst, btBytes)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...)
	case []any:
		dst = append(dst, btArray)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		for _, e := range x {
			dst = appendValue(dst, e)
		}
		return dst
	case Document:
		dst = append(dst, btDoc)
		return AppendDoc(dst, x)
	case map[string]any:
		dst = append(dst, btDoc)
		return AppendDoc(dst, Document(x))
	default:
		panic(fmt.Sprintf("storage: cannot encode %T (normalize first)", v))
	}
}

// AppendValue appends one value's BSON-lite encoding (type tag plus
// payload) to dst. The value must be in the canonical document model
// (Normalize first); unsupported types panic like EncodeDoc.
func AppendValue(dst []byte, v any) []byte {
	return appendValue(dst, v)
}

// Decoding runs in two passes. The first (skipDoc/skipValue) walks the
// raw bytes, applies every corrupt-input bound check and finds where
// the encoding ends; the second copies exactly those bytes into one
// string and builds the values from it, so every key and string value
// is a substring of that one copy. A decoded document therefore costs
// one copy of its bytes plus its maps, slices and interface boxes, and
// never aliases the caller's buffer (which may be a reused frame).

// DecodeValue decodes one BSON-lite value from b, returning the value
// and the unconsumed remainder.
func DecodeValue(b []byte) (any, []byte, error) {
	n, err := skipValue(b, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	r := decoder{s: string(b[:n])}
	return r.value(), b[n:], nil
}

// DecodeDocPrefix decodes one document from the front of b, returning
// the unconsumed remainder — for streams that concatenate documents
// back to back (the encoding is self-delimiting).
func DecodeDocPrefix(b []byte) (Document, []byte, error) {
	n, err := skipDoc(b, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	r := decoder{s: string(b[:n])}
	return r.doc(), b[n:], nil
}

// DecodeDocs decodes n documents stored back to back at the front of
// b, returning the unconsumed remainder. It validates all n first and
// then copies their bytes once, so every key and string value of the n
// documents is a substring of that one copy.
func DecodeDocs(b []byte, n int) ([]Document, []byte, error) {
	end := 0
	for i := 0; i < n; i++ {
		var err error
		if end, err = skipDoc(b, end, 0); err != nil {
			return nil, nil, err
		}
	}
	r := decoder{s: string(b[:end])}
	docs := make([]Document, n)
	for i := range docs {
		docs[i] = r.doc()
	}
	return docs, b[end:], nil
}

// CheckDoc reports whether b is exactly one canonical BSON-lite
// document: well formed, field names strictly sorted at every level,
// no overlong varint, and nothing after it.
func CheckDoc(b []byte) error {
	n, err := skipDoc(b, 0, 0)
	if err == nil && n != len(b) {
		err = fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(b)-n)
	}
	return err
}

// DecodeDoc parses BSON-lite bytes, exactly one document, back into a
// document.
func DecodeDoc(b []byte) (Document, error) {
	if err := CheckDoc(b); err != nil {
		return nil, err
	}
	r := decoder{s: string(b)}
	return r.doc(), nil
}

// maxNesting bounds how deeply arrays and documents may nest, as
// MongoDB bounds BSON. Both decode passes recurse once per level, so
// without it a hostile frame of a few megabytes of nested headers
// would overflow the goroutine stack and kill the process.
const maxNesting = 100

// skipDoc validates the document encoded at b[off:], nested inside
// depth arrays and documents, and returns the offset just past it.
// Field names must be strictly sorted, as the encoder writes them, so
// a duplicate or out-of-order name is corrupt.
func skipDoc(b []byte, off, depth int) (int, error) {
	it := iterFields(b[off:], depth)
	for it.next() {
	}
	return off + it.off, it.err
}

// skipValue validates the value encoded at b[off:] (type tag plus
// payload), nested inside depth arrays and documents, and returns the
// offset just past it.
func skipValue(b []byte, off, depth int) (int, error) {
	if off >= len(b) {
		return 0, errCorrupt
	}
	if depth > maxNesting {
		return 0, fmt.Errorf("%w: nested deeper than %d", errCorrupt, maxNesting)
	}
	tag := b[off]
	off++
	switch tag {
	case btNil, btFalse, btTrue:
		return off, nil
	case btInt64:
		_, n := binary.Varint(b[off:])
		if n <= 0 || overlong(b[off:off+n]) {
			return 0, errCorrupt
		}
		return off + n, nil
	case btFloat:
		if len(b)-off < 8 {
			return 0, errCorrupt
		}
		return off + 8, nil
	case btString, btBytes:
		return skipLen(b, off)
	case btArray:
		n, off, err := readUvarint(b, off)
		if err != nil {
			return 0, err
		}
		// An element costs at least one byte (its type tag): bound the
		// slice the decode pass allocates by the bytes that could
		// actually back it.
		if n > uint64(len(b)-off) {
			return 0, errCorrupt
		}
		for i := uint64(0); i < n; i++ {
			if off, err = skipValue(b, off, depth+1); err != nil {
				return 0, err
			}
		}
		return off, nil
	case btDoc:
		return skipDoc(b, off, depth)
	default:
		return 0, fmt.Errorf("%w: unknown type tag 0x%02x", errCorrupt, tag)
	}
}

// skipLen validates a uvarint length prefix at b[off:] and the bytes
// it counts, returning the offset just past them.
func skipLen(b []byte, off int) (int, error) {
	n, off, err := readUvarint(b, off)
	if err != nil || n > uint64(len(b)-off) {
		return 0, errCorrupt
	}
	return off + int(n), nil
}

func readUvarint(b []byte, off int) (uint64, int, error) {
	if off < len(b) && b[off] < 0x80 { // every length and count under 128
		return uint64(b[off]), off + 1, nil
	}
	v, n := binary.Uvarint(b[off:])
	if n <= 0 || overlong(b[off:off+n]) {
		return 0, 0, errCorrupt
	}
	return v, off + n, nil
}

// overlong reports whether a varint is longer than it needs to be: a
// last byte of zero adds nothing. Rejecting it keeps every valid
// encoding canonical, so equal documents have equal bytes.
func overlong(v []byte) bool { return len(v) > 1 && v[len(v)-1] == 0 }

// decoder builds values from an encoding skipDoc or skipValue has
// already validated, so it checks no bounds of its own. Keys and
// string values are substrings of s.
type decoder struct {
	s   string
	off int
}

func (r *decoder) doc() Document {
	n := r.uvarint()
	d := make(Document, n)
	for i := uint64(0); i < n; i++ {
		k := r.str()
		d[k] = r.value()
	}
	return d
}

func (r *decoder) value() any {
	tag := r.s[r.off]
	r.off++
	switch tag {
	case btFalse:
		return false
	case btTrue:
		return true
	case btInt64:
		u := r.uvarint()
		v := int64(u >> 1)
		if u&1 != 0 {
			v = ^v
		}
		return v
	case btFloat:
		var bits uint64
		for i := 7; i >= 0; i-- {
			bits = bits<<8 | uint64(r.s[r.off+i])
		}
		r.off += 8
		return math.Float64frombits(bits)
	case btString:
		return r.str()
	case btBytes:
		return []byte(r.str())
	case btArray:
		arr := make([]any, r.uvarint())
		for i := range arr {
			arr[i] = r.value()
		}
		return arr
	case btDoc:
		return r.doc()
	}
	return nil // btNil
}

// str reads a length-prefixed string as a substring of r.s.
func (r *decoder) str() string {
	n := int(r.uvarint())
	v := r.s[r.off : r.off+n]
	r.off += n
	return v
}

// uvarint reads a uvarint the way binary.Uvarint does.
func (r *decoder) uvarint() uint64 {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		c := r.s[r.off]
		r.off++
		if c < 0x80 {
			return v | uint64(c)<<shift
		}
		v |= uint64(c&0x7f) << shift
	}
}
