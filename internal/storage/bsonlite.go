package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// BSON-lite: a compact, self-describing binary encoding of documents,
// in the spirit of BSON. Used for oplog entry payloads (so replication
// ships bytes, not shared pointers) and as the wire body format.
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
// encoded into pooled scratch space and copied out once, so a cached
// encoding (EncodedDoc) carries no growth slack.
func EncodeDoc(d Document) []byte {
	bp := encodeScratch.Get().(*[]byte)
	buf := appendDoc((*bp)[:0], d)
	out := make([]byte, len(buf))
	copy(out, buf)
	if cap(buf) <= maxPooledScratch {
		*bp = buf
		encodeScratch.Put(bp)
	}
	return out
}

// encodeScratch holds EncodeDoc's reusable encoding buffers.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledScratch caps the buffers EncodeDoc returns to its pool, so
// one outsized document does not stay resident.
const maxPooledScratch = 64 << 10

// AppendDoc appends a document's BSON-lite encoding to dst.
func AppendDoc(dst []byte, d Document) []byte {
	return appendDoc(dst, d)
}

// smallDocFields is the field count up to which appendDoc sorts keys
// in a stack scratch buffer, keeping small-document encoding off the
// allocator entirely.
const smallDocFields = 16

func appendDoc(dst []byte, d Document) []byte {
	if len(d) <= smallDocFields {
		var scratch [smallDocFields]string
		keys := scratch[:0]
		for k := range d {
			keys = append(keys, k)
		}
		insertionSortStrings(keys)
		return appendFields(dst, d, keys)
	}
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return appendFields(dst, d, keys)
}

// insertionSortStrings sorts in place without the interface boxing of
// sort.Strings, so a caller's stack scratch buffer does not escape.
func insertionSortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func appendFields(dst []byte, d Document, keys []string) []byte {
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
		return appendDoc(dst, x)
	case map[string]any:
		dst = append(dst, btDoc)
		return appendDoc(dst, Document(x))
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

// DecodeDoc parses BSON-lite bytes back into a document.
func DecodeDoc(b []byte) (Document, error) {
	d, rest, err := DecodeDocPrefix(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(rest))
	}
	return d, nil
}

// maxNesting bounds how deeply arrays and documents may nest, as
// MongoDB bounds BSON. Both decode passes recurse once per level, so
// without it a hostile frame of a few megabytes of nested headers
// would overflow the goroutine stack and kill the process.
const maxNesting = 100

// skipDoc validates the document encoded at b[off:], nested inside
// depth arrays and documents, and returns the offset just past it.
func skipDoc(b []byte, off, depth int) (int, error) {
	n, off, err := readUvarint(b, off)
	if err != nil {
		return 0, err
	}
	// A field costs at least two bytes (key length + type tag), so a
	// count beyond the remaining bytes / 2 is corrupt — reject it
	// before the decode pass sizes a map from it, so hostile input
	// cannot force a huge allocation.
	if n > uint64(len(b)-off)/2 {
		return 0, errCorrupt
	}
	for i := uint64(0); i < n; i++ {
		if off, err = skipLen(b, off); err != nil {
			return 0, err
		}
		if off, err = skipValue(b, off, depth+1); err != nil {
			return 0, err
		}
	}
	return off, nil
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
		if n <= 0 {
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
	v, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, 0, errCorrupt
	}
	return v, off + n, nil
}

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
