// Package storage implements the in-memory document store that backs
// each replica-set node: JSON-like documents, collections with a
// primary _id index and optional secondary (compound) indexes over a
// memcomparable key encoding, filtered queries with simple index
// selection, and a compact binary ("BSON-lite") document encoding: the
// form every committed document is stored in, oplog payloads travel in
// and the wire carries.
//
// The store is safe for concurrent use: collections carry
// reader-writer locks, and stored encodings are immutable (a mutation
// builds a new encoding and swaps the pointer), so readers share them
// without copies. A Document obtained from a collection is decoded for
// the caller.
package storage

import (
	"fmt"
)

// Document is a JSON-like document. Supported value types: nil, bool,
// int64, float64, string, []byte, []any and Document. Integers of other
// widths are normalized to int64 on insert.
type Document map[string]any

// D is shorthand for constructing documents in code.
type D = Document

// Normalize converts convenience numeric types (int, int32, ...) to the
// canonical int64/float64 representation, recursively. It returns an
// error for unsupported types.
func Normalize(v any) (any, error) {
	switch x := v.(type) {
	case nil, bool, int64, float64, string, []byte:
		return x, nil
	case int:
		return int64(x), nil
	case int8:
		return int64(x), nil
	case int16:
		return int64(x), nil
	case int32:
		return int64(x), nil
	case uint8:
		return int64(x), nil
	case uint16:
		return int64(x), nil
	case uint32:
		return int64(x), nil
	case float32:
		return float64(x), nil
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			n, err := Normalize(e)
			if err != nil {
				return nil, err
			}
			out[i] = n
		}
		return out, nil
	case Document:
		return x.Normalized()
	case map[string]any:
		return Document(x).Normalized()
	default:
		return nil, fmt.Errorf("storage: unsupported value type %T", v)
	}
}

// Normalized returns a copy of d with all values normalized.
func (d Document) Normalized() (Document, error) {
	out := make(Document, len(d))
	for k, v := range d {
		n, err := Normalize(v)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", k, err)
		}
		out[k] = n
	}
	return out, nil
}

// Canonicalized returns d itself when it is Canonical, since it encodes
// as it stands, and a normalized copy otherwise.
func (d Document) Canonicalized() (Document, error) {
	if Canonical(d) {
		return d, nil
	}
	return d.Normalized()
}

// Canonical reports whether v already has only canonical types, so
// that it encodes as it stands and Normalize would only copy it. It
// allocates nothing.
func Canonical(v any) bool {
	switch x := v.(type) {
	case nil, bool, int64, float64, string, []byte:
		return true
	case []any:
		for _, e := range x {
			if !Canonical(e) {
				return false
			}
		}
		return true
	case Document:
		for _, e := range x {
			if !Canonical(e) {
				return false
			}
		}
		return true
	case map[string]any:
		return Canonical(Document(x))
	}
	return false
}

// Clone performs a deep copy of the document.
func (d Document) Clone() Document {
	out := make(Document, len(d))
	for k, v := range d {
		out[k] = cloneValue(v)
	}
	return out
}

func cloneValue(v any) any {
	switch x := v.(type) {
	case Document:
		return x.Clone()
	case map[string]any:
		return Document(x).Clone()
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = cloneValue(e)
		}
		return out
	case []byte:
		out := make([]byte, len(x))
		copy(out, x)
		return out
	default:
		return x
	}
}

// Get returns the value of a (possibly dotted) field path.
func (d Document) Get(path string) (any, bool) {
	cur := any(d)
	start := 0
	for i := 0; i <= len(path); i++ {
		if i == len(path) || path[i] == '.' {
			seg := path[start:i]
			doc, ok := asDocument(cur)
			if !ok {
				return nil, false
			}
			v, ok := doc[seg]
			if !ok {
				return nil, false
			}
			cur = v
			start = i + 1
		}
	}
	return cur, true
}

func asDocument(v any) (Document, bool) {
	switch x := v.(type) {
	case Document:
		return x, true
	case map[string]any:
		return Document(x), true
	default:
		return nil, false
	}
}

// Int returns the field as int64 (0 if missing or not numeric).
func (d Document) Int(path string) int64 {
	v, _ := d.Get(path)
	switch x := v.(type) {
	case int64:
		return x
	case float64:
		return int64(x)
	}
	return 0
}

// Float returns the field as float64 (0 if missing or not numeric).
func (d Document) Float(path string) float64 {
	v, _ := d.Get(path)
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	}
	return 0
}

// Str returns the field as string ("" if missing or not a string).
func (d Document) Str(path string) string {
	v, _ := d.Get(path)
	s, _ := v.(string)
	return s
}

// Array returns the field as a []any (nil if missing or wrong type).
func (d Document) Array(path string) []any {
	v, _ := d.Get(path)
	a, _ := v.([]any)
	return a
}

// Doc returns the field as a nested Document.
func (d Document) Doc(path string) Document {
	v, _ := d.Get(path)
	doc, _ := asDocument(v)
	return doc
}

// ID returns the document's _id as a string. Non-string ids are
// formatted canonically.
func (d Document) ID() string {
	v, ok := d["_id"]
	if !ok {
		return ""
	}
	if s, ok := v.(string); ok {
		return s
	}
	return fmt.Sprint(v)
}

// Equal reports deep equality of two values in the document model.
func Equal(a, b any) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case int64:
		switch y := b.(type) {
		case int64:
			return x == y
		case float64:
			return float64(x) == y
		}
		return false
	case float64:
		switch y := b.(type) {
		case float64:
			return x == y
		case int64:
			return x == float64(y)
		}
		return false
	case string:
		y, ok := b.(string)
		return ok && x == y
	case []byte:
		y, ok := b.([]byte)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	case Document:
		y, ok := asDocument(b)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !Equal(v, w) {
				return false
			}
		}
		return true
	case map[string]any:
		return Equal(Document(x), b)
	}
	return false
}
