package storage

import (
	"encoding/binary"
	"math"
)

// Memcomparable key encoding: encodes index key values to byte strings
// whose bytewise order matches the value order. Used for compound
// secondary index keys.
//
// Type tags establish a total order across types:
// nil < bool < number < string < bytes. Numbers (int64 and float64) are
// encoded under a single tag as order-corrected IEEE-754 doubles, so
// integers and floats interleave correctly; integer magnitudes above
// 2^53 lose ordering precision (document ids in this codebase are far
// below that).
const (
	tagNil    byte = 0x01
	tagFalse  byte = 0x02
	tagTrue   byte = 0x03
	tagNumber byte = 0x04
	tagString byte = 0x05
	tagBytes  byte = 0x06
)

// keyable reports whether AppendKey can encode v. Arrays and embedded
// documents have no key order, so a field holding one is not indexable.
func keyable(v any) bool {
	switch v.(type) {
	case nil, bool, int64, float64, string, []byte:
		return true
	}
	return false
}

// AppendKey appends the memcomparable encoding of v to dst. v must be
// keyable.
func AppendKey(dst []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil)
	case bool:
		if x {
			return append(dst, tagTrue)
		}
		return append(dst, tagFalse)
	case int64:
		return appendNumber(dst, float64(x))
	case float64:
		return appendNumber(dst, x)
	case string:
		dst = append(dst, tagString)
		return appendEscaped(dst, []byte(x))
	case []byte:
		dst = append(dst, tagBytes)
		return appendEscaped(dst, x)
	default:
		// Writes and filters are checked with keyable first, so this
		// indicates a programming error.
		panic("storage: unindexable key type")
	}
}

func appendNumber(dst []byte, f float64) []byte {
	dst = append(dst, tagNumber)
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits // negative: flip all bits
	} else {
		bits |= 1 << 63 // non-negative: flip sign bit
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], bits)
	return append(dst, buf[:]...)
}

// appendEscaped writes b with 0x00 escaped as 0x00 0xFF and terminates
// with 0x00 0x01, preserving prefix ordering.
func appendEscaped(dst, b []byte) []byte {
	for _, c := range b {
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x01)
}

// PrefixSuccessor returns the smallest string greater than every string
// with the given prefix, or "" if there is none (all 0xFF).
func PrefixSuccessor(prefix string) string {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xFF {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}
