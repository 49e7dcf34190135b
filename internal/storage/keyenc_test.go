package storage

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKeyEncodingOrdersNumbers(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e18, -5, -0.5, 0, 0.5, 5, 1e18, math.Inf(1)}
	var keys []string
	for _, v := range vals {
		keys = append(keys, string(AppendKey(nil, v)))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("number keys out of order: %q", keys)
	}
}

func TestKeyEncodingIntFloatInterleave(t *testing.T) {
	a := string(AppendKey(nil, int64(3)))
	b := string(AppendKey(nil, 3.5))
	c := string(AppendKey(nil, int64(4)))
	if !(a < b && b < c) {
		t.Fatal("int/float interleaving broken")
	}
	if a3f := string(AppendKey(nil, 3.0)); a3f != a {
		t.Fatal("int64(3) and float64(3) encode differently")
	}
}

func TestKeyEncodingOrdersStringsWithZeros(t *testing.T) {
	vals := []string{"", "a", "a\x00", "a\x00b", "a\x01", "ab", "b"}
	var keys []string
	for _, v := range vals {
		keys = append(keys, string(AppendKey(nil, v)))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("string keys out of order at %d: %q vs %q", i, vals[i-1], vals[i])
		}
	}
}

func TestKeyEncodingTypeOrder(t *testing.T) {
	// nil < false < true < number < string < bytes
	ordered := []any{nil, false, true, int64(-1), "a", []byte("a")}
	var keys []string
	for _, v := range ordered {
		keys = append(keys, string(AppendKey(nil, v)))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("type ordering broken: %q", keys)
	}
}

// compoundKey encodes the ordered field values of a compound index
// entry, as Index.keyFor does.
func compoundKey(values ...any) string {
	var dst []byte
	for _, v := range values {
		dst = AppendKey(dst, v)
	}
	return string(dst)
}

func TestCompoundKeyPrefixScan(t *testing.T) {
	full := compoundKey(int64(1), "d2", int64(77))
	prefix := compoundKey(int64(1), "d2")
	if len(full) <= len(prefix) || full[:len(prefix)] != prefix {
		t.Fatal("compound key does not extend its prefix")
	}
	succ := PrefixSuccessor(prefix)
	if !(prefix <= full && full < succ) {
		t.Fatal("full key not within [prefix, successor)")
	}
	other := compoundKey(int64(1), "d3", int64(0))
	if other < succ {
		t.Fatal("key from different prefix fell inside the range")
	}
}

func TestPrefixSuccessorAll0xFF(t *testing.T) {
	if PrefixSuccessor("\xff\xff") != "" {
		t.Fatal("successor of all-0xFF should be empty")
	}
	if PrefixSuccessor("") != "" {
		t.Fatal("successor of empty should be empty")
	}
	if PrefixSuccessor("a\xff") != "b" {
		t.Fatalf("PrefixSuccessor(a 0xFF) = %q", PrefixSuccessor("a\xff"))
	}
}

func TestQuickNumberKeyOrderMatchesValueOrder(t *testing.T) {
	f := func(a, b float64) bool {
		if a != a || b != b {
			return true // NaN unordered; not used as keys
		}
		ka := string(AppendKey(nil, a))
		kb := string(AppendKey(nil, b))
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStringKeyOrderMatchesValueOrder(t *testing.T) {
	f := func(a, b string) bool {
		ka := string(AppendKey(nil, a))
		kb := string(AppendKey(nil, b))
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
