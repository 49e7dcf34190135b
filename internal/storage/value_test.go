package storage

import (
	"testing"
	"testing/quick"
)

func TestNormalizeNumericWidths(t *testing.T) {
	d := Document{
		"a": int(1), "b": int32(2), "c": int8(3), "d": float32(1.5),
		"e": []any{int(4), float32(2.5)},
		"f": map[string]any{"g": int16(7)},
	}
	n, err := d.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n["a"].(int64); !ok {
		t.Fatalf("a not int64: %T", n["a"])
	}
	if _, ok := n["d"].(float64); !ok {
		t.Fatalf("d not float64: %T", n["d"])
	}
	if _, ok := n["e"].([]any)[0].(int64); !ok {
		t.Fatal("array element not normalized")
	}
	if _, ok := n["f"].(Document)["g"].(int64); !ok {
		t.Fatal("nested doc not normalized")
	}
}

func TestNormalizeRejectsUnsupported(t *testing.T) {
	if _, err := (Document{"ch": make(chan int)}).Normalized(); err == nil {
		t.Fatal("expected error for channel value")
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := Document{
		"nested": Document{"x": int64(1)},
		"arr":    []any{int64(1), Document{"y": int64(2)}},
		"bytes":  []byte{1, 2, 3},
	}
	c := d.Clone()
	c["nested"].(Document)["x"] = int64(99)
	c["arr"].([]any)[0] = int64(99)
	c["bytes"].([]byte)[0] = 99
	if d["nested"].(Document)["x"].(int64) != 1 {
		t.Fatal("nested doc shared after clone")
	}
	if d["arr"].([]any)[0].(int64) != 1 {
		t.Fatal("array shared after clone")
	}
	if d["bytes"].([]byte)[0] != 1 {
		t.Fatal("bytes shared after clone")
	}
}

func TestGetDottedPath(t *testing.T) {
	d := Document{"a": Document{"b": Document{"c": int64(7)}}}
	if v, ok := d.Get("a.b.c"); !ok || v.(int64) != 7 {
		t.Fatalf("Get(a.b.c) = %v, %v", v, ok)
	}
	if _, ok := d.Get("a.x.c"); ok {
		t.Fatal("missing path reported present")
	}
	if _, ok := d.Get("a.b.c.d"); ok {
		t.Fatal("path through scalar reported present")
	}
}

func TestAccessors(t *testing.T) {
	d := Document{"i": int64(3), "f": 2.5, "s": "hi", "arr": []any{int64(1)}, "d": Document{"k": "v"}, "_id": "x1"}
	if d.Int("i") != 3 || d.Int("f") != 2 || d.Int("missing") != 0 {
		t.Fatal("Int accessor wrong")
	}
	if d.Float("f") != 2.5 || d.Float("i") != 3.0 {
		t.Fatal("Float accessor wrong")
	}
	if d.Str("s") != "hi" || d.Str("i") != "" {
		t.Fatal("Str accessor wrong")
	}
	if len(d.Array("arr")) != 1 || d.Array("s") != nil {
		t.Fatal("Array accessor wrong")
	}
	if d.Doc("d").Str("k") != "v" {
		t.Fatal("Doc accessor wrong")
	}
	if d.ID() != "x1" {
		t.Fatal("ID accessor wrong")
	}
}

func TestEqualCrossNumeric(t *testing.T) {
	if !Equal(int64(3), float64(3)) || !Equal(float64(3), int64(3)) {
		t.Fatal("int64/float64 equality broken")
	}
	if Equal(int64(3), "3") {
		t.Fatal("string/number equal")
	}
	if !Equal([]any{int64(1), "a"}, []any{int64(1), "a"}) {
		t.Fatal("array equality broken")
	}
	if !Equal(Document{"a": int64(1)}, map[string]any{"a": int64(1)}) {
		t.Fatal("Document/map equality broken")
	}
	if Equal(Document{"a": int64(1)}, Document{"a": int64(1), "b": int64(2)}) {
		t.Fatal("different-size docs equal")
	}
}

func TestBSONLiteRoundTrip(t *testing.T) {
	d := Document{
		"_id":  "doc1",
		"n":    nil,
		"t":    true,
		"f":    false,
		"i":    int64(-12345),
		"big":  int64(1) << 60,
		"fl":   3.14159,
		"s":    "hello \x00 world",
		"b":    []byte{0, 1, 255},
		"arr":  []any{int64(1), "two", Document{"three": 3.0}},
		"doc":  Document{"nested": Document{"deep": "yes"}},
		"empt": Document{},
	}
	enc := EncodeDoc(d)
	dec, err := DecodeDoc(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(d, dec) {
		t.Fatalf("round trip mismatch:\n in: %v\nout: %v", d, dec)
	}
}

// TestCanonicalMatchesNormalize: Canonical is true exactly for values
// Normalize would return unchanged, and checking allocates nothing.
func TestCanonicalMatchesNormalize(t *testing.T) {
	for _, c := range []struct {
		v    any
		want bool
	}{
		{Document{"a": int64(1), "b": "x", "c": []any{1.5, nil, []byte("y")}, "d": Document{"e": true}}, true},
		{map[string]any{"a": int64(1)}, true},
		{Document{"a": 2}, false},
		{Document{"a": []any{int64(1), int32(2)}}, false},
		{Document{"a": map[string]any{"b": float32(1)}}, false},
		{Document{"a": make(chan int)}, false},
	} {
		if got := Canonical(c.v); got != c.want {
			t.Errorf("Canonical(%v) = %t, want %t", c.v, got, c.want)
		}
	}
	d := Document{"a": int64(1), "b": []any{"x", Document{"c": 2.5}}}
	if n := testing.AllocsPerRun(100, func() { Canonical(d) }); n != 0 {
		t.Errorf("Canonical allocates %.1f times, want 0", n)
	}
}

func TestBSONLiteCanonical(t *testing.T) {
	a := EncodeDoc(Document{"x": int64(1), "y": "z"})
	b := EncodeDoc(Document{"y": "z", "x": int64(1)})
	if string(a) != string(b) {
		t.Fatal("encoding not canonical across insertion orders")
	}
}

func TestBSONLiteCorruptInputs(t *testing.T) {
	good := EncodeDoc(Document{"k": "value", "n": int64(5)})
	for cut := 1; cut < len(good); cut++ {
		if _, err := DecodeDoc(good[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	if _, err := DecodeDoc(append(append([]byte{}, good...), 0xAA)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
	if _, err := DecodeDoc([]byte{0x01, 0x01, 'k', 0x7F}); err == nil {
		t.Fatal("unknown type tag decoded without error")
	}
}

func TestQuickBSONLiteRoundTrip(t *testing.T) {
	f := func(s string, i int64, fl float64, bs []byte, flag bool) bool {
		if fl != fl { // NaN breaks Equal, not the codec; skip it
			fl = 0
		}
		d := Document{"s": s, "i": i, "f": fl, "b": bs, "flag": flag,
			"arr": []any{s, i}, "nested": Document{"x": fl}}
		dec, err := DecodeDoc(EncodeDoc(d))
		if err != nil {
			return false
		}
		return Equal(d, dec)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
