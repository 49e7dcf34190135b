package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestDecodeEachValueType round-trips one value of every type the
// codec carries, alone (DecodeValue) and as a document field
// (DecodeDoc), and checks the decoded type as well as the value.
func TestDecodeEachValueType(t *testing.T) {
	cases := []struct {
		name string
		v    any
	}{
		{"nil", nil},
		{"false", false},
		{"true", true},
		{"int64 zero", int64(0)},
		{"int64 small", int64(255)},
		{"int64 negative", int64(-12345)},
		{"int64 min", int64(math.MinInt64)},
		{"int64 max", int64(math.MaxInt64)},
		{"float64", 3.14159},
		{"float64 negative", -1e-300},
		{"float64 inf", math.Inf(-1)},
		{"string empty", ""},
		{"string", "hello \x00 world"},
		{"string long", strings.Repeat("x", 300)},
		{"bytes empty", []byte{}},
		{"bytes", []byte{0, 1, 255}},
		{"array empty", []any{}},
		{"array mixed", []any{nil, true, int64(-1), 2.5, "s", []byte{9}, []any{"in"}, Document{"k": "v"}}},
		{"document empty", Document{}},
		{"document nested", Document{"a": Document{"b": Document{"c": int64(1) << 40}}, "s": "t"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, rest, err := DecodeValue(AppendValue(nil, tc.v))
			if err != nil || len(rest) != 0 {
				t.Fatalf("DecodeValue: %v, %d bytes left", err, len(rest))
			}
			checkSameValue(t, tc.v, got)
			d, err := DecodeDoc(EncodeDoc(Document{"_id": "x", "v": tc.v}))
			if err != nil {
				t.Fatalf("DecodeDoc: %v", err)
			}
			checkSameValue(t, tc.v, d["v"])
		})
	}
}

func checkSameValue(t *testing.T, want, got any) {
	t.Helper()
	if fmt.Sprintf("%T", want) != fmt.Sprintf("%T", got) || !Equal(want, got) {
		t.Fatalf("decoded %T %v, want %T %v", got, got, want, want)
	}
}

// TestDecodedDocDoesNotAliasInput overwrites the input after decoding
// (as a reused frame buffer would be) and checks that the document is
// unchanged: keys, strings, bytes and nested values are all copies.
func TestDecodedDocDoesNotAliasInput(t *testing.T) {
	want := Document{
		"_id": "doc00042",
		"s":   "abcdefghijklmnopqrstuvwxyz",
		"b":   []byte("raw bytes"),
		"arr": []any{"elem", []byte{1, 2, 3}},
		"sub": Document{"key": "nested value"},
	}
	enc := EncodeDoc(want)
	buf := append(append([]byte{}, enc...), enc...)
	d, rest, err := DecodeDocPrefix(buf)
	if err != nil {
		t.Fatal(err)
	}
	vbuf := AppendValue(nil, "value")
	v, _, err := DecodeValue(vbuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{buf, vbuf} {
		for i := range b {
			b[i] = 0xFF
		}
	}
	if !Equal(want, d) {
		t.Fatalf("document changed with its input:\n got %v\nwant %v", d, want)
	}
	if v != "value" {
		t.Fatalf("value changed with its input: %q", v)
	}
	if len(rest) != len(enc) {
		t.Fatalf("remainder %d bytes, want %d", len(rest), len(enc))
	}
}

// TestDecodeRejectsDeepNesting feeds a frame-sized run of nested
// document headers: it must fail as corrupt, not overflow the stack.
// Nesting up to the bound still decodes.
func TestDecodeRejectsDeepNesting(t *testing.T) {
	deep := append(bytes.Repeat([]byte{0x01, 0x00, btDoc}, 5<<20), 0x00)
	if _, err := DecodeDoc(deep); !errors.Is(err, errCorrupt) {
		t.Fatalf("deeply nested document: err=%v, want corrupt", err)
	}
	if _, _, err := DecodeValue(append(bytes.Repeat([]byte{btArray, 0x01}, 5<<20), btNil)); !errors.Is(err, errCorrupt) {
		t.Fatalf("deeply nested array: err=%v, want corrupt", err)
	}
	d := Document{"leaf": "x"}
	for i := 0; i < maxNesting-1; i++ {
		d = Document{"d": d}
	}
	if back, err := DecodeDoc(EncodeDoc(d)); err != nil || !Equal(back, d) {
		t.Fatalf("document nested %d deep: %v", maxNesting, err)
	}
}

// ycsbDoc is the document shape the YCSB workloads store: an _id and
// ten 100-byte string fields.
func ycsbDoc() Document {
	d := Document{"_id": "user0000000042"}
	for f := 0; f < 10; f++ {
		d[fmt.Sprintf("field%d", f)] = strings.Repeat(string(rune('a'+f)), 100)
	}
	return d
}

func TestEncodeDocExactSize(t *testing.T) {
	enc := EncodeDoc(ycsbDoc())
	if cap(enc) != len(enc) {
		t.Fatalf("encoding len %d, cap %d: want no slack", len(enc), cap(enc))
	}
	if want := AppendDoc(nil, ycsbDoc()); !bytes.Equal(enc, want) {
		t.Fatal("EncodeDoc and AppendDoc disagree")
	}
}

func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	d := ycsbDoc()
	delete(d, "field9") // ten fields
	if n := testing.AllocsPerRun(100, func() { EncodeDoc(d) }); n != 1 {
		t.Errorf("EncodeDoc of a 10-field document: %.1f allocs, want exactly 1", n)
	}
	enc := EncodeDoc(ycsbDoc())
	n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeDoc(enc); err != nil {
			t.Fatal(err)
		}
	})
	// One copy of the bytes, the map, and one box per string value.
	if n > 16 {
		t.Errorf("DecodeDoc of a YCSB document: %.1f allocs, want <= 16", n)
	}
}

// FuzzDecodeDoc throws arbitrary bytes at the document decoder. It
// must return an error rather than panic, and whatever decodes must
// re-encode and decode back to an equal document. Equality is checked
// on the canonical encodings, which compare floats (NaN included) bit
// for bit.
func FuzzDecodeDoc(f *testing.F) {
	f.Add(EncodeDoc(ycsbDoc()))
	f.Add(EncodeDoc(Document{
		"_id": "z", "n": int64(-5), "f": 1.5, "b": []byte{1, 2}, "nil": nil, "t": true,
		"arr": []any{int64(1), "s", []any{}}, "sub": Document{"k": false, "e": Document{}},
	}))
	f.Add([]byte{0x01, 0x01, 'k', 0x7F})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeDoc(b)
		if err != nil {
			return
		}
		enc := EncodeDoc(d)
		back, err := DecodeDoc(enc)
		if err != nil {
			t.Fatalf("re-encoded document does not decode: %v", err)
		}
		if !bytes.Equal(EncodeDoc(back), enc) {
			t.Fatalf("round trip changed the document:\n%v\n%v", d, back)
		}
	})
}
