package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// msg walks one field of every kind.
type msg struct {
	u8    uint8
	ok    bool
	i32   int32
	i64   int64
	f64   float64
	uv    uint64
	n     int
	s     string
	names []string
}

func (m *msg) walk(w *Walker) {
	w.Header('T', 1)
	U8(w, &m.u8)
	w.Bool(&m.ok)
	I32(w, &m.i32)
	I64(w, &m.i64)
	w.F64(&m.f64)
	Uvarint(w, &m.uv)
	Uvarint(w, &m.n)
	w.Str(&m.s)
	for i := range List(w, &m.names, 1) {
		w.Str(&m.names[i])
	}
}

func encode(m msg, l Lengths) []byte {
	w := Writer(nil, l)
	m.walk(&w)
	return w.Bytes()
}

func decode(b []byte, l Lengths) (msg, error) {
	var m msg
	r := Reader(b, l)
	m.walk(&r)
	return m, r.Done()
}

// TestRoundTrip: decode∘encode is the identity in both length encodings,
// down to float bits.
func TestRoundTrip(t *testing.T) {
	want := msg{u8: 200, ok: true, i32: -7, i64: math.MinInt64, f64: math.Copysign(0, -1),
		uv: math.MaxUint64, n: 300, s: "Łukasz", names: []string{"", "ab"}}
	for _, l := range []Lengths{Fixed, Varint} {
		b := encode(want, l)
		got, err := decode(b, l)
		if err != nil || !reflect.DeepEqual(got, want) || math.Float64bits(got.f64) != math.Float64bits(want.f64) {
			t.Fatalf("lengths %v: got %+v, %v; want %+v", l, got, err, want)
		}
	}
	// The uvarint form of a count or length is one byte below 128: four
	// of them (s, names and its two) save three bytes each.
	if f, v := len(encode(want, Fixed)), len(encode(want, Varint)); f-v != 4*3 {
		t.Fatalf("fixed %d bytes, varint %d: want 12 fewer", f, v)
	}
}

// TestRefusals: every way a message can lie is a *Error at the byte where
// the walk stopped — past a field whose value it refuses, at one that does
// not fit.
func TestRefusals(t *testing.T) {
	good := encode(msg{s: "abc", names: []string{"x"}}, Varint)
	at := func(i int, b ...byte) []byte { return append(bytes.Clone(good[:i]), b...) }
	const uvAt = 2 + 1 + 1 + 4 + 8 + 8 // header, u8, bool, i32, i64, f64
	cases := []struct {
		name string
		b    []byte
		at   int
	}{
		{"empty", nil, 0},
		{"wrong tag", at(0, 'X', 1), 2},
		{"bool byte", at(3, 2), 4},
		{"truncated", good[:len(good)-1], len(good) - 1},
		{"trailing", append(bytes.Clone(good), 0), len(good)},
		{"not shortest", at(uvAt, 0x80, 0x00), uvAt},
		{"overflows 64 bits", at(uvAt, bytes.Repeat([]byte{0xff}, 10)...), uvAt},
		{"overflows int", at(uvAt+1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), uvAt + 1},
		{"count past the end", at(uvAt+2, 0x7f), uvAt + 3},
	}
	for _, c := range cases {
		_, err := decode(c.b, Varint)
		var we *Error
		if !errors.As(err, &we) || we.At != c.at {
			t.Errorf("%s: %v, want a *Error at byte %d", c.name, err, c.at)
		}
	}
	w := Writer(nil, Varint)
	n := -1
	if Uvarint(&w, &n); w.Err() == nil {
		t.Fatal("a negative uvarint was written")
	}
}
