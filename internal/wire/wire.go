// Package wire is the one codec of the shard frame (internal/cluster), the
// snapshot's meta segment and the WAL's update record (internal/core): ONE
// walk over a message's fields writes and reads it, so the two directions
// cannot drift. Everything is little-endian, uvarints in their shortest
// form. Counts and string lengths are 4-byte int32s or uvarints, as the
// message chose, and reading checks each against the bytes that remain
// before anything is allocated for it. The first failure sticks: it
// empties what remains, so later reads leave their targets as they were.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

var le = binary.LittleEndian

// Lengths is how a message writes its counts and string lengths.
type Lengths bool

const (
	Fixed  Lengths = false // int32, 4 bytes
	Varint Lengths = true  // uvarint
)

// Error is a message the reader refuses, or a value the writer cannot
// represent.
type Error struct {
	At     int // byte offset into the message where the walk stopped
	Reason string
}

func (e *Error) Error() string { return fmt.Sprintf("wire: %s (at byte %d)", e.Reason, e.At) }

// Walker is a message being written (b grows) or read (b is what remains).
type Walker struct {
	b       []byte
	size    int // reading: the message's length, so size-len(b) is the offset
	write   bool
	lengths Lengths
	err     error // the first failure, a *Error
}

// Writer starts a message appended to buf.
func Writer(buf []byte, l Lengths) Walker { return Walker{b: buf, write: true, lengths: l} }

// Reader starts reading the message b.
func Reader(b []byte, l Lengths) Walker { return Walker{b: b, size: len(b), lengths: l} }

// Writing reports the walk's direction.
func (w *Walker) Writing() bool { return w.write }

// Bytes is the message written so far, or what is left to read.
func (w *Walker) Bytes() []byte { return w.b }

// Err is the walk's first failure, a *Error, or nil.
func (w *Walker) Err() error { return w.err }

// Done ends a read, refusing bytes left over, and returns Err.
func (w *Walker) Done() error {
	if !w.write && w.err == nil && len(w.b) != 0 {
		w.Fail("%d trailing bytes", len(w.b))
	}
	return w.err
}

// Fail records the walk's first failure and empties what remains to read.
func (w *Walker) Fail(format string, args ...any) {
	if w.err == nil {
		at := len(w.b)
		if !w.write {
			at = w.size - len(w.b)
		}
		w.err = &Error{At: at, Reason: fmt.Sprintf(format, args...)}
	}
	if !w.write {
		w.b = nil
	}
}

// Field is the next n bytes: appended on write, for the caller to fill;
// consumed on read (nil when the message ends first).
func (w *Walker) Field(n int) []byte {
	if w.write {
		w.b = append(w.b, make([]byte, n)...)
		return w.b[len(w.b)-n:]
	}
	if n > len(w.b) {
		w.Fail("body ends inside a field")
		return nil
	}
	out := w.b[:n]
	w.b = w.b[n:]
	return out
}

// Header writes a message's tag and format version, or reads them and
// refuses any other pair.
func (w *Walker) Header(tag, version byte) {
	whole := w.b
	if h := w.Field(2); w.write {
		h[0], h[1] = tag, version
	} else if h == nil || h[0] != tag || h[1] != version {
		w.Fail("header %q, want tag %q version %d", whole[:min(len(whole), 2)], tag, version)
	}
}

// U8 is one byte.
func U8[T ~uint8](w *Walker, v *T) {
	if b := w.Field(1); w.write {
		b[0] = byte(*v)
	} else if b != nil {
		*v = T(b[0])
	}
}

// Bool is one byte, 0 or 1; reading refuses any other.
func (w *Walker) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	if U8(w, &b); !w.write && b > 1 {
		w.Fail("boolean byte %d", b)
	}
	*v = b == 1
}

// I32 is a 4-byte int32.
func I32[T ~int | ~int32](w *Walker, v *T) {
	if b := w.Field(4); w.write {
		le.PutUint32(b, uint32(int32(*v)))
	} else if b != nil {
		*v = T(int32(le.Uint32(b)))
	}
}

// I64 is an 8-byte int64; reading refuses a value T cannot hold.
func I64[T ~int | ~int64](w *Walker, v *T) {
	if b := w.Field(8); w.write {
		le.PutUint64(b, uint64(int64(*v)))
	} else if b != nil {
		x := int64(le.Uint64(b))
		if *v = T(x); int64(*v) != x {
			w.Fail("%d overflows the field", x)
		}
	}
}

// F64 is math.Float64bits: a value keeps its bits, −0 and NaN payloads too.
func (w *Walker) F64(v *float64) {
	if b := w.Field(8); w.write {
		le.PutUint64(b, math.Float64bits(*v))
	} else if b != nil {
		*v = math.Float64frombits(le.Uint64(b))
	}
}

// Uvarint is a non-negative value as a uvarint. Writing refuses a negative
// value; reading refuses a value T cannot hold and a longer encoding than
// the shortest, so every accepted message has one byte image.
func Uvarint[T ~int | ~int32 | ~uint64](w *Walker, v *T) {
	if w.write {
		if *v < 0 {
			w.Fail("negative value %d", *v)
			return
		}
		w.b = binary.AppendUvarint(w.b, uint64(*v))
		return
	}
	x, n := binary.Uvarint(w.b)
	switch {
	case n == 0:
		w.Fail("body ends inside a field")
	case n < 0:
		w.Fail("uvarint overflows 64 bits")
	case n > 1 && w.b[n-1] == 0:
		w.Fail("uvarint in %d bytes is not in its shortest form", n)
	default:
		if *v = T(x); *v < 0 || uint64(*v) != x {
			w.Fail("%d overflows the field", x)
			return
		}
		w.b = w.b[n:]
	}
}

// Count writes n or reads a count, refusing one whose elements, at min
// bytes each, cannot fit in what remains of the message — before the
// caller allocates anything for them.
func (w *Walker) Count(n, min int) int {
	u := uint64(n)
	if w.lengths == Varint {
		Uvarint(w, &u)
	} else if I32(w, &n); !w.write {
		u = uint64(uint32(n)) // a negative count is past any message's end
	}
	if !w.write && u > uint64(len(w.b)/min) {
		w.Fail("count %d exceeds the %d bytes that remain", u, len(w.b))
		return 0
	}
	return int(u)
}

// List writes len(*s), or reads a count and allocates *s to it, and
// returns the slice to walk either way.
func List[T any](w *Walker, s *[]T, min int) []T {
	if n := w.Count(len(*s), min); !w.write && n > 0 {
		*s = make([]T, n)
	}
	return *s
}

// Str is a length, then the bytes.
func (w *Walker) Str(s *string) {
	if n := w.Count(len(*s), 1); w.write {
		w.b = append(w.b, *s...)
	} else {
		*s = string(w.Field(n))
	}
}

// Share checks one part against what is left of a total the message
// declared ahead of it, and refuses a part larger than that.
func (w *Walker) Share(n, left int) bool {
	if n < 0 || n > left {
		w.Fail("a length of %d exceeds the %d left of the declared total", uint32(n), left)
		return false
	}
	return true
}
