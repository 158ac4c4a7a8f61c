package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// The codec of the /shard/papers body (layout: proto.go). ONE walk over
// the message's fields both writes and reads it: the directions cannot
// drift.

const (
	tagPapers byte = 'P'

	frameVersion     byte = 2
	frameHeaderLen        = 2 // tag, version
	frameContentType      = "application/x-expertfind-frame"
)

var le = binary.LittleEndian

// FrameError is a /shard/papers body the decoder refuses; the router
// answers 502 for one.
type FrameError struct{ Reason string }

func (e *FrameError) Error() string { return "cluster: bad shard frame: " + e.Reason }

// frame is a message being written (b grows) or read (b is what remains).
// Reading, the first failure sticks and empties b: later reads leave their
// targets zero and loops over a count run out at once.
type frame struct {
	b     []byte
	write bool
	err   error // a *FrameError
}

// encodeFrame writes one response: header, then its fields.
func encodeFrame(r *PapersResponse) []byte {
	f := frame{write: true, b: append(make([]byte, 0, frameHeaderLen+r.wireSize()), tagPapers, frameVersion)}
	r.walk(&f)
	return f.b
}

// decodeFrame reads one response into r, whose strings and author lists
// it allocates once each, not per entry. It refuses a frame that does not
// open with the tag and this version — a JSON body, a peer that speaks
// version 1, fails there on its first bytes — and one with bytes left over.
func decodeFrame(b []byte, r *PapersResponse) error {
	f := frame{b: b}
	if h := f.field(frameHeaderLen); h == nil || h[0] != tagPapers || h[1] != frameVersion {
		f.fail("header %q, want tag %q version %d", b[:min(len(b), frameHeaderLen)], tagPapers, frameVersion)
	}
	if r.walk(&f); f.err == nil && len(f.b) != 0 {
		f.fail("%d trailing bytes", len(f.b))
	}
	return f.err
}

func (f *frame) fail(format string, args ...any) {
	if f.err == nil {
		f.err = &FrameError{fmt.Sprintf(format, args...)}
	}
	f.b = nil
}

// field is the next n bytes: appended on write, consumed on read (nil when
// the body ends first).
func (f *frame) field(n int) []byte {
	if f.write {
		f.b = append(f.b, make([]byte, n)...)
		return f.b[len(f.b)-n:]
	}
	if n > len(f.b) {
		f.fail("body ends inside a field")
		return nil
	}
	out := f.b[:n]
	f.b = f.b[n:]
	return out
}

// i32 carries ids and counts, all within int32.
func i32[T int | ~int32](f *frame, v *T) {
	if b := f.field(4); f.write {
		le.PutUint32(b, uint32(int32(*v)))
	} else if b != nil {
		*v = T(int32(le.Uint32(b)))
	}
}

func (f *frame) f64(v *float64) {
	if b := f.field(8); f.write {
		le.PutUint64(b, math.Float64bits(*v))
	} else if b != nil {
		*v = math.Float64frombits(le.Uint64(b))
	}
}

// count writes n or reads a count, refusing one whose elements, at min
// wire bytes each, cannot fit in what remains of the frame — before the
// caller allocates anything for them.
func (f *frame) count(n, min int) int {
	if i32(f, &n); !f.write && (n < 0 || n > len(f.b)/min) {
		f.fail("count %d exceeds the %d bytes that remain", uint32(n), len(f.b))
		return 0
	}
	return n
}

// list writes len(*s), or reads a count and allocates *s to it, and
// returns the slice to walk either way.
func list[T any](f *frame, s *[]T, min int) []T {
	if n := f.count(len(*s), min); !f.write && n > 0 {
		*s = make([]T, n)
	}
	return *s
}

func (f *frame) str(s *string) {
	if n := f.count(len(*s), 1); f.write {
		f.b = append(f.b, *s...)
	} else {
		*s = string(f.field(n))
	}
}

// share checks one part against what is left of a total the frame declared
// ahead of it — the array behind every author list, the string behind
// every name — and refuses a part larger than that.
func (f *frame) share(n, left int) bool {
	if n < 0 || n > left {
		f.fail("a length of %d exceeds the %d left of the declared total", uint32(n), left)
		return false
	}
	return true
}

// trace closes the response: the span tree as length-prefixed JSON, of
// length 0 unless the request asked for it.
func (f *frame) trace(t **obs.SpanNode) {
	var js []byte
	if f.write && *t != nil {
		// A SpanNode holds strings, integers and a string map: Marshal
		// cannot fail on it.
		js, _ = json.Marshal(*t)
	}
	if n := f.count(len(js), 1); f.write {
		f.b = append(f.b, js...)
	} else if js = f.field(n); n > 0 {
		*t = new(obs.SpanNode)
		if err := json.Unmarshal(js, *t); err != nil {
			f.fail("span tree section: %v", err)
		}
	}
}

// totals are the two sums the frame declares ahead of their parts: author
// ids over all lists, name bytes over the table.
func (r *PapersResponse) totals() (ids, names int) {
	for i := range r.Papers {
		ids += len(r.Papers[i].Authors)
	}
	for i := range r.Authors {
		names += len(r.Authors[i].Name)
	}
	return ids, names
}

// wireSize is the body length, text and span tree aside, the encoder
// allocates up front.
func (r *PapersResponse) wireSize() int {
	ids, names := r.totals()
	return 24 + 20*len(r.Papers) + 4*ids + 12*len(r.Authors) + names
}

func (r *PapersResponse) walk(f *frame) {
	ids, names := 0, 0
	if f.write {
		ids, names = r.totals()
	}
	i32(f, &r.Shard)
	papers := list(f, &r.Papers, 20)
	var arena []hetgraph.NodeID // reading: the one array behind every list
	if ids = f.count(ids, 4); !f.write {
		arena = make([]hetgraph.NodeID, ids)
	}
	for i := range papers {
		p := &papers[i]
		i32(f, &p.ID)
		f.f64(&p.Dist)
		f.str(&p.Text)
		if a := f.count(len(p.Authors), 4); !f.write && a > 0 && f.share(a, len(arena)) {
			p.Authors, arena = arena[:a:a], arena[a:]
		}
		for j := range p.Authors {
			i32(f, &p.Authors[j])
		}
	}

	table := list(f, &r.Authors, 12)
	var blob string // reading: the one string behind every name
	if names = f.count(names, 1); f.write {
		for i := range table {
			f.b = append(f.b, table[i].Name...)
		}
	} else {
		blob = string(f.field(names))
	}
	for i := range table {
		a := &table[i]
		i32(f, &a.ID)
		i32(f, &a.Papers)
		n := len(a.Name)
		if i32(f, &n); f.write {
			continue
		}
		if f.share(n, len(blob)) {
			a.Name, blob = blob[:n], blob[n:]
		}
		if i > 0 && a.ID <= table[i-1].ID {
			f.fail("author table is not in ascending id order at entry %d", i)
		}
	}
	if !f.write && len(arena)+len(blob) != 0 {
		f.fail("%d author ids and %d name bytes are declared and in no list", len(arena), len(blob))
	}
	f.trace(&r.Trace)
}

// frameShard reads the shard id a response frame claims without decoding
// the rest; ok is false for anything that is not a response frame.
func frameShard(b []byte) (shard int, ok bool) {
	if len(b) < frameHeaderLen+4 || b[0] != tagPapers {
		return 0, false
	}
	return int(int32(le.Uint32(b[frameHeaderLen:]))), true
}
