package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"expertfind/internal/obs"
)

// The codec of the /shard/* bodies (layout: proto.go). ONE walk over a
// message's fields both writes and reads it: the directions cannot drift.

const (
	tagPapers, tagRequest, tagExperts byte = 'P', 'Q', 'E'

	frameVersion     byte = 1
	frameHeaderLen        = 2 // tag, version
	frameContentType      = "application/x-expertfind-frame"
)

var le = binary.LittleEndian

// FrameError is a /shard/* body the decoder refuses. The router answers
// 502 for one in a response, the shard 400 for one in a request.
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

// message is one of the three bodies: walk visits its fields in wire order,
// wireSize is the body length (span tree aside) the encoder allocates.
type message interface {
	walk(*frame)
	wireSize() int
}

// encodeFrame writes one message: header, then its fields.
func encodeFrame(tag byte, m message) []byte {
	f := frame{write: true, b: append(make([]byte, 0, frameHeaderLen+m.wireSize()), tag, frameVersion)}
	m.walk(&f)
	return f.b
}

// decodeFrame reads one message into m. It refuses a frame that does not
// open with tag and this version — a JSON body, a peer from before the
// frame, fails there on its first byte — and one with bytes left over.
func decodeFrame(b []byte, tag byte, m message) error {
	f := frame{b: b}
	if h := f.field(frameHeaderLen); h == nil || h[0] != tag || h[1] != frameVersion {
		f.fail("header %q, want tag %q version %d", b[:min(len(b), frameHeaderLen)], tag, frameVersion)
	}
	if m.walk(&f); f.err == nil && len(f.b) != 0 {
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

// i32 carries ids, ranks and counts, all within int32.
func i32[T int | int32](f *frame, v *T) {
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

// trace closes both responses: the span tree as length-prefixed JSON, of
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

func (r *PapersResponse) wireSize() int { return 12 + 20*len(r.Papers) } // without text and authors

func (r *PapersResponse) walk(f *frame) {
	i32(f, &r.Shard)
	for i := range list(f, &r.Papers, 20) {
		p := &r.Papers[i]
		i32(f, &p.ID)
		f.f64(&p.Dist)
		f.str(&p.Text)
		for j := range list(f, &p.Authors, 4) {
			f.str(&p.Authors[j])
		}
	}
	f.trace(&r.Trace)
}

func (q *ExpertsRequest) wireSize() int { return 4 + 8*len(q.Papers) }

func (q *ExpertsRequest) walk(f *frame) {
	for i := range list(f, &q.Papers, 8) {
		i32(f, &q.Papers[i].ID)
		i32(f, &q.Papers[i].Rank)
	}
}

func (r *ShardExpertsResponse) walk(f *frame) {
	if !f.write { // version 1 has no truncated lists: neither is on the wire
		r.Exhausted, r.Threshold = true, 0
	}
	i32(f, &r.Shard)
	for i := range list(f, &r.Experts, 24) {
		e := &r.Experts[i]
		i32(f, &e.ID)
		f.f64(&e.Score)
		i32(f, &e.Papers)
		f.str(&e.Name)
		for j := range list(f, &e.Contribs, 12) {
			i32(f, &e.Contribs[j].Rank)
			f.f64(&e.Contribs[j].S)
		}
	}
	f.trace(&r.Trace)
}

func (r *ShardExpertsResponse) wireSize() int {
	size := 12
	for i := range r.Experts {
		size += 24 + len(r.Experts[i].Name) + 12*len(r.Experts[i].Contribs)
	}
	return size
}

// frameShard reads the shard id a response frame claims without decoding
// the rest; ok is false for anything that is not a response frame.
func frameShard(b []byte) (shard int, ok bool) {
	if len(b) < frameHeaderLen+4 || (b[0] != tagPapers && b[0] != tagExperts) {
		return 0, false
	}
	return int(int32(le.Uint32(b[frameHeaderLen:]))), true
}
