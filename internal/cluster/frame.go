package cluster

import (
	"encoding/binary"
	"encoding/json"

	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/wire"
)

// The codec of the /shard/papers body (layout: proto.go): one wire walk,
// counts and lengths as 4-byte int32s.

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

// encodeFrame writes one response: header, then its fields.
func encodeFrame(r *PapersResponse) []byte {
	f := wire.Writer(make([]byte, 0, frameHeaderLen+r.wireSize()), wire.Fixed)
	f.Header(tagPapers, frameVersion)
	r.walk(&f)
	return f.Bytes()
}

// decodeFrame reads one response into r, whose strings and author lists
// it allocates once each, not per entry. It refuses a frame that does not
// open with the tag and this version — a JSON body, a peer that speaks
// version 1, fails there on its first bytes — and one with bytes left over.
func decodeFrame(b []byte, r *PapersResponse) error {
	f := wire.Reader(b, wire.Fixed)
	f.Header(tagPapers, frameVersion)
	r.walk(&f)
	if err := f.Done(); err != nil {
		return &FrameError{err.(*wire.Error).Reason}
	}
	return nil
}

// trace closes the response: the span tree as length-prefixed JSON, of
// length 0 unless the request asked for it.
func trace(f *wire.Walker, t **obs.SpanNode) {
	var js []byte
	if f.Writing() && *t != nil {
		// A SpanNode holds strings, integers and a string map: Marshal
		// cannot fail on it.
		js, _ = json.Marshal(*t)
	}
	if b := f.Field(f.Count(len(js), 1)); f.Writing() {
		copy(b, js)
	} else if len(b) > 0 {
		*t = new(obs.SpanNode)
		if err := json.Unmarshal(b, *t); err != nil {
			f.Fail("span tree section: %v", err)
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

func (r *PapersResponse) walk(f *wire.Walker) {
	ids, names := 0, 0
	if f.Writing() {
		ids, names = r.totals()
	}
	wire.I32(f, &r.Shard)
	papers := wire.List(f, &r.Papers, 20)
	var arena []hetgraph.NodeID // reading: the one array behind every list
	if ids = f.Count(ids, 4); !f.Writing() {
		arena = make([]hetgraph.NodeID, ids)
	}
	for i := range papers {
		p := &papers[i]
		wire.I32(f, &p.ID)
		f.F64(&p.Dist)
		f.Str(&p.Text)
		if a := f.Count(len(p.Authors), 4); !f.Writing() && a > 0 && f.Share(a, len(arena)) {
			p.Authors, arena = arena[:a:a], arena[a:]
		}
		for j := range p.Authors {
			wire.I32(f, &p.Authors[j])
		}
	}

	table := wire.List(f, &r.Authors, 12)
	var blob string // reading: the one string behind every name
	if b := f.Field(f.Count(names, 1)); f.Writing() {
		for i := range table {
			b = b[copy(b, table[i].Name):]
		}
	} else {
		blob = string(b)
	}
	for i := range table {
		a := &table[i]
		wire.I32(f, &a.ID)
		wire.I32(f, &a.Papers)
		n := len(a.Name)
		if wire.I32(f, &n); f.Writing() {
			continue
		}
		if f.Share(n, len(blob)) {
			a.Name, blob = blob[:n], blob[n:]
		}
		if i > 0 && a.ID <= table[i-1].ID {
			f.Fail("author table is not in ascending id order at entry %d", i)
		}
	}
	if !f.Writing() && len(arena)+len(blob) != 0 {
		f.Fail("%d author ids and %d name bytes are declared and in no list", len(arena), len(blob))
	}
	trace(f, &r.Trace)
}

// frameShard reads the shard id a response frame claims without decoding
// the rest; ok is false for anything that is not a response frame.
func frameShard(b []byte) (shard int, ok bool) {
	if len(b) < frameHeaderLen+4 || b[0] != tagPapers {
		return 0, false
	}
	return int(int32(le.Uint32(b[frameHeaderLen:]))), true
}
