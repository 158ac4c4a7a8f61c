package cluster

import (
	"encoding/binary"
	"encoding/json"
	"sync"

	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/serve"
	"expertfind/internal/wire"
)

// The codec of the /shard/papers bodies (layout: proto.go): one wire walk
// each, counts and lengths as 4-byte int32s.

const (
	tagPapers  byte = 'P'
	tagRequest byte = 'Q'

	frameVersion     byte = 2
	requestVersion   byte = 1
	frameHeaderLen        = 2 // tag, version
	frameContentType      = "application/x-expertfind-frame"
	maxRequestBody        = 1 << 20 // a shard reads no larger request
)

var le = binary.LittleEndian

// FrameError is a /shard/papers body a decoder refuses: the shard answers
// 400 for a request, the router 502 for a response.
type FrameError struct{ Reason string }

func (e *FrameError) Error() string { return "cluster: bad shard frame: " + e.Reason }

// frameBufs recycles frame buffers of 64 KiB, room for a frame at the
// default m (~13 KB with author lists): frameBuf takes one when n fits,
// freeFrameBuf gives it back once nothing reads it.
const frameBufSize = 64 << 10

var frameBufs = sync.Pool{New: func() any { return new([frameBufSize]byte) }}

func frameBuf(n int) []byte {
	if n > frameBufSize {
		return make([]byte, n)
	}
	return frameBufs.Get().(*[frameBufSize]byte)[:n]
}

func freeFrameBuf(b []byte) {
	if cap(b) == frameBufSize {
		frameBufs.Put((*[frameBufSize]byte)(b[:frameBufSize]))
	}
}

// responses recycles the papers and tables of the responses a shard builds
// and a router decodes; free gives one back once nothing reads it.
var responses = sync.Pool{New: func() any { return new(PapersResponse) }}

func (r *PapersResponse) free() { responses.Put(r) }

// encodeFrame writes one response, header then fields, into a buffer from
// frameBuf (which a frame larger than one outgrows) for the caller to free.
func encodeFrame(r *PapersResponse) []byte {
	f := wire.Writer(frameBuf(frameBufSize)[:0], wire.Fixed)
	f.Header(tagPapers, frameVersion)
	r.walk(&f)
	return f.Bytes()
}

// decodeFrame reads one response into r, reusing its papers and table
// (and keeping the array Papers recycles, for r's next use on a shard) and
// allocating its strings and author lists once each, not per entry. It
// refuses a frame that does not open with the tag and this version — a
// JSON body, a peer that speaks version 1, fails there on its first bytes
// — and one with bytes left over.
func decodeFrame(b []byte, r *PapersResponse) error {
	*r = PapersResponse{Papers: r.Papers[:0], Authors: r.Authors[:0], ids: r.ids}
	f := wire.Reader(b, wire.Fixed)
	f.Header(tagPapers, frameVersion)
	r.walk(&f)
	if err := f.Done(); err != nil {
		return &FrameError{err.(*wire.Error).Reason}
	}
	return nil
}

// encodeRequest writes one request into a fresh buffer the transport owns.
func encodeRequest(r *PapersRequest) []byte {
	f := wire.Writer(make([]byte, 0, 20+len(r.Query)), wire.Fixed)
	f.Header(tagRequest, requestVersion)
	r.walk(&f)
	return f.Bytes()
}

// decodeRequest reads one request into r, refusing besides what the walk
// does an empty query and an m outside 1 to serve.MaxM.
func decodeRequest(b []byte, r *PapersRequest) error {
	f := wire.Reader(b, wire.Fixed)
	f.Header(tagRequest, requestVersion)
	if r.walk(&f); f.Err() == nil && (r.Query == "" || r.M < 1 || r.M > serve.MaxM) {
		f.Fail("m %d and a query of %d bytes; want m in 1..%d and a query", r.M, len(r.Query), serve.MaxM)
	}
	if err := f.Done(); err != nil {
		return &FrameError{err.(*wire.Error).Reason}
	}
	return nil
}

func (r *PapersRequest) walk(f *wire.Walker) {
	wire.I32(f, &r.M)
	f.Bool(&r.Authors)
	f.Bool(&r.Text)
	f.Bool(&r.Collect)
	wire.I32(f, &r.BudgetMs)
	f.Str(&r.Query)
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

func (r *PapersResponse) walk(f *wire.Walker) {
	// The two sums the frame declares ahead of their parts: author ids over
	// all lists, name bytes over the table (0 reading: decodeFrame emptied r).
	ids, names := 0, 0
	for i := range r.Papers {
		ids += len(r.Papers[i].Authors)
	}
	for i := range r.Authors {
		names += len(r.Authors[i].Name)
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
		wire.I32s(f, p.Authors)
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
