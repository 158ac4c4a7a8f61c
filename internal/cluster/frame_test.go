package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

func decodePapersResponse(b []byte) (*PapersResponse, error) {
	r := new(PapersResponse)
	return r, decodeFrame(b, r)
}

// frameTree is a span tree as a shard would graft it: attrs, a child, ids.
func frameTree() *obs.SpanNode {
	return &obs.SpanNode{
		Name: "shard_papers", SpanID: "00000000000000a1", ParentID: "00000000000000b2",
		StartUnixNano: 1_700_000_000_000_000_123, DurationNano: 4567,
		Attrs:    map[string]string{"shard": "1"},
		Children: []obs.SpanNode{{Name: "search", SpanID: "00000000000000c3", DurationNano: 12}},
	}
}

var edgeFloats = []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), 1.0 / 3}

// sameBits compares two floats the way the wire must keep them.
func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: bits %x, want %x", what, math.Float64bits(got), math.Float64bits(want))
	}
}

// authored is a response as /shard/papers?authors=1 builds it: author
// lists (one of them empty, one author on two papers) and their table.
func authored() *PapersResponse {
	return &PapersResponse{Shard: 1,
		Papers: []WirePaper{
			{ID: 11, Dist: 0.5, Authors: []hetgraph.NodeID{7, 3}},
			{ID: 12, Dist: 0.75},
			{ID: 13, Dist: 1, Authors: []hetgraph.NodeID{3, 9, 7}},
		},
		Authors: []WireAuthor{{ID: 3, Papers: 4, Name: "ab"}, {ID: 7, Papers: 1, Name: ""}, {ID: 9, Papers: 2, Name: "Łukasz Żółć"}},
	}
}

// TestFrameRoundTrip: decode∘encode is the identity on the frame, down to
// float bits, for the values JSON was at risk of bending and for every
// shape the three request forms produce.
func TestFrameRoundTrip(t *testing.T) {
	papers := []*PapersResponse{
		{},
		{Shard: 4, Trace: frameTree()},
		{Shard: 1, Papers: []WirePaper{{ID: 7, Dist: 0.25}, {ID: math.MaxInt32, Dist: math.MaxFloat64}}},
		authored(),
		{Shard: 2, Trace: frameTree(), // meta=1: text beside the lists
			Papers: []WirePaper{
				{ID: 1, Dist: 1, Text: "Ünïcode títle — 图嵌入", Authors: []hetgraph.NodeID{5, 2, math.MaxInt32}},
				{ID: 2, Dist: 2}, // no text, no authors, beside papers that have both
				{ID: 3, Dist: 3, Text: "solo", Authors: []hetgraph.NodeID{2}},
			},
			Authors: []WireAuthor{{ID: 2, Papers: 1, Name: "山田 太郎"}, {ID: 5, Papers: math.MaxInt32, Name: "Зоя"}, {ID: math.MaxInt32}},
		},
		// Every list empty and a table all the same: nothing ties the two.
		{Papers: []WirePaper{{ID: 1}, {ID: 2}}, Authors: []WireAuthor{{ID: -4, Name: "x"}}},
	}
	for _, d := range edgeFloats {
		papers[2].Papers = append(papers[2].Papers, WirePaper{ID: -5, Dist: d})
	}
	for i, want := range papers {
		got, err := decodePapersResponse(encodeFrame(want))
		if err != nil {
			t.Fatalf("papers %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("papers %d: got %+v, want %+v", i, got, want)
		}
		for j := range want.Papers {
			sameBits(t, "dist", got.Papers[j].Dist, want.Papers[j].Dist)
		}
	}
}

// TestFrameRefusals: each way a frame can lie is a *FrameError, never a
// panic and never a partial value accepted.
func TestFrameRefusals(t *testing.T) {
	good := encodeFrame(authored())
	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	// Offsets into good: header 2 · shard 4 · n 4 · ids 4 · paper 11 (20 + 2
	// authors) · paper 12 (20) · paper 13 (20 + 3 authors) · t 4 · names 4 ·
	// the names · 3 × 12 · trace 4.
	const (
		names   = len("ab" + "Łukasz Żółć")
		nAt     = frameHeaderLen + 4
		idsAt   = nAt + 4
		firstA  = idsAt + 4 + 16 // the first paper's author count
		tAt     = idsAt + 4 + 28 + 20 + 32
		namesAt = tAt + 4
		entries = namesAt + 4 + names
	)
	cases := map[string][]byte{
		"empty":           nil,
		"short header":    good[:1],
		"json object":     []byte(`{"shard":1,"papers":[]}`),
		"json array":      []byte(`[]`),
		"unknown tag":     mutate(func(b []byte) { b[0] = 'E' }),
		"version 1":       mutate(func(b []byte) { b[1] = 1 }),
		"newer version":   mutate(func(b []byte) { b[1] = 3 }),
		"truncated":       good[:len(good)-3],
		"no trace len":    good[:len(good)-4],
		"trailing":        append(bytes.Clone(good), 0),
		"paper count":     mutate(func(b []byte) { le.PutUint32(b[nAt:], 1<<31) }),
		"ids too many":    mutate(func(b []byte) { le.PutUint32(b[idsAt:], 0xFFFFFFFF) }),
		"ids one short":   mutate(func(b []byte) { le.PutUint32(b[idsAt:], 4) }),
		"ids one over":    mutate(func(b []byte) { le.PutUint32(b[idsAt:], 6) }),
		"author count":    mutate(func(b []byte) { le.PutUint32(b[firstA:], 1<<30) }),
		"list past total": mutate(func(b []byte) { le.PutUint32(b[firstA:], 6) }),
		"table count":     mutate(func(b []byte) { le.PutUint32(b[tAt:], 0x7FFFFFFF) }),
		"names total":     mutate(func(b []byte) { le.PutUint32(b[namesAt:], 1<<30) }),
		"name length":     mutate(func(b []byte) { le.PutUint32(b[entries+8:], uint32(names+1)) }),
		"negative name":   mutate(func(b []byte) { le.PutUint32(b[entries+8:], 0xFFFFFFFF) }),
		"names unclaimed": mutate(func(b []byte) { le.PutUint32(b[entries+8:], 1) }),
		"table order":     mutate(func(b []byte) { le.PutUint32(b[entries+12:], 3) }), // 3, 3, 9
		"trace length":    mutate(func(b []byte) { le.PutUint32(b[len(b)-4:], 9) }),
		"bad trace json":  append(mutate(func(b []byte) { le.PutUint32(b[len(b)-4:], 2) }), '{', '{'),
	}
	for name, b := range cases {
		resp, err := decodePapersResponse(b)
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Errorf("%s: err = %v (resp %+v), want *FrameError", name, err, resp)
		}
	}
	if _, err := decodePapersResponse(good); err != nil {
		t.Fatalf("the unmutated frame: %v", err)
	}
	if _, err := decodePapersResponse([]byte(`{"shard":1}`)); err == nil || !strings.Contains(err.Error(), `header "{\""`) {
		t.Fatalf("a JSON body should be refused on its first bytes, got %v", err)
	}
}

// TestFrameLyingCountsDoNotAllocate: a tiny frame whose counts promise
// gigabytes — of papers, of author ids, of table entries, of name bytes —
// is refused before anything is allocated for them.
func TestFrameLyingCountsDoNotAllocate(t *testing.T) {
	lie := func(at int) []byte {
		b := append(encodeFrame(&PapersResponse{}), make([]byte, 64)...)
		copy(b[at:], []byte{0xFF, 0xFF, 0xFF, 0x7F})
		return b
	}
	const nAt = frameHeaderLen + 4
	frames := [][]byte{lie(nAt), lie(nAt + 4), lie(nAt + 8), lie(nAt + 12)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		for j, b := range frames {
			if _, err := decodePapersResponse(b); err == nil {
				t.Fatalf("lying count %d accepted", j)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / 100; got > 4096 {
		t.Fatalf("refusing four ~90-byte frames allocated %d bytes", got)
	}
}

// TestFrameDecodeAllocatesPerResponse pins what makes one round cheaper
// than two: decoding a response the size /experts moves (200 papers, three
// authors each, 300 distinct) allocates per response — papers, the array
// behind the lists, the table, the string behind the names — not per paper
// or per author.
func TestFrameDecodeAllocatesPerResponse(t *testing.T) {
	r := &PapersResponse{Shard: 1}
	for i := 0; i < 200; i++ {
		a := hetgraph.NodeID(i)
		r.Papers = append(r.Papers, WirePaper{ID: int32(i), Dist: float64(i), Authors: []hetgraph.NodeID{a, a + 50, a + 100}})
	}
	for i := 0; i < 300; i++ {
		r.Authors = append(r.Authors, WireAuthor{ID: hetgraph.NodeID(i), Papers: i, Name: fmt.Sprintf("author-%03d", i)})
	}
	b := encodeFrame(r)
	var got PapersResponse
	allocs := testing.AllocsPerRun(20, func() {
		got = PapersResponse{}
		if err := decodeFrame(b, &got); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(&got, r) {
		t.Fatal("the decoded response is not the encoded one")
	}
	if allocs > 4 {
		t.Fatalf("decoding one response made %v allocations, want 4 (papers, ids, table, names)", allocs)
	}
}

// FuzzShardFrame: whatever the bytes, the decoder does not panic, what it
// builds is bounded by the frame's length, and anything it accepts encodes
// back to the bytes it came from (a span tree, being JSON, to a fixed
// point).
func FuzzShardFrame(f *testing.F) {
	v1 := encodeFrame(&PapersResponse{Shard: 1, Papers: []WirePaper{{ID: 1, Dist: 0.5}}})
	v1[1] = 1
	for _, seed := range [][]byte{
		encodeFrame(&PapersResponse{Shard: 1, Trace: frameTree(), Papers: []WirePaper{
			{ID: 1, Dist: 0.5, Text: "t", Authors: []hetgraph.NodeID{4, 2}}, {ID: 2, Dist: math.Copysign(0, -1)}},
			Authors: []WireAuthor{{ID: 2, Papers: 3, Name: "ñ"}, {ID: 4, Papers: 1, Name: "b"}}}),
		encodeFrame(authored()),
		encodeFrame(&PapersResponse{Shard: 3, Papers: []WirePaper{{ID: 9, Dist: 1.5}}}),
		[]byte(`{"shard":0}`), {tagPapers, frameVersion, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, nil,
		v1,
		append(encodeFrame(authored()), 0),
		encodeFrame(&PapersResponse{Papers: []WirePaper{{ID: 1}, {ID: 2}}, Authors: []WireAuthor{{ID: 1}}}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := decodePapersResponse(b)
		if err != nil {
			return
		}
		elems := len(resp.Papers) + len(resp.Authors)
		for _, wp := range resp.Papers {
			elems += len(wp.Authors)
		}
		if 4*elems > len(b) {
			t.Fatalf("%d elements decoded from %d bytes", elems, len(b))
		}
		again := encodeFrame(resp)
		if resp.Trace == nil && !bytes.Equal(again, b) {
			t.Fatal("an accepted frame without a span tree is not canonical")
		}
		r, err := decodePapersResponse(again)
		if err != nil || !bytes.Equal(again, encodeFrame(r)) {
			t.Fatalf("encode∘decode is not a fixed point (err %v)", err)
		}
	})
}
