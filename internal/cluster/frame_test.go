package cluster

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"expertfind/internal/obs"
)

// The three messages, each through the one codec entry point per direction.
func encodePapers(r *PapersResponse) []byte        { return encodeFrame(tagPapers, r) }
func encodeRequest(q ExpertsRequest) []byte        { return encodeFrame(tagRequest, &q) }
func encodeExperts(r *ShardExpertsResponse) []byte { return encodeFrame(tagExperts, r) }
func decodePapersResponse(b []byte) (*PapersResponse, error) {
	r := new(PapersResponse)
	return r, decodeFrame(b, tagPapers, r)
}
func decodeExpertsRequest(b []byte) (ExpertsRequest, error) {
	var q ExpertsRequest
	err := decodeFrame(b, tagRequest, &q)
	return q, err
}
func decodeExpertsResponse(b []byte) (*ShardExpertsResponse, error) {
	r := new(ShardExpertsResponse)
	return r, decodeFrame(b, tagExperts, r)
}

// frameTree is a span tree as a shard would graft it: attrs, a child, ids.
func frameTree() *obs.SpanNode {
	return &obs.SpanNode{
		Name: "shard_experts", SpanID: "00000000000000a1", ParentID: "00000000000000b2",
		StartUnixNano: 1_700_000_000_000_000_123, DurationNano: 4567,
		Attrs:    map[string]string{"shard": "1"},
		Children: []obs.SpanNode{{Name: "score", SpanID: "00000000000000c3", DurationNano: 12}},
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

// TestFrameRoundTrip: decode∘encode is the identity on each of the three
// frames, down to float bits, for the values JSON was at risk of bending.
func TestFrameRoundTrip(t *testing.T) {
	papers := []PapersResponse{
		{},
		{Shard: 4, Trace: frameTree()},
		{Shard: 1, Papers: []WirePaper{{ID: 7, Dist: 0.25}, {ID: math.MaxInt32, Dist: math.MaxFloat64}}},
		{Shard: 2, Trace: frameTree(), Papers: []WirePaper{
			{ID: 1, Dist: 1, Text: "Ünïcode títle — 图嵌入", Authors: []string{"Łukasz Żółć", "山田 太郎", ""}},
			{ID: 2, Dist: 2}, // no metadata beside a paper that has some
			{ID: 3, Dist: 3, Authors: []string{"solo"}},
		}},
	}
	for _, d := range edgeFloats {
		papers[2].Papers = append(papers[2].Papers, WirePaper{ID: -5, Dist: d})
	}
	for i := range papers {
		want := &papers[i]
		got, err := decodePapersResponse(encodePapers(want))
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

	for i, want := range []ExpertsRequest{
		{},
		{Papers: []RankedPaper{{ID: 3, Rank: 1}, {ID: math.MaxInt32, Rank: math.MaxInt32}, {ID: -1, Rank: -1}}},
	} {
		got, err := decodeExpertsRequest(encodeRequest(want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d: got %+v (%v), want %+v", i, got, err, want)
		}
	}

	experts := []ShardExpertsResponse{
		{},
		{Shard: 3, Trace: frameTree(), Experts: []WireExpert{
			{ID: 9, Score: 0.5, Name: "Зоя Космодемьянская", Papers: 12,
				Contribs: []Contribution{{Rank: 1, S: 0.25}, {Rank: 40, S: 0.25}}},
			{ID: 10, Name: "", Papers: 0}, // no contributions, empty name
		}},
		{Shard: 1},
	}
	for _, f := range edgeFloats {
		experts[2].Experts = append(experts[2].Experts,
			WireExpert{ID: 1, Score: f, Contribs: []Contribution{{Rank: 2, S: f}}})
	}
	for i := range experts {
		want := &experts[i]
		want.Exhausted = true // what the frame means; there is no other kind
		got, err := decodeExpertsResponse(encodeExperts(want))
		if err != nil {
			t.Fatalf("experts %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("experts %d: got %+v, want %+v", i, got, want)
		}
		for j, e := range want.Experts {
			sameBits(t, "score", got.Experts[j].Score, e.Score)
			for k, c := range e.Contribs {
				sameBits(t, "contribution", got.Experts[j].Contribs[k].S, c.S)
			}
		}
	}
}

// TestFrameRefusals: each way a frame can lie is a *FrameError, never a
// panic and never a partial value accepted.
func TestFrameRefusals(t *testing.T) {
	good := encodeExperts(&ShardExpertsResponse{Shard: 1, Exhausted: true, Experts: []WireExpert{
		{ID: 1, Score: 1, Name: "a", Contribs: []Contribution{{Rank: 1, S: 1}}}}})
	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	const body = frameHeaderLen // shard 4 · n 4 · id 4 · score 8 · papers 4 · name 4+1 · c 4 · …
	cases := map[string][]byte{
		"empty":          nil,
		"short header":   good[:1],
		"json object":    []byte(`{"shard":1,"experts":[],"exhausted":true}`),
		"json array":     []byte(`[]`),
		"other tag":      mutate(func(b []byte) { b[0] = tagPapers }),
		"unknown tag":    mutate(func(b []byte) { b[0] = 'Z' }),
		"newer version":  mutate(func(b []byte) { b[1] = 2 }),
		"truncated":      good[:len(good)-3],
		"no trace len":   good[:len(good)-4],
		"trailing":       append(bytes.Clone(good), 0),
		"expert count":   mutate(func(b []byte) { le.PutUint32(b[body+4:], 1<<31) }),
		"name length":    mutate(func(b []byte) { le.PutUint32(b[body+8+16:], 1<<30) }),
		"contrib count":  mutate(func(b []byte) { le.PutUint32(b[body+8+21:], 0xFFFFFFFF) }),
		"trace length":   mutate(func(b []byte) { le.PutUint32(b[len(b)-4:], 9) }),
		"bad trace json": append(mutate(func(b []byte) { le.PutUint32(b[len(b)-4:], 2) }), '{', '{'),
	}
	for name, b := range cases {
		resp, err := decodeExpertsResponse(b)
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Errorf("%s: err = %v (resp %+v), want *FrameError", name, err, resp)
		}
	}
	if _, err := decodeExpertsResponse(good); err != nil {
		t.Fatalf("the unmutated frame: %v", err)
	}
	if _, err := decodeExpertsResponse([]byte(`{"shard":1}`)); err == nil || !strings.Contains(err.Error(), `header "{\""`) {
		t.Fatalf("a JSON body should be refused on its first bytes, got %v", err)
	}
}

// TestFrameLyingCountsDoNotAllocate: a tiny frame whose counts promise
// gigabytes is refused before anything is allocated for them.
func TestFrameLyingCountsDoNotAllocate(t *testing.T) {
	papers := append([]byte{tagPapers, frameVersion, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}, make([]byte, 64)...)
	request := []byte{tagRequest, frameVersion, 0xFF, 0xFF, 0xFF, 0xFF}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		if _, err := decodePapersResponse(papers); err == nil {
			t.Fatal("lying papers count accepted")
		}
		if _, err := decodeExpertsRequest(request); err == nil {
			t.Fatal("lying request count accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / 100; got > 4096 {
		t.Fatalf("refusing two ~80-byte frames allocated %d bytes", got)
	}
}

// FuzzShardFrame: whatever the bytes, no decoder panics, what it builds is
// bounded by the frame's length, and anything it accepts encodes back to
// the bytes it came from (a span tree, being JSON, to a fixed point).
func FuzzShardFrame(f *testing.F) {
	for _, seed := range [][]byte{
		encodePapers(&PapersResponse{Shard: 1, Trace: frameTree(), Papers: []WirePaper{
			{ID: 1, Dist: 0.5, Text: "t", Authors: []string{"a", "b"}}, {ID: 2, Dist: math.Copysign(0, -1)}}}),
		encodeExperts(&ShardExpertsResponse{Shard: 1, Exhausted: true, Experts: []WireExpert{
			{ID: 3, Score: 1.5, Name: "ñ", Papers: 4, Contribs: []Contribution{{Rank: 1, S: 1.5}}}}}),
		encodeRequest(ExpertsRequest{Papers: []RankedPaper{{ID: 1, Rank: 1}}}),
		[]byte(`{"shard":0}`), {tagExperts, frameVersion, 0xFF, 0xFF, 0xFF, 0xFF}, nil,
	} {
		f.Add(seed)
	}
	// fixedPoint checks encode(decode(b)): equal to b without a span tree,
	// and stable under one more decode/encode with one.
	fixedPoint := func(t *testing.T, b, again []byte, traced bool, redecode func([]byte) ([]byte, error)) {
		if !traced && !bytes.Equal(again, b) {
			t.Fatal("an accepted frame without a span tree is not canonical")
		}
		if final, err := redecode(again); err != nil || !bytes.Equal(again, final) {
			t.Fatalf("encode∘decode is not a fixed point (err %v)", err)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if resp, err := decodePapersResponse(b); err == nil {
			elems := len(resp.Papers)
			for _, wp := range resp.Papers {
				elems += len(wp.Authors)
			}
			if 4*elems > len(b) {
				t.Fatalf("%d elements decoded from %d bytes", elems, len(b))
			}
			fixedPoint(t, b, encodePapers(resp), resp.Trace != nil, func(b []byte) ([]byte, error) {
				r, err := decodePapersResponse(b)
				return encodePapers(r), err
			})
		}
		if req, err := decodeExpertsRequest(b); err == nil {
			if 8*len(req.Papers) > len(b) {
				t.Fatalf("%d papers decoded from %d bytes", len(req.Papers), len(b))
			}
			if !bytes.Equal(encodeRequest(req), b) {
				t.Fatal("request frame is not canonical")
			}
		}
		if resp, err := decodeExpertsResponse(b); err == nil {
			elems := len(resp.Experts)
			for _, we := range resp.Experts {
				elems += len(we.Contribs)
			}
			if 12*elems > len(b) {
				t.Fatalf("%d elements decoded from %d bytes", elems, len(b))
			}
			fixedPoint(t, b, encodeExperts(resp), resp.Trace != nil, func(b []byte) ([]byte, error) {
				r, err := decodeExpertsResponse(b)
				return encodeExperts(r), err
			})
		}
	})
}
