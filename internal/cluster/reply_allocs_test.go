//go:build !race

// The race detector changes what a call allocates, and sync.Pool drops
// items at random under it: the bound runs without it (CI's "shard reply
// allocation bound" step).

package cluster

import (
	"context"
	"math/rand"
	"testing"
)

// TestShardReplyAllocs bounds what one routed /experts reply allocates,
// outside HTTP, on the equivalence corpus at m = 200, as the shard handler
// and the router run it: one shard's Papers and encodeFrame, and the
// router's decodeFrame of both shards' frames and rankResponses over them,
// each with its buffers and responses recycled.
func TestShardReplyAllocs(t *testing.T) {
	const m, n = 200, 20
	ds, eng := equivEngine(t)
	engines := splitEngine(t, eng)
	q := ds.Queries(1, rand.New(rand.NewSource(3)))[0].Text
	c := replyCases(t, engines, []string{q}, m)[0]
	shard := testing.AllocsPerRun(50, func() {
		sent := engines[0].Papers(c.res[0], true, false)
		freeFrameBuf(encodeFrame(sent))
		sent.free()
	})
	router := testing.AllocsPerRun(50, func() {
		resps := make([]*PapersResponse, len(c.frames))
		for i, f := range c.frames {
			resps[i] = responses.Get().(*PapersResponse)
			if err := decodeFrame(f, resps[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := rankResponses(context.Background(), resps, m, n); err != nil {
			t.Fatal(err)
		}
		freeAll(resps)
	})
	// The shard allocates nothing: the array behind the author lists is
	// recycled with the response it is encoded from. The router's are the
	// responses' arrays and name strings, two spans (one allocation each:
	// a span is its own context), the merge heads and the answer.
	if shard > 0 || router > 10 {
		t.Fatalf("a reply allocates %v times on the shard and %v on the router, want 0 and 10", shard, router)
	}
}
