package baselines

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// refWordVector is wordVector as it stood when it seeded its own
// math/rand source per word, frozen as the reference it must reproduce.
func refWordVector(w string, dim int, seed int64) []float64 {
	h := fnv.New64a()
	h.Write([]byte(w))
	rng := rand.New(rand.NewSource(int64(h.Sum64()) ^ seed))
	v := make([]float64, dim)
	sigma := 1 / math.Sqrt(float64(dim))
	for i := range v {
		v[i] = rng.NormFloat64() * sigma
	}
	return v
}

// TestWordVectorMatchesReference holds wordVector to refWordVector, each
// draw rounded to float32, bit for bit, at widths inside and past the lazy
// source's 273-draw window.
func TestWordVectorMatchesReference(t *testing.T) {
	words := []string{"", "graph", "Community", "über", "日本語", "\xff\xfe", "a\x00b"}
	for _, dim := range []int{1, 7, 24, 64, 300} {
		for _, seed := range []int64{0, 7, -1, math.MinInt64} {
			for _, w := range words {
				got, want := wordVector(w, dim, seed), refWordVector(w, dim, seed)
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(float32(want[j])) {
						t.Fatalf("wordVector(%q, %d, %d)[%d] = %v, reference %v", w, dim, seed, j, got[j], want[j])
					}
				}
			}
		}
	}
}
