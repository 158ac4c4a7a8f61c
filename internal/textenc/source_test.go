package textenc

import (
	"math"
	"math/rand"
	"testing"

	"expertfind/internal/vec"
)

// sourceSeeds are the seeds TestSeededSourceMatchesMathRand pins: the
// ones math/rand's Seed normalises specially, the extremes of int64, and
// 2 000 drawn at random.
func sourceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, lcgMod, -lcgMod, 2 * lcgMod, 89482311,
		math.MinInt64, math.MaxInt64,
	}
	rng := rand.New(rand.NewSource(17))
	for range 2000 {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// checkStream compares draws of got against want: the i-th through
// Uint64, Int63 or NormFloat64 (by bits) as i mod 3 says, after seeding
// got with seed.
func checkStream(t *testing.T, got *seededSource, seed int64, draws int) {
	t.Helper()
	got.Seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	gotRand, wantRand := rand.New(got), rand.New(want)
	for i := range draws {
		var g, w uint64
		switch i % 3 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 2:
			g, w = math.Float64bits(gotRand.NormFloat64()), math.Float64bits(wantRand.NormFloat64())
		}
		if g != w {
			t.Fatalf("seed %d: draw %d (kind %d) = %#x, math/rand's %#x", seed, i, i%3, g, w)
		}
	}
}

// TestSeededSourceMatchesMathRand holds seededSource to rand.NewSource
// draw for draw: 300 draws per seed, which leave the 273-draw window, and
// 1 500 for the special seeds and the first 50 random ones.
func TestSeededSourceMatchesMathRand(t *testing.T) {
	var src seededSource
	for i, seed := range sourceSeeds() {
		draws := 300
		if i < 59 {
			draws = 1500
		}
		checkStream(t, &src, seed, draws)
	}
}

// TestSeededSourceReseeds re-seeds one source inside the window and past
// it: either way the new stream is rand.NewSource's from its first draw.
func TestSeededSourceReseeds(t *testing.T) {
	var src seededSource
	src.Seed(5)
	for range 100 {
		src.Uint64()
	}
	checkStream(t, &src, -3, 1000) // leaves src past the window
	checkStream(t, &src, 42, 1500)
	checkStream(t, &src, 0, 10)
}

// FuzzSeededSource holds seededSource to rand.NewSource for a fuzzed seed
// and number of draws.
func FuzzSeededSource(f *testing.F) {
	f.Add(int64(0), uint16(1))
	f.Add(int64(-1), uint16(273))
	f.Add(int64(lcgMod), uint16(274))
	f.Add(int64(math.MinInt64), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkStream(t, new(seededSource), seed, int(draws))
	})
}

// BenchmarkHashVector is one string's 64-dimensional hash vector: the
// seed and the draws, from a seededSource (lazy) and from a re-seeded
// math/rand source (mathrand), as the hasher drew them before.
func BenchmarkHashVector(b *testing.B) {
	dst := vec.New(64)
	for _, bc := range []struct {
		name string
		h    hasher
	}{
		{"lazy", newHasher()},
		{"mathrand", hasher{rand.New(rand.NewSource(0))}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.h.fill(dst, uint64(i), 0x3779B97F4A7C15)
			}
		})
	}
}
