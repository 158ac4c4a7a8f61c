package textenc

import "math/rand"

// seededSource is a rand.Source64 whose stream is exactly that of
// rand.NewSource(seed), without the 1 841 dependent LCG steps the
// standard source's Seed takes to fill its 607-slot register.
//
// After Seed, draw k < rngTap of math/rand's source is the sum of
// register slots 333−k and 606−k, neither yet written by an earlier draw,
// and slot i is (s₂₁₊₃ᵢ<<40 ^ s₂₂₊₃ᵢ<<20 ^ s₂₃₊₃ᵢ) ^ rngCooked[i] with
// sₙ = 48271ⁿ·x mod (2³¹−1). So Seed only normalises x, and each draw
// computes its two slots from lcgPow. Past the window the source replays
// math/rand's from the seed. DESIGN.md ("Why the hash vectors seed
// lazily") has the argument.
type seededSource struct {
	x    uint64        // the seed, normalised as math/rand's Seed does
	n    int           // draws since Seed
	slow rand.Source64 // math/rand's source, once n passes the window
}

const (
	rngLen = 607 // math/rand's register length
	rngTap = 273 // its tap distance: the draws before a written slot is read
	lcgMod = 1<<31 - 1
)

// lcgPow[n] is 48271ⁿ mod 2³¹−1, for every n the seeding reaches.
var lcgPow = func() (p [21 + 3*rngLen]uint64) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = mulMod(p[n-1], 48271)
	}
	return p
}()

// cooked[i] is math/rand's rngCooked[i] for the slots the window reads,
// 61 to 606, read back from the first rngLen draws of rand.NewSource(1):
// draw k+334 is slot 606−k plus draw k+61, and draw k is slots 333−k and
// 606−k summed.
var cooked = func() (c [rngLen]uint64) {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	for k := 0; k < rngTap; k++ {
		tap := out[k+rngLen-rngTap] - out[k+rngLen-2*rngTap]
		c[rngLen-1-k] = tap ^ lcgSlot(rngLen-1-k, 1)
		c[rngLen-rngTap-1-k] = (out[k] - tap) ^ lcgSlot(rngLen-rngTap-1-k, 1)
	}
	return c
}()

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹−1.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p&lcgMod + p>>31
	if p >= lcgMod {
		p -= lcgMod
	}
	return p
}

// lcgSlot is the LCG part of register slot i for the normalised seed x.
func lcgSlot(i int, x uint64) uint64 {
	n := 21 + 3*i
	return mulMod(lcgPow[n], x)<<40 ^ mulMod(lcgPow[n+1], x)<<20 ^ mulMod(lcgPow[n+2], x)
}

// Seed sets the source to the state rand.NewSource(seed) starts in.
func (s *seededSource) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x, s.n = uint64(seed), 0
}

// Uint64 returns the next draw of the stream.
func (s *seededSource) Uint64() uint64 {
	if k := s.n; k < rngTap {
		s.n++
		feed, tap := rngLen-rngTap-1-k, rngLen-1-k
		return (lcgSlot(feed, s.x) ^ cooked[feed]) + (lcgSlot(tap, s.x) ^ cooked[tap])
	}
	if s.n == rngTap {
		if s.slow == nil {
			s.slow = rand.NewSource(0).(rand.Source64)
		}
		s.slow.Seed(int64(s.x))
		for range rngTap {
			s.slow.Uint64()
		}
		s.n++
	}
	return s.slow.Uint64()
}

// Int63 returns the next draw of the stream without its top bit.
func (s *seededSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
