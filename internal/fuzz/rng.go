package fuzz

import "math/rand"

// countedSource wraps the standard math/rand source with a draw counter,
// making the coordinator rng serializable: its state is exactly the pair
// (Seed, draws), and a resumed campaign rebuilds it by re-seeding and
// discarding draws values. Campaign snapshots depend on the counter being a
// complete capture of the rng, which holds because the coordinator only uses
// rand.Rand methods that consume source draws without buffering inside the
// Rand (Int63/Intn/Shuffle and fillBytes; never rand.Rand.Read).
//
// The wrapper implements rand.Source64, so rand.New takes the same internal
// path it takes for the bare rand.NewSource value and the generated stream is
// unchanged — golden fingerprints recorded against the unwrapped source stay
// valid.
type countedSource struct {
	src   rand.Source64
	draws uint64
}

// newCountedSource builds a source seeded with seed and fast-forwarded by
// draws values — the resume path. A fresh campaign passes draws=0.
func newCountedSource(seed int64, draws uint64) *countedSource {
	src := rand.NewSource(seed).(rand.Source64)
	for i := uint64(0); i < draws; i++ {
		// Int63 and Uint64 both advance the underlying generator by exactly
		// one step, so discarding through either replays the same stream.
		src.Uint64()
	}
	return &countedSource{src: src, draws: draws}
}

func (s *countedSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countedSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

// Seed is required by rand.Source but would invalidate the draw counter;
// the engine never reseeds mid-campaign.
func (s *countedSource) Seed(int64) {
	panic("fuzz: countedSource cannot be reseeded")
}

// math/rand's generator is an additive lagged Fibonacci register of rngLen
// words read at two taps rngTap apart. Seeding packs three successive states
// of a multiplicative LCG into each word and XORs in a fixed table.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lcgMod   = 1<<31 - 1 // the seeding LCG's prime modulus
	lcgMul   = 48271     // the seeding LCG's multiplier
	lcgSkip  = 20        // LCG states math/rand discards before word 0
	zeroSeed = 89482311  // math/rand's substitute for a seed ≡ 0 mod lcgMod
)

var (
	// lcgPow[3i+j] = lcgMul^(lcgSkip+1+3i+j) mod lcgMod: the multiplier that
	// takes a normalized seed to the j-th LCG state packed into word i.
	lcgPow [3 * rngLen]uint64
	// rngCooked is math/rand's unexported XOR table, recovered by init from
	// the first rngLen outputs of a stock rand.NewSource(1).
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for n := 0; n < lcgSkip; n++ {
		p = p * lcgMul % lcgMod
	}
	for k := range lcgPow {
		p = p * lcgMul % lcgMod
		lcgPow[k] = p
	}

	// Output k (1-based) of a fresh source adds the initial feed word
	// V[(rngLen-rngTap-k) mod rngLen] to the tap word rngLen-k, which is
	// V[rngLen-k] for k <= rngTap and output k-rngTap after that (the feed
	// write of step k-rngTap landed there). Solving for the feed word from
	// k = rngLen down to 1 always finds the tap term already known, and the
	// feed positions cover the register once, so this yields all of V.
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(src.Uint64())
	}
	var v [rngLen]int64
	for k := rngLen; k >= 1; k-- {
		tap := v[rngLen-k]
		if k > rngTap {
			tap = out[k-rngTap]
		}
		v[(2*rngLen-rngTap-k)%rngLen] = out[k] - tap
	}
	for i := range rngCooked {
		rngCooked[i] = v[i] ^ lcgWord(1, i)
	}
}

// lcgWord packs the three LCG states math/rand seeds register word i with,
// for a seed already normalized into [1, lcgMod).
func lcgWord(seed uint64, i int) int64 {
	x0 := seed * lcgPow[3*i] % lcgMod
	x1 := seed * lcgPow[3*i+1] % lcgMod
	x2 := seed * lcgPow[3*i+2] % lcgMod
	return int64(x0<<40 ^ x1<<20 ^ x2)
}

// childSource is a rand.Source64 whose stream after Seed(s) is exactly the
// stream of rand.NewSource(s), but whose reseed costs O(1). math/rand's Seed
// runs 1,841 LCG steps to fill all 607 register words; a mutated child reads
// only a few dozen draws, so childSource fills a word the first time a draw
// reads it, straight from the seed and a power table. A per-word generation
// stamp tells a word of the current seed (initial or written back by a
// draw) from a stale one, so Seed only bumps the generation.
//
// The pipelined engine reseeds one childSource per child instead of
// allocating a fresh ~5 KB math/rand source on the coordinator goroutine.
type childSource struct {
	tap, feed int
	seed      uint64 // normalized into [1, lcgMod), as math/rand does
	gen       uint16
	stamp     [rngLen]uint16
	vec       [rngLen]int64
}

func newChildSource(seed int64) *childSource {
	s := &childSource{}
	s.Seed(seed)
	return s
}

func (s *childSource) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.gen++
	if s.gen == 0 {
		// Wrapped: stamps from 2^16 seeds ago would read as current.
		clear(s.stamp[:])
		s.gen = 1
	}
}

// word returns register word i under the current seed, filling it first if
// no draw since the last Seed has read or written it.
func (s *childSource) word(i int) int64 {
	if s.stamp[i] != s.gen {
		s.stamp[i] = s.gen
		s.vec[i] = lcgWord(s.seed, i) ^ rngCooked[i]
	}
	return s.vec[i]
}

func (s *childSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	// word stamps the feed word, so the value written back stays current.
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *childSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
