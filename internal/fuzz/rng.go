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
