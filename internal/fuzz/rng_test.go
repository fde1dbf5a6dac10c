package fuzz

import (
	"math"
	"math/rand"
	"testing"
)

// Draw counts around the register's landmarks: the tap distance, the first
// feed wraparound (607-273), the register length, and two full turns.
var childSourceDraws = []int{0, 1, 30, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1213, 1214, 1215, 1300}

// matchStock draws n values from got and a fresh rand.NewSource(seed),
// mixing Uint64 and Int63 calls, and fails at the first difference.
func matchStock(t testing.TB, got *childSource, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	for k := 0; k < n; k++ {
		if k%3 == 2 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, k, g, w)
			}
			continue
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d draw %d: Uint64 = %#x, math/rand %#x", seed, k, g, w)
		}
	}
}

// TestChildSourceMatchesMathRand proves childSource and rand.NewSource emit
// the same stream draw for draw, both freshly built and reseeded after
// earlier draws left written-back words in the register.
func TestChildSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, lcgMod, -lcgMod, 1 << 31, zeroSeed,
		math.MinInt64, math.MaxInt64,
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, r.Int63()-r.Int63())
	}
	reused := newChildSource(42)
	for i, seed := range seeds {
		n := childSourceDraws[i%len(childSourceDraws)]
		if i < 9 {
			n = 1300 // every fixed seed crosses every landmark
		}
		matchStock(t, newChildSource(seed), seed, n)
		reused.Seed(seed)
		matchStock(t, reused, seed, n)
	}

	t.Run("generation wraparound", func(t *testing.T) {
		s := newChildSource(5)
		matchStock(t, s, 5, 1300) // every word stamped with generation 1
		for k := 0; k < 1<<16-1; k++ {
			s.Seed(6)
		}
		if s.gen != 1 {
			t.Fatalf("generation = %d after 2^16 seeds, want the wrap back to 1", s.gen)
		}
		matchStock(t, s, 6, 1300)
	})
}

// FuzzChildSource checks the same property on arbitrary seeds and draw
// counts, through a source that already served another seed.
func FuzzChildSource(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, lcgMod, 1 << 31, math.MinInt64, math.MaxInt64} {
		for _, n := range []uint16{0, 273, 608, 1215} {
			f.Add(seed, n)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		s := newChildSource(^seed)
		matchStock(t, s, ^seed, int(draws%1300))
		s.Seed(seed)
		matchStock(t, s, seed, int(draws))
	})
}

// TestChildReseedAllocs pins the point of childSource: reseeding a child rng
// and drawing a child's worth of values allocates nothing.
func TestChildReseedAllocs(t *testing.T) {
	rng := rand.New(newChildSource(0))
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		rng.Seed(seed)
		for k := 0; k < 30; k++ {
			rng.Intn(1000)
		}
	})
	if allocs != 0 {
		t.Fatalf("reseed + 30 draws allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkChildReseed times one child's rng set-up plus 30 Intn draws: the
// stock per-child rand.New(rand.NewSource(s)) against reseeding one
// childSource-backed Rand.
func BenchmarkChildReseed(b *testing.B) {
	b.Run("stock", func(b *testing.B) {
		b.ReportAllocs()
		seed := int64(0)
		for b.Loop() {
			seed++
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 30; k++ {
				rng.Intn(1000)
			}
		}
	})
	b.Run("child", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(newChildSource(0))
		seed := int64(0)
		for b.Loop() {
			seed++
			rng.Seed(seed)
			for k := 0; k < 30; k++ {
				rng.Intn(1000)
			}
		}
	})
}
