package world

import (
	"context"
	"runtime"
	"testing"

	"mufuzz/internal/fuzz"
)

// TestRunSliceAllocGate is the world counterpart of the fuzz package's
// campaign-loop allocation gate: the bank fixture as primary, the token as a
// member and a synthesized attacker, on the sequential engine. On top of
// the single-contract loop it covers the per-deploy attacker build and the
// witnessed reentrancy confirmation's replay pair.
func TestRunSliceAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	bank := loadFixture(t, "bank-reentrant")
	token := loadFixture(t, "erc20")
	c := fuzz.NewTargetCampaign(bank, fuzz.Options{
		Strategy: fuzz.MuFuzz(), Seed: 1, Iterations: 1_000_000,
		World: &fuzz.WorldOptions{
			Members:  []fuzz.WorldMember{{Name: "token", Target: token}},
			Attacker: NewModel(bank.Methods()),
		},
	})

	const budget = 17.0 // measured 12.4; 23.2 when every execution stored its own checkpoint, 47.6 before that with string finding keys, per-deploy attacker builds and fresh replay EVMs
	ctx := context.Background()
	res, _ := c.RunSlice(ctx, 8) // warm: corpus, executor pools, IR programs
	start := res.Executions
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 10; i++ {
		res, _ = c.RunSlice(ctx, 8)
	}
	runtime.ReadMemStats(&m1)
	execs := res.Executions - start
	avg := float64(m1.Mallocs-m0.Mallocs) / float64(execs)
	if avg > budget {
		t.Errorf("world campaign loop allocates %.1f objects/exec over %d execs, budget %.0f", avg, execs, budget)
	}
	t.Logf("world campaign loop: %.1f allocs/exec over %d execs", avg, execs)
}
