package fuzz

import (
	"context"
	"runtime"
	"testing"

	"mufuzz/internal/corpus"
)

// TestExecuteAllocGate pins the steady-state allocation budget of the hot
// path: after a warmed-up campaign (IR programs compiled, frame/state pools
// populated, prefix cache filled), executing a queue sequence must stay
// within a fixed allocation budget. This is the regression gate behind the
// "zero-alloc hot path" work — per-execution garbage crept back in whenever
// a refactor silently re-introduced a copy, and benchmarks alone don't fail
// CI. The budget is deliberately above the measured steady state to absorb
// Go-version variance, but far below the ~80 allocs/exec of the pre-IR
// engine. The whole campaign loop, mutation, oracle and fold included, is
// pinned by TestRunSliceAllocGate and measured by the performance ledger's
// fuzz.allocs_per_exec (bench/).
func TestExecuteAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	comp := mustCompile(t, crowdsaleSrc)
	c := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 1, Iterations: 400})
	c.Run() // warm everything the executor pools or caches

	seqs := c.QueueSequences()
	if len(seqs) == 0 {
		t.Fatal("campaign produced no queue sequences")
	}
	// Pick the longest queue sequence: more transactions per execution means
	// more chances for a per-transaction allocation to show up in the average.
	seq := seqs[0]
	for _, s := range seqs {
		if len(s) > len(seq) {
			seq = s
		}
	}

	const budget = 16.0 // measured ~5; pre-IR engine was ~80
	avg := testing.AllocsPerRun(200, func() {
		c.execute(seq)
	})
	if avg > budget {
		t.Errorf("steady-state execute allocates %.1f objects/run, budget %.0f", avg, budget)
	}
	t.Logf("steady-state execute: %.1f allocs/run over %d txs", avg, len(seq))
}

// TestRunSliceAllocGate extends the allocation gate from one execute to the
// whole campaign loop on the sequential engine: mutation, execution, oracle
// inspection and absorption, fold, admission, mask probes and the line
// search, in the 8-round RunSlice units the service and fleet workers run.
// Like the ledger, it counts RunSlice whole, result assembly included.
// The world variant (bank, token and synthesized attacker) lives in
// internal/world, which imports this package.
func TestRunSliceAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	comp := mustCompile(t, corpus.CrowdsaleBuggy())
	c := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 1, Iterations: 1_000_000})

	const budget = 13.0 // measured 9.2; 15.1 when every execution stored its own checkpoint, 27.6 before that with string finding keys
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
		t.Errorf("campaign loop allocates %.1f objects/exec over %d execs, budget %.0f", avg, execs, budget)
	}
	t.Logf("campaign loop: %.1f allocs/exec over %d execs", avg, execs)
}
