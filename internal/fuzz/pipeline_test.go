package fuzz

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"mufuzz/internal/corpus"
	"mufuzz/internal/minisol"
)

// runBatchedGolden runs one pinned campaign configuration on the batched
// engine and returns its fingerprint.
func runBatchedGolden(t *testing.T, source string, seed int64, iters, workers int) string {
	t.Helper()
	comp, err := minisol.Compile(source)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res := Run(comp, Options{Strategy: MuFuzz(), Seed: seed, Iterations: iters, Workers: workers})
	return resultFingerprint(res)
}

// TestGoldenBatchedEquivalence pins the batched schedule across worker
// counts: the pipelined engine (persistent pool, streaming in-order fold,
// speculative line search) must reproduce the committed fingerprints at
// workers=2 and workers=4. The goldens were recorded from the fork-join
// engine, which gave every child a stock rand.NewSource, so they also pin end
// to end that the pipelined engine's childSource replays math/rand.
// Regenerate with MUFUZZ_GOLDEN_REGEN=1 after an intentional schedule change.
func TestGoldenBatchedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaigns are slow")
	}
	regen := os.Getenv("MUFUZZ_GOLDEN_REGEN") != ""
	for _, gc := range goldenCampaigns {
		want, ok := goldenBatchedFingerprints[gc.name]
		for _, workers := range []int{2, 4} {
			label := fmt.Sprintf("pipelined-w%d", workers)
			t.Run(gc.name+"/"+label, func(t *testing.T) {
				got := runBatchedGolden(t, gc.source, gc.seed, gc.iters, workers)
				if regen || !ok {
					t.Logf("golden %q (%s) fingerprint:\n%s", gc.name, label, got)
					return
				}
				if got != want {
					t.Errorf("%s diverged from the pinned batched schedule\n--- want\n%s\n--- got\n%s", label, want, got)
				}
			})
		}
	}
}

// TestReorderBufferUnderGOMAXPROCSChurn stresses the pipelined engine's
// reorder buffer while another goroutine thrashes GOMAXPROCS between 1 and
// NumCPU: completions land in wildly shifting orders (including fully serial
// ones), and under -race the test doubles as the data-race gate for the
// pool/reorder handshake. The fingerprint must not move a byte.
func TestReorderBufferUnderGOMAXPROCSChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn stress is slow")
	}
	comp := mustCompile(t, corpus.CrowdsaleBuggy())
	opts := Options{Strategy: MuFuzz(), Seed: 3, Iterations: 400, Workers: 4}
	want := resultFingerprint(Run(comp, opts))

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				runtime.GOMAXPROCS(1)
			} else {
				runtime.GOMAXPROCS(prev)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for round := 0; round < 3; round++ {
		got := resultFingerprint(Run(comp, opts))
		if got != want {
			t.Fatalf("round %d: fingerprint moved under GOMAXPROCS churn\n--- want\n%s\n--- got\n%s", round, want, got)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPipelineScalingSmoke is the CI multi-core gate: on a machine with at
// least two CPUs, the pipelined engine at workers=2 must beat the sequential
// engine that workers=1 selects on the fixture corpus. Self-skips unless
// MUFUZZ_SCALING_SMOKE=1 (throughput measurement has no place in the default
// unit-test wall clock) or when the host is single-core, where the assertion
// is unfalsifiable.
func TestPipelineScalingSmoke(t *testing.T) {
	if os.Getenv("MUFUZZ_SCALING_SMOKE") == "" {
		t.Skip("set MUFUZZ_SCALING_SMOKE=1 to run the scaling gate")
	}
	if runtime.NumCPU() < 2 {
		t.Skipf("host has %d CPU(s); scaling is unmeasurable", runtime.NumCPU())
	}
	comp := mustCompile(t, corpus.Crowdsale())
	const iters = 20000
	measure := func(workers int) float64 {
		best := 0.0
		// Three trials, best-of: absorbs scheduler noise on shared CI runners.
		for trial := 0; trial < 3; trial++ {
			c := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 1, Iterations: iters, Workers: workers})
			start := time.Now()
			res := c.Run()
			if eps := float64(res.Executions) / time.Since(start).Seconds(); eps > best {
				best = eps
			}
		}
		return best
	}
	e1 := measure(1)
	e2 := measure(2)
	t.Logf("sequential workers=1: %.0f execs/s, pipelined workers=2: %.0f execs/s (%.2fx)", e1, e2, e2/e1)
	if e2 <= e1 {
		t.Errorf("pipelined workers=2 (%.0f execs/s) does not beat sequential workers=1 (%.0f execs/s)", e2, e1)
	}
}
