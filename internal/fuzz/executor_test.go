package fuzz

import (
	"testing"

	"mufuzz/internal/oracle"
)

// TestExecutorPure pins the executor/coordinator contract: running the same
// sequence twice on detached executors yields identical outcomes and leaves
// campaign state untouched.
func TestExecutorPure(t *testing.T) {
	comp := mustCompile(t, crowdsaleSrc)
	c := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 1})
	seq := c.initialSequence()

	covBefore := len(c.covered)
	execBefore := c.executions
	x1, x2 := c.exec.detached(), c.exec.detached()
	o1, o2 := x1.run(seq, nil), x2.run(seq, nil)
	if len(c.covered) != covBefore || c.executions != execBefore {
		t.Error("executor.run mutated campaign state")
	}
	if len(o1.branchesByTx) != len(o2.branchesByTx) || o1.nestedDepth != o2.nestedDepth ||
		len(o1.reports) != len(o2.reports) || o1.firstLive != o2.firstLive {
		t.Error("identical sequences produced different outcomes")
	}
	for i := range o1.branchesByTx {
		if len(o1.branchesByTx[i]) != len(o2.branchesByTx[i]) {
			t.Fatalf("tx %d: branch counts diverge", i)
		}
		for j := range o1.branchesByTx[i] {
			if o1.branchesByTx[i][j].Key() != o2.branchesByTx[i][j].Key() {
				t.Fatalf("tx %d branch %d: keys diverge", i, j)
			}
		}
	}
}

// TestExecutorTraceReuse pins that recycling the trace buffer across
// transactions does not leak events between executions.
func TestExecutorTraceReuse(t *testing.T) {
	comp := mustCompile(t, crowdsaleSrc)
	c := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 3})
	x := c.exec.detached()
	seq := c.initialSequence()
	first := x.run(seq, nil)
	// A constructor-only sequence covers strictly fewer branches; if the
	// trace leaked, stale branch events would still show up.
	short := Sequence{seq[0]}
	second := x.run(short, nil)
	if len(second.branchesByTx) != 1 {
		t.Fatalf("constructor-only run produced %d tx batches", len(second.branchesByTx))
	}
	total := 0
	for _, b := range first.branchesByTx {
		total += len(b)
	}
	if len(second.branchesByTx[0]) >= total && total > len(first.branchesByTx[0]) {
		t.Error("trace reuse leaked branch events across executions")
	}
}

// TestParallelCampaignDeterministic pins the batched engine's determinism:
// for a fixed (Seed, Workers) pair the merge order makes results independent
// of goroutine scheduling.
func TestParallelCampaignDeterministic(t *testing.T) {
	comp := mustCompile(t, crowdsaleSrc)
	opts := Options{Strategy: MuFuzz(), Seed: 11, Iterations: 600, Workers: 4}
	r1 := Run(comp, opts)
	r2 := Run(comp, opts)
	if r1.CoveredEdges != r2.CoveredEdges || r1.Executions != r2.Executions ||
		len(r1.Findings) != len(r2.Findings) || r1.SequencesMutated != r2.SequencesMutated ||
		r1.MasksComputed != r2.MasksComputed || r1.SeedQueueLen != r2.SeedQueueLen {
		t.Errorf("parallel campaign not deterministic:\n%+v\n%+v", r1, r2)
	}
	if len(r1.Timeline) != len(r2.Timeline) {
		t.Error("timelines diverge across identical parallel runs")
	}
}

// TestParallelCampaignRespectsBudget pins that batch dispatch never
// overshoots the iteration budget: batches are capped to the remaining
// budget and in-flight executions count against it.
func TestParallelCampaignRespectsBudget(t *testing.T) {
	comp := mustCompile(t, crowdsaleSrc)
	res := Run(comp, Options{Strategy: MuFuzz(), Seed: 1, Iterations: 123, Workers: 4})
	if res.Executions > 123 {
		t.Errorf("executions = %d, budget 123", res.Executions)
	}
	if res.Executions < 100 {
		t.Errorf("executions = %d, campaign under-spent its budget", res.Executions)
	}
}

// TestParallelCampaignQuality checks the batched engine is the same fuzzer:
// it still cracks the Crowdsale deep branch and reports sane coverage.
func TestParallelCampaignQuality(t *testing.T) {
	comp := mustCompile(t, crowdsaleSrc)
	c := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 42, Iterations: 1500, Workers: 4})
	res := c.Run()
	if !withdrawBugReached(t, comp, res, c) {
		t.Errorf("parallel MuFuzz failed to reach the withdraw deep branch (coverage %.0f%%)", res.Coverage*100)
	}
	if res.Coverage < 0.7 {
		t.Errorf("coverage = %.2f, want >= 0.7", res.Coverage)
	}
}

// TestParallelFindsReentrancy runs the batched engine over the reentrancy
// vault: detector splitting (worker-side Inspect, coordinator-side Absorb)
// must preserve bug detection.
func TestParallelFindsReentrancy(t *testing.T) {
	src := `
contract Vault {
    mapping(address => uint256) bal;
    function deposit() public payable { bal[msg.sender] += msg.value; }
    function withdraw() public {
        uint256 amount = bal[msg.sender];
        if (amount > 0) {
            require(msg.sender.call.value(amount)());
            bal[msg.sender] = 0;
        }
    }
}`
	comp := mustCompile(t, src)
	res := Run(comp, Options{Strategy: MuFuzz(), Seed: 3, Iterations: 1200, Workers: 4})
	if !res.BugClasses[oracle.RE] {
		t.Errorf("reentrancy not found by parallel engine; classes = %v", res.BugClasses)
	}
	if _, ok := res.Repro[oracle.RE]; !ok {
		t.Error("no proof-of-concept sequence recorded for RE")
	}
}

// TestWorkersDefaulting pins the Options.Workers contract.
func TestWorkersDefaulting(t *testing.T) {
	for _, tc := range []struct {
		in     int
		minOut int
	}{{0, 1}, {1, 1}, {3, 3}, {-1, 1}} {
		o := Options{Workers: tc.in}
		got := o.withDefaults().Workers
		if got < tc.minOut {
			t.Errorf("Workers %d defaulted to %d, want >= %d", tc.in, got, tc.minOut)
		}
	}
	if (&Options{}).withDefaults().Workers != 1 {
		t.Error("default engine must be the sequential one")
	}
}
