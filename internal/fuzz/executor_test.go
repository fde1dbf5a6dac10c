package fuzz

import (
	"testing"

	"mufuzz/internal/corpus"
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
	if len(o1.branchesByTx) != len(o2.branchesByTx) ||
		len(o1.reports) != len(o2.reports) || o1.firstLive != o2.firstLive {
		t.Error("identical sequences produced different outcomes")
	}
	for i := range o1.branchesByTx {
		if len(o1.branchesByTx[i]) != len(o2.branchesByTx[i]) {
			t.Fatalf("tx %d: branch counts diverge", i)
		}
		for j := range o1.branchesByTx[i] {
			if o1.branchesByTx[i][j] != o2.branchesByTx[i][j] {
				t.Fatalf("tx %d branch %d: events diverge", i, j)
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

// TestWorkersDefaulting pins that Options.Workers is ignored: every value
// normalizes to 1, and a campaign that asks for four workers makes exactly
// the decisions of a campaign that asks for one.
func TestWorkersDefaulting(t *testing.T) {
	for _, in := range []int{-1, 0, 1, 4} {
		o := Options{Workers: in}
		if got := o.Normalized().Workers; got != 1 {
			t.Errorf("Workers %d normalized to %d, want 1", in, got)
		}
	}
	comp := mustCompile(t, corpus.CrowdsaleBuggy())
	opts := Options{Strategy: MuFuzz(), Seed: 3, Iterations: 400, Workers: 1}
	want := resultFingerprint(Run(comp, opts))
	opts.Workers = 4
	if got := resultFingerprint(Run(comp, opts)); got != want {
		t.Errorf("Workers=4 campaign diverged from Workers=1\n--- want\n%s\n--- got\n%s", want, got)
	}
}
