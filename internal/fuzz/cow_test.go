package fuzz

import (
	"testing"

	"mufuzz/internal/corpus"
	"mufuzz/internal/u256"
)

// collectEntries returns every checkpoint entry of a prefix cache, oldest
// first.
func collectEntries(pc *prefixCache) []*prefixEntry {
	out := make([]*prefixEntry, 0, len(pc.order))
	for _, k := range pc.order {
		out = append(out, pc.entries[k])
	}
	return out
}

// TestResumeFromForkedCheckpointMatchesFreshRun pins the executor contract
// under CoW: executing a sequence that resumes from a (heavily re-forked)
// checkpoint must produce the same branch events as a from-genesis run.
func TestResumeFromForkedCheckpointMatchesFreshRun(t *testing.T) {
	comp := mustCompile(t, corpus.Crowdsale())
	cached := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 3, Iterations: 10})
	fresh := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 3, Iterations: 10, NoPrefixCache: true})

	seq := cached.initialSequence()
	// First run populates checkpoints: with the sequence's own prefix table
	// as its seed table it stores every proper prefix. Stress-fork them; the
	// second run resumes.
	table := prefixHashes(seq, nil)
	out1 := cached.exec.run(seq, table)
	for _, e := range collectEntries(cached.prefixes) {
		for i := 0; i < 4; i++ {
			ch := e.st.Fork()
			ch.SetStorage(cached.contractAddr, u256.New(uint64(i)), u256.New(999), 0)
		}
	}
	out2 := cached.exec.run(seq, table)
	if out2.firstLive == 0 {
		t.Fatal("second run did not resume from a checkpoint")
	}
	ref := fresh.exec.run(seq, nil)

	for _, out := range []*execOutcome{&out1, &out2} {
		if len(out.branchesByTx) != len(ref.branchesByTx) {
			t.Fatalf("tx batch count %d != %d", len(out.branchesByTx), len(ref.branchesByTx))
		}
		for i := range ref.branchesByTx {
			if len(out.branchesByTx[i]) != len(ref.branchesByTx[i]) {
				t.Fatalf("tx %d: %d branch events != %d", i, len(out.branchesByTx[i]), len(ref.branchesByTx[i]))
			}
			for j := range ref.branchesByTx[i] {
				if out.branchesByTx[i][j] != ref.branchesByTx[i][j] {
					t.Fatalf("tx %d event %d: %+v != %+v", i, j, out.branchesByTx[i][j], ref.branchesByTx[i][j])
				}
			}
		}
	}
}
