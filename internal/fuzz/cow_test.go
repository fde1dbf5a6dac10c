package fuzz

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"mufuzz/internal/corpus"
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// dumpState canonically renders a world state (fuzz-side twin of the state
// package's test helper, via the public API only).
func dumpState(s *state.State) string {
	var b strings.Builder
	for _, addr := range s.Accounts() {
		fmt.Fprintf(&b, "%s bal=%s code=%x destroyed=%v storage{",
			addr, s.Balance(addr), s.Code(addr), s.Destroyed(addr))
		st := s.StorageDump(addr)
		keys := make([]u256.Int, 0, len(st))
		for k := range st {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Lt(keys[j]) })
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, st[k])
		}
		b.WriteString(" }\n")
	}
	return b.String()
}

// collectEntries drains every checkpoint entry of a campaign's prefix cache
// from the published shard views (every store publishes at once).
func collectEntries(pc *prefixCache) []*prefixEntry {
	var out []*prefixEntry
	for i := range pc.shards {
		for _, e := range pc.shards[i].view() {
			out = append(out, e)
		}
	}
	return out
}

// TestConcurrentForksOffCheckpointEntries is the engine-level CoW stress:
// run a real campaign to populate the prefix cache with live checkpoint
// states, then fork every entry from many goroutines at once and mutate the
// forks hard. The entries — shared, supposedly immutable — must come out
// byte-identical, and the campaign must still be able to resume from them.
// Run under -race this pins the generation-tag protocol of state.Fork.
func TestConcurrentForksOffCheckpointEntries(t *testing.T) {
	comp := mustCompile(t, corpus.Crowdsale())
	c := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 5, Iterations: 400})
	c.Run()

	entries := collectEntries(c.prefixes)
	if len(entries) == 0 {
		t.Fatal("campaign populated no checkpoint entries")
	}
	before := make([]string, len(entries))
	for i, e := range entries {
		before[i] = dumpState(e.st)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 30; round++ {
				e := entries[(round+w)%len(entries)]
				ch := e.st.Fork()
				// mutate the fork across every write path
				addr := state.AddressFromUint(uint64(rng.Intn(8)))
				ch.SetBalance(addr, u256.New(rng.Uint64()))
				ch.SetStorage(c.contractAddr, u256.New(uint64(rng.Intn(8))), u256.New(rng.Uint64()))
				snap := ch.Snapshot()
				ch.Destroy(c.contractAddr, addr)
				ch.RevertTo(snap)
			}
		}(w)
	}
	wg.Wait()

	for i, e := range entries {
		if got := dumpState(e.st); got != before[i] {
			t.Fatalf("checkpoint entry %d corrupted by concurrent forks\nbefore:\n%s\nafter:\n%s", i, before[i], got)
		}
	}
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
			ch.SetStorage(cached.contractAddr, u256.New(uint64(i)), u256.New(999))
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
				if out.branchesByTx[i][j].Key() != ref.branchesByTx[i][j].Key() {
					t.Fatalf("tx %d event %d: %+v != %+v", i, j, out.branchesByTx[i][j].Key(), ref.branchesByTx[i][j].Key())
				}
			}
		}
	}
}
