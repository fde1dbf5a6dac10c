package state

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"mufuzz/internal/u256"
)

// dump renders a state's full observable content canonically: every account
// in address order with balance, code, creator, destroyed flag, and sorted
// storage, each slot as value/tag (zero-valued tagged slots included). Two
// states with equal dumps are observationally identical.
func dump(s *State) string {
	var b strings.Builder
	for _, addr := range s.Accounts() {
		fmt.Fprintf(&b, "%s bal=%s code=%x creator=%s destroyed=%v storage{",
			addr, s.Balance(addr), s.Code(addr), s.Creator(addr), s.Destroyed(addr))
		st, tags := s.StorageDump(addr), s.StorageTags(addr)
		keys := make([]u256.Int, 0, len(st)+len(tags))
		for k := range st {
			keys = append(keys, k)
		}
		for k := range tags {
			if _, ok := st[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Lt(keys[j]) })
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s/%d", k, st[k], tags[k])
		}
		b.WriteString(" }\n")
	}
	return b.String()
}

// mutateRandomly applies one random state operation drawn from rng,
// exercising every write path: storage writes with and without tags
// (including zeroing, which keeps a tagged slot), balance writes,
// transfers, contract creation, destruction, and snapshot/revert (which
// restores values and keeps tags).
func mutateRandomly(s *State, rng *rand.Rand) {
	addr := AddressFromUint(uint64(rng.Intn(6)))
	other := AddressFromUint(uint64(rng.Intn(6)))
	switch rng.Intn(8) {
	case 0:
		s.SetStorage(addr, u256.New(uint64(rng.Intn(8))), u256.New(rng.Uint64()), uint16(rng.Intn(4)))
	case 1:
		s.SetStorage(addr, u256.New(uint64(rng.Intn(8))), u256.Zero, uint16(rng.Intn(2))) // slot delete, or a tagged zero
	case 2:
		s.SetBalance(addr, u256.New(rng.Uint64()))
	case 3:
		s.AddBalance(addr, u256.New(uint64(rng.Intn(1000))))
	case 4:
		s.Transfer(addr, other, u256.New(uint64(rng.Intn(100))))
	case 5:
		s.CreateContract(addr, []byte{byte(rng.Intn(256)), 0x57}, other)
	case 6:
		s.Destroy(addr, other)
	case 7:
		snap := s.Snapshot()
		s.SetStorage(addr, u256.New(1), u256.New(rng.Uint64()), uint16(rng.Intn(4)))
		s.SetBalance(other, u256.New(rng.Uint64()))
		if rng.Intn(2) == 0 {
			s.RevertTo(snap)
		}
	}
}

// seedWorld builds a small world with contracts, storage, and balances.
func seedWorld(seed int64) *State {
	s := New()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 4; i++ {
		s.SetBalance(AddressFromUint(uint64(i)), u256.New(1+rng.Uint64()%1000))
	}
	c := AddressFromUint(5)
	s.CreateContract(c, []byte{0x60, 0x00, 0x57}, AddressFromUint(0))
	for slot := 0; slot < 6; slot++ {
		s.SetStorage(c, u256.New(uint64(slot)), u256.New(rng.Uint64()), 0)
	}
	s.Commit()
	return s
}

// TestForkNeverLeaksIntoParentOrSiblings is the CoW isolation property:
// arbitrary mutation of forked children must leave the parent and every
// sibling byte-identical, and parent mutation must not leak into children.
func TestForkNeverLeaksIntoParentOrSiblings(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		parent := seedWorld(trial)
		before := dump(parent)

		const siblings = 4
		children := make([]*State, siblings)
		snaps := make([]string, siblings)
		for i := range children {
			children[i] = parent.Fork()
			snaps[i] = dump(children[i])
			if snaps[i] != before {
				t.Fatalf("trial %d: fork %d differs from parent at birth", trial, i)
			}
		}

		// Mutate every child with a distinct op stream.
		for i, ch := range children {
			rng := rand.New(rand.NewSource(trial*100 + int64(i)))
			for op := 0; op < 50; op++ {
				mutateRandomly(ch, rng)
			}
		}
		if got := dump(parent); got != before {
			t.Fatalf("trial %d: child writes leaked into parent\nbefore:\n%s\nafter:\n%s", trial, before, got)
		}

		// Each child must see only its own writes: replay the same op stream
		// on a deep Copy of the original parent and compare.
		for i, ch := range children {
			ref := parent.Copy()
			rng := rand.New(rand.NewSource(trial*100 + int64(i)))
			for op := 0; op < 50; op++ {
				mutateRandomly(ref, rng)
			}
			if dump(ch) != dump(ref) {
				t.Fatalf("trial %d: sibling %d diverged from its reference copy", trial, i)
			}
		}

		// Parent writes after the forks must not leak into children.
		rng := rand.New(rand.NewSource(trial + 7777))
		childDumps := make([]string, siblings)
		for i, ch := range children {
			childDumps[i] = dump(ch)
		}
		for op := 0; op < 50; op++ {
			mutateRandomly(parent, rng)
		}
		for i, ch := range children {
			if dump(ch) != childDumps[i] {
				t.Fatalf("trial %d: parent writes leaked into child %d", trial, i)
			}
		}
	}
}

// transact applies one random "transaction" to s: snapshot, a few ops, then
// commit or revert — mirroring how the EVM drives the state.
func transact(s *State, rng *rand.Rand) {
	snap := s.Snapshot()
	nOps := 1 + rng.Intn(4)
	for op := 0; op < nOps; op++ {
		mutateRandomly(s, rng)
	}
	if rng.Intn(3) == 0 {
		s.RevertTo(snap)
	}
}

// TestForkMatchesCopyTransactionForTransaction drives forks and a Copy of the
// same state through an identical random script of writes and
// Snapshot/RevertTo cycles, asserting observational equality after every
// step — a fork must match the deep-copy specification exactly, including
// journal semantics. The forks are a Fork and a ForkInto scratch reused
// across rounds and re-forked from the parent each round, as the fuzzing
// executors reuse theirs. The parent keeps writing after every fork, so a
// fork that fails to retire the parent's write generation shows up as a
// parent write leaking into the child; the parent itself must end up exactly
// as a Copy that received only the parent's writes.
func TestForkMatchesCopyTransactionForTransaction(t *testing.T) {
	for trial := int64(0); trial < 10; trial++ {
		parent := seedWorld(trial)
		parentRef := parent.Copy()
		rngP := rand.New(rand.NewSource(trial + 7777))
		rngPRef := rand.New(rand.NewSource(trial + 7777))

		check := func(label string, child *State, seed int64, steps int) {
			t.Helper()
			copyRef := parent.Copy()
			rngF := rand.New(rand.NewSource(seed))
			rngC := rand.New(rand.NewSource(seed))
			for step := 0; step < steps; step++ {
				transact(child, rngF)
				transact(copyRef, rngC)
				transact(parent, rngP)
				transact(parentRef, rngPRef)
				if df, dc := dump(child), dump(copyRef); df != dc {
					t.Fatalf("trial %d %s step %d: fork diverged from copy\nfork:\n%s\ncopy:\n%s", trial, label, step, df, dc)
				}
			}
		}

		check("Fork", parent.Fork(), trial*31, 120)
		// Round 0 has no scratch yet and falls back to Fork; later rounds
		// reuse it.
		var scratch *State
		for round := int64(0); round < 3; round++ {
			scratch = parent.ForkInto(scratch)
			check(fmt.Sprintf("ForkInto round %d", round), scratch, trial*31+round+1, 40)
		}
		if dp, dr := dump(parent), dump(parentRef); dp != dr {
			t.Fatalf("trial %d: child writes leaked into parent\nparent:\n%s\nref:\n%s", trial, dp, dr)
		}
	}
}

// TestForkOfForkChains checks that grandchildren stay isolated through a
// chain of forks interleaved with writes at every level.
func TestForkOfForkChains(t *testing.T) {
	root := seedWorld(1)
	a := AddressFromUint(5)

	child := root.Fork()
	child.SetStorage(a, u256.New(0), u256.New(111), 0)
	grand := child.Fork()
	grand.SetStorage(a, u256.New(0), u256.New(222), 0)
	grandSlot1 := value(grand, a, u256.New(1))
	great := grand.Fork()
	great.SetStorage(a, u256.New(1), u256.New(333), 0)

	if v := value(child, a, u256.New(0)); !v.Eq(u256.New(111)) {
		t.Errorf("child slot0 = %s, want 111", v)
	}
	if v := value(grand, a, u256.New(0)); !v.Eq(u256.New(222)) {
		t.Errorf("grand slot0 = %s, want 222", v)
	}
	if v := value(great, a, u256.New(0)); !v.Eq(u256.New(222)) {
		t.Errorf("great inherits slot0 = %s, want 222", v)
	}
	if v := value(great, a, u256.New(1)); !v.Eq(u256.New(333)) {
		t.Errorf("great slot1 = %s, want 333", v)
	}
	if v := value(grand, a, u256.New(1)); !v.Eq(grandSlot1) {
		t.Errorf("great's write leaked up: slot1 = %s, want %s", v, grandSlot1)
	}
}

// TestForkRevertAcrossForkPoint reverts the parent past a journal entry
// recorded before a Fork; the clone-on-revert path must keep the child
// untouched.
func TestForkRevertAcrossForkPoint(t *testing.T) {
	s := seedWorld(3)
	a := AddressFromUint(5)
	snap := s.Snapshot()
	s.SetStorage(a, u256.New(0), u256.New(42), 0)
	s.SetBalance(AddressFromUint(1), u256.New(42))

	child := s.Fork()
	childBefore := dump(child)

	s.RevertTo(snap) // mutates accounts now shared with child
	if got := dump(child); got != childBefore {
		t.Fatalf("parent revert leaked into child\nbefore:\n%s\nafter:\n%s", childBefore, got)
	}
	if v := value(s, a, u256.New(0)); v.Eq(u256.New(42)) {
		t.Error("parent revert did not apply")
	}
}

// TestConcurrentForksOfFrozenState forks one frozen state from many
// goroutines at once and mutates every child — the exact access pattern of
// parallel executors resuming from one checkpoint entry. Run with -race.
func TestConcurrentForksOfFrozenState(t *testing.T) {
	frozen := seedWorld(9)
	before := dump(frozen)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 50; round++ {
				ch := frozen.Fork()
				for op := 0; op < 10; op++ {
					mutateRandomly(ch, rng)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := dump(frozen); got != before {
		t.Fatalf("concurrent forks corrupted the frozen state\nbefore:\n%s\nafter:\n%s", before, got)
	}
}
