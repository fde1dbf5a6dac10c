package fuzz_test

import (
	"bytes"
	"math/rand"
	"testing"

	"mufuzz/internal/corpus"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/minisol"
	"mufuzz/internal/world"
)

// TestAttackerMemoMatchesCompile walks 1,000 specs with world.Model.Mutate,
// revisiting earlier ones as a campaign's queue does, and requires the
// memoized build to be byte-equal to a direct Compile, to hand back the same
// slice for a spec it holds, and never to hold more than its bound.
func TestAttackerMemoMatchesCompile(t *testing.T) {
	comp, err := minisol.Compile(corpus.BankReentrant())
	if err != nil {
		t.Fatal(err)
	}
	model := world.NewModel(fuzz.MinisolTarget(comp).Methods())
	memo := fuzz.NewAttackerMemo(model)
	rng := rand.New(rand.NewSource(1))
	specs := [][]byte{model.Default(), nil, {0xff}}
	resets, last := 0, 0
	for i := 0; i < 1000; i++ {
		enc := model.Mutate(specs[rng.Intn(len(specs))], rng)
		specs = append(specs, enc)
		if rng.Intn(2) == 0 {
			// Revisit a recent spec: the memo must serve it unchanged.
			enc = specs[len(specs)-1-rng.Intn(min(len(specs), 2*fuzz.AttackerMemoCap))]
		}
		want := model.Compile(enc)
		got := memo.Compile(enc)
		if !bytes.Equal(got, want) {
			t.Fatalf("spec %d %x: memoized build differs from Compile", i, enc)
		}
		if again := memo.Compile(enc); len(got) > 0 && &again[0] != &got[0] {
			t.Fatalf("spec %d %x: memo handed back a different slice for the same spec", i, enc)
		}
		n := memo.Len()
		if n > fuzz.AttackerMemoCap {
			t.Fatalf("spec %d: memo holds %d specs, bound %d", i, n, fuzz.AttackerMemoCap)
		}
		if n < last {
			resets++
		}
		last = n
	}
	if resets == 0 {
		t.Fatal("the walk never filled the memo; the bound went unexercised")
	}
}
