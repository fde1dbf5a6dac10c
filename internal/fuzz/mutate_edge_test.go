package fuzz

import (
	"bytes"
	"math/rand"
	"testing"

	"mufuzz/internal/abi"
	"mufuzz/internal/u256"
)

// TestApplyMutationReplaceEmptyPool is the regression test for the Intn(0)
// panic: the R operator with no interesting values must not crash, and must
// still perturb the stream (degrading to an overwrite draw).
func TestApplyMutationReplaceEmptyPool(t *testing.T) {
	stream := make([]byte, 64)
	out := ApplyMutation(stream, MutReplace, 8, 4, rand.New(rand.NewSource(1)), nil)
	if len(out) != len(stream) {
		t.Fatalf("replace changed length: %d != %d", len(out), len(stream))
	}
	if bytes.Equal(out, stream) {
		t.Error("replace with empty pool left the stream untouched")
	}
	// The degraded path must consume rng exactly like MutOverwrite, so the
	// two operators coincide when no pool exists.
	ow := ApplyMutation(stream, MutOverwrite, 8, 4, rand.New(rand.NewSource(1)), nil)
	if !bytes.Equal(out, ow) {
		t.Error("empty-pool replace must degrade to the overwrite draw")
	}
}

// TestApplyMutationReplacePoolUnchanged pins the non-empty-pool R path: it
// writes the least-significant end of a pool constant and leaves rng
// consumption exactly one Intn draw — transcripts recorded before the
// empty-pool guard must still replay.
func TestApplyMutationReplacePoolUnchanged(t *testing.T) {
	pool := []u256.Int{u256.New(0xCAFE)}
	stream := make([]byte, 8)
	out := ApplyMutation(stream, MutReplace, 2, 3, rand.New(rand.NewSource(1)), pool)
	want := []byte{0, 0, 0, 0xCA, 0xFE, 0, 0, 0}
	if !bytes.Equal(out, want) {
		t.Errorf("replace = %x, want %x", out, want)
	}
}

// TestRandomArgsForEmptyPool is the second Intn(0) regression: building
// arguments for a word-typed parameter with an empty value pool must yield a
// zero word, not panic.
func TestRandomArgsForEmptyPool(t *testing.T) {
	m := abi.Method{Name: "f", Inputs: []abi.Param{{Kind: abi.Uint256}}}
	out := randomArgsFor(m, rand.New(rand.NewSource(1)), nil, nil)
	if len(out) != 32 {
		t.Fatalf("args length = %d, want 32", len(out))
	}
	if !bytes.Equal(out, make([]byte, 32)) {
		t.Errorf("empty pool should leave the word zero, got %x", out)
	}
}

// TestWriteWordAtShortStream pins word writes into streams shorter than one
// ABI word: only the in-range prefix of the word is written, nothing panics.
func TestWriteWordAtShortStream(t *testing.T) {
	v := u256.FromBytes([]byte{0xAA, 0xBB}) // big-endian: ...0xAA 0xBB
	out := WriteWordAt(make([]byte, 5), 3, v)
	if len(out) != 5 {
		t.Fatalf("length changed: %d", len(out))
	}
	// Bytes32 is big-endian; a 5-byte stream receives the word's top 5 bytes,
	// which for a small constant are zero.
	if !bytes.Equal(out, make([]byte, 5)) {
		t.Errorf("short-stream write = %x, want zeros", out)
	}
	// A value with high bytes set lands visibly.
	hi := u256.FromBytes(bytes.Repeat([]byte{0x11}, 32))
	out = WriteWordAt(make([]byte, 5), 0, hi)
	if !bytes.Equal(out, bytes.Repeat([]byte{0x11}, 5)) {
		t.Errorf("short-stream write = %x, want 5x11", out)
	}
}

// TestNudgeWordAtShortStream pins the arithmetic nudge on a sub-word stream:
// the partial word is read, adjusted, and written back into the same bytes —
// including two's-complement wraparound below zero.
func TestNudgeWordAtShortStream(t *testing.T) {
	out := NudgeWordAt([]byte{0, 0, 0, 0, 1}, 2, 1)
	if want := []byte{0, 0, 0, 0, 2}; !bytes.Equal(out, want) {
		t.Errorf("nudge +1 = %x, want %x", out, want)
	}
	// 0 - 1 wraps to all-ones; the short stream keeps the low 3 bytes.
	out = NudgeWordAt([]byte{0, 0, 0}, 0, -1)
	if want := []byte{0xFF, 0xFF, 0xFF}; !bytes.Equal(out, want) {
		t.Errorf("nudge -1 = %x, want %x", out, want)
	}
	// Empty stream: no word to nudge, no panic.
	if out = NudgeWordAt(nil, 0, 5); len(out) != 0 {
		t.Errorf("empty-stream nudge grew the stream: %x", out)
	}
}

// TestMutDeleteWholeStream pins the D operator deleting past the end: the
// whole tail goes, the result may be empty, and nothing panics.
func TestMutDeleteWholeStream(t *testing.T) {
	out := ApplyMutation([]byte{1, 2, 3}, MutDelete, 64, 0, rand.New(rand.NewSource(1)), nil)
	if len(out) != 0 {
		t.Errorf("whole-stream delete left %x", out)
	}
	out = ApplyMutation([]byte{1, 2, 3}, MutDelete, 64, 2, rand.New(rand.NewSource(1)), nil)
	if want := []byte{1, 2}; !bytes.Equal(out, want) {
		t.Errorf("tail delete = %x, want %x", out, want)
	}
}

// TestComputeMaskTailInheritance pins the stride-sampling contract of the
// bounded Algorithm 2: positions between (and after) probed positions inherit
// the nearest probe's verdict, including the tail beyond the last probe.
func TestComputeMaskTailInheritance(t *testing.T) {
	stream := make([]byte, 33) // stride = ceil(33/16) = 3; last probe at 30
	mask := ComputeMask(stream, rand.New(rand.NewSource(1)), nil, func(cand []byte) bool {
		return false
	})
	if mask.Len() != len(stream) {
		t.Fatalf("mask length %d != stream length %d", mask.Len(), len(stream))
	}
	if mask.AllowedCount() != 0 {
		t.Errorf("all-false probe permitted %d pairs", mask.AllowedCount())
	}
	mask = ComputeMask(stream, rand.New(rand.NewSource(1)), nil, func(cand []byte) bool {
		return true
	})
	// Every position — probed or inherited, including the 31..32 tail past
	// the last probed position — must be permitted for every type.
	for j := 0; j < len(stream); j++ {
		for x := MutType(0); x < numMutTypes; x++ {
			if !mask.OK(x, j) {
				t.Fatalf("position %d type %v not inherited", j, x)
			}
		}
	}
}

// TestWriteWordAtMasked pins the masked word write: only byte positions that
// permit MutOverwrite receive the operand; frozen bytes keep their value.
func TestWriteWordAtMasked(t *testing.T) {
	stream := make([]byte, 32)
	mask := NewEmptyMask(32)
	mask.Allow(30, MutOverwrite)
	mask.Allow(31, MutOverwrite)
	v := u256.New(0x1122334455)
	out := WriteWordAtMasked(stream, 7, v, mask)
	w := v.Bytes32()
	want := make([]byte, 32)
	want[30], want[31] = w[30], w[31]
	if !bytes.Equal(out, want) {
		t.Errorf("masked write = %x, want %x", out, want)
	}
	// A nil mask permits everything — identical to WriteWordAt.
	if !bytes.Equal(WriteWordAtMasked(stream, 7, v, nil), WriteWordAt(stream, 7, v)) {
		t.Error("nil-mask write must equal the unmasked write")
	}
}

// TestMaskStoredCountMatchesRecount pins the stored allowed count against a
// walk of the mask, for every way a mask is built: Allow (ComputeMask, with
// repeated grants of one pair), the snapshot's seed copy, and decodeMask.
func TestMaskStoredCountMatchesRecount(t *testing.T) {
	recount := func(m *Mask) int {
		n := 0
		for _, a := range m.allowed {
			for _, ok := range a {
				if ok {
					n++
				}
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		stream := make([]byte, rng.Intn(80))
		m := ComputeMask(stream, rng, nil, func([]byte) bool { return rng.Intn(3) == 0 })
		for k := 0; k < 8; k++ {
			m.Allow(rng.Intn(len(stream)+2)-1, MutType(rng.Intn(int(numMutTypes))))
		}
		seed := &Seed{Seq: Sequence{{Func: "f"}}, masks: []*Mask{m, nil}}
		decoded, err := decodeMask(encodeMask(m))
		if err != nil {
			t.Fatal(err)
		}
		for way, got := range map[string]*Mask{"Allow": m, "seed copy": seed.snapClone().masks[0], "decodeMask": decoded} {
			if want := recount(got); got.AllowedCount() != want {
				t.Fatalf("mask %d via %s: stored count %d, recount %d", i, way, got.AllowedCount(), want)
			}
		}
	}
}
