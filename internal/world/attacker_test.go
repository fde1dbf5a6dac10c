package world

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"mufuzz/internal/abi"
	"mufuzz/internal/u256"
)

func testMethods() []abi.Method {
	return []abi.Method{
		{Name: "deposit", Payable: true},
		{Name: "withdraw"},
		{Name: "seed", Payable: true},
	}
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []AttackerSpec{
		{Depth: 1},
		{Selector: [4]byte{0xde, 0xad, 0xbe, 0xef}, Depth: 3, Revert: true},
		{Selector: [4]byte{1, 2, 3, 4}, Depth: 2, Args: []u256.Int{u256.One, u256.New(77)}},
	}
	for _, s := range specs {
		enc := EncodeSpec(s)
		got, ok := DecodeSpec(enc)
		if !ok {
			t.Fatalf("decode failed for %+v", s)
		}
		if !bytes.Equal(EncodeSpec(got), enc) {
			t.Fatalf("encoding not canonical: % x vs % x", EncodeSpec(got), enc)
		}
		if got.Depth != s.Depth || got.Revert != s.Revert || got.Selector != s.Selector || len(got.Args) != len(s.Args) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, s)
		}
	}
}

// FuzzDecodeAttackerSpec feeds arbitrary bytes to the attacker-spec
// decoder, seeded with encoded specs. Every input either fails, or decodes
// to a spec whose encoding is the input and decodes to the same spec.
func FuzzDecodeAttackerSpec(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(EncodeSpec(AttackerSpec{Depth: 1}))
	f.Add(EncodeSpec(AttackerSpec{Selector: [4]byte{0xde, 0xad, 0xbe, 0xef}, Depth: 3, Revert: true}))
	f.Add(EncodeSpec(AttackerSpec{Selector: [4]byte{1, 2, 3, 4}, Depth: 2, Args: []u256.Int{u256.One, u256.New(77), u256.Max}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ok := DecodeSpec(data)
		if !ok {
			return
		}
		enc := EncodeSpec(s)
		again, ok := DecodeSpec(enc)
		if !ok || !reflect.DeepEqual(again, s) {
			t.Fatalf("spec %+v re-encodes to % x, which decodes to %+v (%v)", s, enc, again, ok)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("decoded % x, encoded % x", data, enc)
		}
	})
}

func TestSpecDecodeRejects(t *testing.T) {
	bad := [][]byte{
		nil,
		{},
		{2, 0, 0, 0, 0, 1, 0, 0}, // wrong version
		{1, 0, 0, 0, 0, 0, 0, 0}, // depth 0
		{1, 0, 0, 0, 0, byte(MaxDepth + 1), 0, 0}, // depth over cap
		{1, 0, 0, 0, 0, 1, 2, 0},                  // unknown flag bit
		{1, 0, 0, 0, 0, 1, 0, byte(MaxArgs + 1)},  // arg count over cap
		{1, 0, 0, 0, 0, 1, 0, 1},                  // truncated args
		EncodeSpec(AttackerSpec{Depth: 1})[:7],    // truncated header
	}
	for _, enc := range bad {
		if _, ok := DecodeSpec(enc); ok {
			t.Errorf("decode accepted invalid spec % x", enc)
		}
		if code := CompileSpec(enc); code != nil {
			t.Errorf("compile produced code for invalid spec % x", enc)
		}
	}
}

func TestCompileDeterministic(t *testing.T) {
	enc := EncodeSpec(AttackerSpec{Selector: [4]byte{9, 9, 9, 9}, Depth: 2, Args: []u256.Int{u256.One}})
	a, b := CompileSpec(enc), CompileSpec(enc)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("compile not deterministic or empty: %d vs %d bytes", len(a), len(b))
	}
}

// TestModelMutationsStayValid drives the model the way the campaign does:
// every mutation chain must yield specs that decode, compile, and stay
// within bounds (the checkpoint cache hashes the raw bytes — an invalid
// spec would silently demote the attacker to an EOA mid-campaign).
func TestModelMutationsStayValid(t *testing.T) {
	m := NewModel(testMethods())
	rng := rand.New(rand.NewSource(7))
	enc := m.Default()
	for i := 0; i < 500; i++ {
		enc = m.Mutate(enc, rng)
		s, ok := DecodeSpec(enc)
		if !ok {
			t.Fatalf("mutation %d produced undecodable spec % x", i, enc)
		}
		if s.Depth < 1 || s.Depth > MaxDepth || len(s.Args) > MaxArgs {
			t.Fatalf("mutation %d out of bounds: %+v", i, s)
		}
		if CompileSpec(enc) == nil {
			t.Fatalf("mutation %d does not compile: % x", i, enc)
		}
	}
}

// TestMutateDoesNotAliasInput pins the AttackerModel contract: Mutate must
// not modify its input (specs are shared across cloned sequences).
func TestMutateDoesNotAliasInput(t *testing.T) {
	m := NewModel(testMethods())
	rng := rand.New(rand.NewSource(3))
	enc := m.Default()
	orig := append([]byte(nil), enc...)
	for i := 0; i < 200; i++ {
		m.Mutate(enc, rng)
		if !bytes.Equal(enc, orig) {
			t.Fatalf("Mutate modified its input at iteration %d", i)
		}
	}
}
