package fuzz

import (
	"fmt"
	"math/rand"
	"strings"

	"mufuzz/internal/abi"
	"mufuzz/internal/u256"
)

// TxInput is one transaction of a fuzzed sequence. The mutable byte stream
// of a transaction is Args followed by the 32-byte Value word, so both the
// ABI arguments and msg.value evolve under mask-guided mutation.
type TxInput struct {
	// Func is the target function name (CtorName for the constructor).
	Func string
	// Args is the raw ABI argument byte stream (without the 4-byte
	// selector). Mutations may change its length.
	Args []byte
	// Value is msg.value.
	Value u256.Int
	// Sender indexes the campaign's sender pool.
	Sender int
	// Callee indexes the campaign's world members (0 = the primary contract).
	// Single-contract campaigns leave it zero everywhere.
	Callee int
	// Attacker is the encoded attacker-contract spec carried on the sequence
	// anchor (element 0) of world campaigns with attacker synthesis enabled.
	// It is mutated seed material: the executor compiles it into the attacker
	// account's bytecode before replaying the sequence. Nil everywhere else.
	// Like Args, the slice is immutable once built — mutation replaces it
	// wholesale — so element-shallow cloning stays sound.
	Attacker []byte
}

// Stream flattens the mutable bytes of the transaction: args ++ value. The
// buffer carries spare capacity so in-place insert mutations on the returned
// stream usually splice without growing.
func (t *TxInput) Stream() []byte {
	v := t.Value.Bytes32()
	out := make([]byte, 0, len(t.Args)+64)
	out = append(out, t.Args...)
	return append(out, v[:]...)
}

// SetStream splits a mutated stream back into args and value. The last 32
// bytes (or all of them, for short streams) become the value word.
func (t *TxInput) SetStream(s []byte) {
	if len(s) < 32 {
		t.Args = nil
		t.Value = u256.FromBytes(s)
		return
	}
	cut := len(s) - 32
	t.Args = append([]byte(nil), s[:cut]...)
	t.Value = u256.FromBytes(s[cut:])
}

// Clone copies the transaction. Args is shared, not copied: argument streams
// are immutable once built — every mutation path (Stream → mutate →
// SetStream) constructs a fresh stream and replaces Args wholesale, so two
// transactions sharing one Args backing array can never observe each other.
func (t *TxInput) Clone() TxInput {
	return *t
}

// Sequence is an ordered list of transactions; the constructor is always
// element zero (paper §IV-A).
type Sequence []TxInput

// Clone copies a sequence (element-shallow; see TxInput.Clone for why
// sharing Args is sound).
func (s Sequence) Clone() Sequence {
	out := make(Sequence, len(s))
	copy(out, s)
	return out
}

// Funcs returns the call order: each transaction's function name.
func (s Sequence) Funcs() []string {
	names := make([]string, len(s))
	for i, t := range s {
		names[i] = t.Func
	}
	return names
}

// String renders the call order, e.g. "ctor → invest → refund → invest".
func (s Sequence) String() string { return strings.Join(s.Funcs(), " → ") }

// Seed is one queue entry: a sequence plus the feedback recorded when it
// was executed.
type Seed struct {
	Seq Sequence
	// NewEdges is how many previously uncovered branch edges this seed
	// covered when first run.
	NewEdges int
	// HitNestedDepth is the deepest compile-time branch nesting the seed
	// reached (0 = none). Depth >= 2 marks a "nested branch" hit (§IV-B).
	HitNestedDepth int
	// PathWeight is the Algorithm 3 weight sum of the branch edges on the
	// seed's path; energy allocation is proportional to it.
	PathWeight float64
	// DistanceImproved marks seeds that reduced the global minimum branch
	// distance of some uncovered edge.
	DistanceImproved bool
	// masks caches the per-transaction mutation masks (Algorithm 2),
	// computed lazily.
	masks []*Mask
	// lastNudge records the most recent arithmetic nudge applied to this
	// seed so a distance improvement can be repeated as a greedy line
	// search (hill climbing on branch distance).
	lastNudge *nudgeInfo
	// Gen counts mutation generations from the initial corpus.
	Gen int
}

// nudgeInfo identifies a repeatable word-nudge mutation.
type nudgeInfo struct {
	txIdx int
	pos   int
	delta int64
}

// Clone copies the seed's sequence into a fresh seed (feedback reset).
func (s *Seed) Clone() *Seed {
	return &Seed{Seq: s.Seq.Clone(), Gen: s.Gen + 1}
}

// randomArgsFor builds a random argument byte stream for a method: one
// 32-byte word per input, drawn from a value pool. Address parameters are
// drawn from the campaign's account pool (senders, attacker, contract) the
// way real smart-contract fuzzers seed address arguments — a random 160-bit
// value would never collide with an account that holds state.
func randomArgsFor(m abi.Method, rng *rand.Rand, pool []u256.Int, addrPool []u256.Int) []byte {
	out := make([]byte, 0, 32*len(m.Inputs))
	for _, in := range m.Inputs {
		var w u256.Int
		switch in.Kind {
		case abi.Address:
			if len(addrPool) > 0 && rng.Intn(4) != 0 {
				w = addrPool[rng.Intn(len(addrPool))]
			} else {
				w = u256.New(uint64(rng.Intn(1024) + 1))
			}
		case abi.Bool:
			if rng.Intn(2) == 1 {
				w = u256.One
			}
		default:
			// Empty pools happen when a caller fuzzes with a bare dictionary;
			// leave the word zero instead of panicking on Intn(0). A non-empty
			// pool draws exactly as before, keeping transcripts unchanged.
			if len(pool) > 0 {
				w = pool[rng.Intn(len(pool))]
			}
		}
		b := w.Bytes32()
		out = append(out, b[:]...)
	}
	return out
}

// defaultValuePool is the base dictionary of interesting word values; the
// campaign extends it with constants harvested from the contract bytecode
// (PUSH immediates), the classic AFL-dictionary trick.
func defaultValuePool() []u256.Int {
	finney := u256.New(1_000_000_000_000_000)
	ether := u256.New(1_000_000_000_000_000_000)
	pool := []u256.Int{
		u256.Zero,
		u256.One,
		u256.New(2),
		u256.New(10),
		u256.New(100),
		u256.New(255),
		u256.New(256),
		u256.New(1000),
		u256.New(1 << 16),
		u256.Max,
		u256.Max.Rsh(1), // max signed
		finney,
		u256.New(88).Mul(finney),
		ether,
		u256.New(100).Mul(ether),
	}
	return pool
}

// String renders a short human-readable seed description.
func (s *Seed) String() string {
	return fmt.Sprintf("seed{%s gen=%d w=%.1f}", s.Seq, s.Gen, s.PathWeight)
}
