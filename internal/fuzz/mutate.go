package fuzz

import (
	"math/rand"

	"mufuzz/internal/u256"
)

// MutType is one of the four mutation operators of paper §IV-B.
type MutType int

// Mutation operators: a mutation is a tuple m = (x, n) with x one of these
// types and n the number of affected bytes.
const (
	MutOverwrite MutType = iota // O: overwrite n bytes at position i
	MutInsert                   // I: insert n bytes at position i
	MutReplace                  // R: replace n bytes with interesting values
	MutDelete                   // D: delete n bytes at position i
	numMutTypes
)

func (m MutType) String() string {
	switch m {
	case MutOverwrite:
		return "O"
	case MutInsert:
		return "I"
	case MutReplace:
		return "R"
	case MutDelete:
		return "D"
	}
	return "?"
}

// Mask records, per byte position, which mutation types preserve the seed's
// target property (Algorithm 2). A nil Mask permits everything.
type Mask struct {
	allowed [][numMutTypes]bool
	// count is the number of permitted (position, type) pairs. Every builder
	// keeps it (Allow, the snapshot seed copy, decodeMask), so AllowedCount
	// never walks the mask.
	count int
}

// NewEmptyMask returns a mask of the given length permitting nothing
// (INIT_EMPTY_MASK in Algorithm 2).
func NewEmptyMask(n int) *Mask {
	return &Mask{allowed: make([][numMutTypes]bool, n)}
}

// Allow marks mutation type x permitted at position i.
func (m *Mask) Allow(i int, x MutType) {
	if i >= 0 && i < len(m.allowed) && !m.allowed[i][x] {
		m.allowed[i][x] = true
		m.count++
	}
}

// OK implements OK_TO_MUTATE: whether applying x at position i is permitted.
// Positions beyond the mask (inserted later) are permitted.
func (m *Mask) OK(x MutType, i int) bool {
	if m == nil {
		return true
	}
	if i < 0 {
		return false
	}
	if i >= len(m.allowed) {
		return true
	}
	return m.allowed[i][x]
}

// AllowedCount returns how many (position, type) pairs are permitted.
func (m *Mask) AllowedCount() int { return m.count }

// Len returns the mask length.
func (m *Mask) Len() int { return len(m.allowed) }

// fillBytes fills p with pseudo-random bytes drawn through rng.Int63, seven
// bytes per draw. Unlike rand.Rand.Read it leaves no buffered state inside
// the Rand, so a Rand used only through fillBytes and the arithmetic methods
// is fully described by its source — the property campaign snapshots rely on
// (see countedSource).
func fillBytes(rng *rand.Rand, p []byte) {
	for i := 0; i < len(p); i += 7 {
		v := rng.Int63()
		for j := 0; j < 7 && i+j < len(p); j++ {
			p[i+j] = byte(v >> uint(8*j))
		}
	}
}

// ApplyMutation applies mutation m=(x,n) to the stream at position i and
// returns the mutated copy (MUTATE(t, m, i) in the paper). pool supplies
// interesting values for the R operator. The input stream is not modified.
func ApplyMutation(stream []byte, x MutType, n, i int, rng *rand.Rand, pool []u256.Int) []byte {
	return applyMutation(append([]byte(nil), stream...), x, n, i, rng, pool)
}

// applyMutation is the in-place core of ApplyMutation: it takes ownership of
// out (the campaign hot path hands it a dead scratch stream, skipping the
// defensive copy) and consumes rng exactly the way the copying wrapper always
// has, so transcripts are unaffected by which entry point ran.
func applyMutation(out []byte, x MutType, n, i int, rng *rand.Rand, pool []u256.Int) []byte {
	if n < 1 {
		n = 1
	}
	if i < 0 {
		i = 0
	}
	switch x {
	case MutOverwrite:
		for k := 0; k < n && i+k < len(out); k++ {
			out[i+k] = byte(rng.Intn(256))
		}
	case MutInsert:
		if i > len(out) {
			i = len(out)
		}
		// Open an n-byte gap at i with one (at most) growth and fill it with
		// the same fillBytes draw the two-append splice used to produce.
		oldLen := len(out)
		out = append(out, make([]byte, n)...)
		copy(out[i+n:], out[i:oldLen])
		fillBytes(rng, out[i:i+n])
	case MutReplace:
		if len(pool) == 0 {
			// No interesting values to draw from (targets may supply an empty
			// dictionary): degrade to MutOverwrite instead of panicking on
			// Intn(0). The non-empty path below is untouched, so rng
			// consumption — and therefore every transcript — is unchanged
			// whenever a pool exists.
			for k := 0; k < n && i+k < len(out); k++ {
				out[i+k] = byte(rng.Intn(256))
			}
			return out
		}
		w := pool[rng.Intn(len(pool))].Bytes32()
		if n > 32 {
			n = 32
		}
		// replace with the least-significant end of the constant so small
		// values land in the low bytes of an ABI word
		for k := 0; k < n && i+k < len(out); k++ {
			out[i+k] = w[32-n+k]
		}
	case MutDelete:
		if i < len(out) {
			end := i + n
			if end > len(out) {
				end = len(out)
			}
			out = append(out[:i], out[end:]...)
		}
	}
	return out
}

// WriteWordAt overwrites the 32-byte word starting at the aligned position
// containing i with the given value — the distance-directed mutation that
// copies a comparison operand into an input word. The input is not modified.
func WriteWordAt(stream []byte, i int, v u256.Int) []byte {
	return writeWordAt(append([]byte(nil), stream...), i, v)
}

// writeWordAt is the in-place core of WriteWordAt (hot path; takes ownership).
func writeWordAt(out []byte, i int, v u256.Int) []byte {
	start := (i / 32) * 32
	w := v.Bytes32()
	for k := 0; k < 32 && start+k < len(out); k++ {
		out[start+k] = w[k]
	}
	return out
}

// WriteWordAtMasked is WriteWordAt restricted by a mutation mask: only bytes
// of the word whose position permits MutOverwrite are written. Comparison-
// operand splicing uses it to plant an observed operand without disturbing
// the frozen bytes that keep the seed on its target branch. A nil mask
// permits every position. The input is not modified.
func WriteWordAtMasked(stream []byte, i int, v u256.Int, mask *Mask) []byte {
	return writeWordAtMasked(append([]byte(nil), stream...), i, v, mask)
}

// writeWordAtMasked is the in-place core of WriteWordAtMasked (hot path;
// takes ownership).
func writeWordAtMasked(out []byte, i int, v u256.Int, mask *Mask) []byte {
	start := (i / 32) * 32
	w := v.Bytes32()
	for k := 0; k < 32 && start+k < len(out); k++ {
		if mask.OK(MutOverwrite, start+k) {
			out[start+k] = w[k]
		}
	}
	return out
}

// NudgeWordAt adds a small signed delta to the word at the aligned position
// containing i — the arithmetic descent step of distance-guided mutation. The
// input is not modified.
func NudgeWordAt(stream []byte, i int, delta int64) []byte {
	return nudgeWordAt(append([]byte(nil), stream...), i, delta)
}

// nudgeWordAt is the in-place core of NudgeWordAt (hot path; takes ownership).
func nudgeWordAt(out []byte, i int, delta int64) []byte {
	start := (i / 32) * 32
	end := start + 32
	if end > len(out) {
		end = len(out)
	}
	if start >= end {
		return out
	}
	w := u256.FromBytes(out[start:end])
	if delta >= 0 {
		w = w.Add(u256.New(uint64(delta)))
	} else {
		w = w.Sub(u256.New(uint64(-delta)))
	}
	b := w.Bytes32()
	copy(out[start:end], b[32-(end-start):])
	return out
}

// --- Algorithm 2: COMPUTE_MASK ---

// maskPositionBudget caps how many byte positions the mask scan probes (each
// position costs 4 executions). Probed positions are spread evenly across the
// stream; unprobed positions inherit the verdict of the nearest probed one.
const maskPositionBudget = 16

// ComputeMask implements Algorithm 2 for one transaction's byte stream.
// probe runs the candidate stream and reports whether the mutated seed still
// hits the target nested branch or still decreases the distance to an
// uncovered branch. Positions where a mutation type preserves the property
// are marked permitted for that type.
//
// Unlike the paper's unbounded scan, positions are stride-sampled so one
// mask costs at most 4*maskPositionBudget executions; in-between positions
// inherit the nearest probe's verdict. This keeps Algorithm 2 affordable
// under small iteration budgets while preserving its byte-freezing effect.
func ComputeMask(stream []byte, rng *rand.Rand, pool []u256.Int, probe func([]byte) bool) *Mask {
	mask := NewEmptyMask(len(stream))
	if len(stream) == 0 {
		return mask
	}
	n := rng.Intn(len(stream)) + 1 // m = (x, n): n drawn once, as in the paper
	if n > 32 {
		n = 32
	}
	stride := 1
	if len(stream) > maskPositionBudget {
		stride = (len(stream) + maskPositionBudget - 1) / maskPositionBudget
	}
	// One scratch buffer serves every probe: candidates only need to live
	// until probe returns (probes that retain bytes copy them via SetStream).
	var buf []byte
	for i := 0; i < len(stream); i += stride {
		var verdict [numMutTypes]bool
		for _, x := range []MutType{MutOverwrite, MutInsert, MutReplace, MutDelete} {
			buf = applyMutation(append(buf[:0], stream...), x, n, i, rng, pool)
			if probe(buf) {
				verdict[x] = true
			}
		}
		// the probed position and its stride neighborhood share the verdict
		for j := i; j < i+stride && j < len(stream); j++ {
			for x := MutType(0); x < numMutTypes; x++ {
				if verdict[x] {
					mask.Allow(j, x)
				}
			}
		}
	}
	return mask
}

// --- Sequence-level mutations (paper §IV-A) ---

// seqMutator applies strategy-dependent sequence mutations.
type seqMutator struct {
	strategy Strategy
	// repeatable are functions with a RAW dependency on a branch-read state
	// variable (from the dataflow analysis).
	repeatable []string
	// callable are all public function names (non-ctor).
	callable []string
}

// mutateSequence returns a mutated copy of the sequence. Element 0 (the
// constructor) is never moved or removed.
func (m *seqMutator) mutateSequence(seq Sequence, rng *rand.Rand, newTx func(fn string) TxInput, maxLen int) Sequence {
	out := seq.Clone()
	if len(out) <= 1 {
		if len(m.callable) > 0 {
			out = append(out, newTx(m.callable[rng.Intn(len(m.callable))]))
		}
		return out
	}

	type mutation int
	const (
		repeatRAW mutation = iota
		prolong
		shuffle
		replace
		resample
		dropTx
	)
	var choices []mutation
	if m.strategy.RAWRepetition && len(m.repeatable) > 0 {
		// sequence-aware mutation gets the highest share
		choices = append(choices, repeatRAW, repeatRAW, repeatRAW)
	}
	if m.strategy.Prolongation && len(out) < maxLen {
		// IR-Fuzz-style prolongation is the only other way a function can
		// appear twice; fuzzers without it build permutations, as the paper
		// observes for sFuzz/ConFuzzius/Smartian (§III-B).
		choices = append(choices, prolong)
	}
	if !m.strategy.DataflowSequences {
		// random-order fuzzers shuffle aggressively
		choices = append(choices, shuffle, shuffle)
	}
	choices = append(choices, replace, resample)
	if len(out) > 2 {
		choices = append(choices, dropTx)
	}

	switch choices[rng.Intn(len(choices))] {
	case repeatRAW:
		// enforce a RAW function to run consecutively: duplicate one of its
		// occurrences in place (invest → invest), or insert it if absent
		fn := m.repeatable[rng.Intn(len(m.repeatable))]
		idx := -1
		for i := 1; i < len(out); i++ {
			if out[i].Func == fn {
				idx = i
				break
			}
		}
		if idx < 0 {
			// not present: insert twice back-to-back after the ctor
			t1, t2 := newTx(fn), newTx(fn)
			rest := append(Sequence{t1, t2}, out[1:]...)
			out = append(out[:1], rest...)
		} else if len(out) < maxLen+2 {
			// single-growth splice: open one slot at idx+1 and drop the dup in
			dup := out[idx].Clone()
			oldLen := len(out)
			out = append(out, TxInput{})
			copy(out[idx+2:], out[idx+1:oldLen])
			out[idx+1] = dup
		}
	case prolong:
		out = append(out, newTx(m.callable[rng.Intn(len(m.callable))]))
	case shuffle:
		if len(out) > 2 {
			i := rng.Intn(len(out)-1) + 1
			j := rng.Intn(len(out)-1) + 1
			out[i], out[j] = out[j], out[i]
		}
	case replace:
		// Replace one transaction with a function NOT already present, so
		// plain replacement never duplicates a call — duplication is the
		// privilege of RAW repetition and prolongation.
		present := map[string]bool{}
		for _, t := range out {
			present[t.Func] = true
		}
		var missing []string
		for _, fn := range m.callable {
			if !present[fn] {
				missing = append(missing, fn)
			}
		}
		if len(missing) > 0 {
			i := rng.Intn(len(out)-1) + 1
			out[i] = newTx(missing[rng.Intn(len(missing))])
		} else if len(out) > 1 {
			// everything is present: fall back to resampling inputs
			i := rng.Intn(len(out)-1) + 1
			out[i] = newTx(out[i].Func)
		}
	case resample:
		// Fresh random inputs for one existing transaction.
		i := rng.Intn(len(out)-1) + 1
		out[i] = newTx(out[i].Func)
	case dropTx:
		i := rng.Intn(len(out)-1) + 1
		out = append(out[:i], out[i+1:]...)
	}
	return out
}
