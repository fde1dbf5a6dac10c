package fuzz

import (
	"mufuzz/internal/evm"
	"mufuzz/internal/minisol"
	"mufuzz/internal/oracle"
	"mufuzz/internal/state"
)

// ReplayResult is what one replay of a sequence observed.
type ReplayResult struct {
	BugClasses map[oracle.BugClass]bool
	Edges      map[evm.BranchKey]bool
}

// Replay executes a sequence against a fresh world (same identities the
// campaign uses) and reports the bug classes triggered and edges covered.
// It lets a finding be re-confirmed independently of the campaign, and is
// the predicate engine for Minimize. Replays run on a detached executor so
// they neither consume nor pollute the campaign's prefix checkpoints, and a
// fresh detector so campaign findings don't leak into the replay verdict.
// The returned edge set is keyed by BranchKey and consumed only as a set,
// so minimization is independent of the campaign's interned edge-ID order
// (which itself matches the old sorted-BranchKey order; see BranchIndex).
func (c *Campaign) Replay(seq Sequence) *ReplayResult {
	x := c.exec.detached()
	res := x.run(seq, nil)

	det := c.newDetector()
	for _, rep := range res.reports {
		r := rep.report
		if c.attackerModel != nil {
			// Witnessed reentrancy verdicts pass the same divergence bar the
			// live campaign applies, so minimization cannot shrink a repro
			// below the point where the schedule stops changing the outcome.
			r, _ = c.confirmReport(seq[:rep.txIdx+1], r)
		}
		det.Absorb(r)
	}
	out := &ReplayResult{
		BugClasses: det.Classes(),
		Edges:      make(map[evm.BranchKey]bool),
	}
	for _, txBranches := range res.branchesByTx {
		for _, br := range txBranches {
			pc, taken := c.branchIx.Edge(br.Edge)
			out.Edges[evm.BranchKey{Addr: c.contractAddr, PC: pc, Taken: taken}] = true
		}
	}
	return out
}

// ReplayCoverageEdges replays a sequence on a detached engine and returns
// the covered branch edges as (pc, taken 0/1) pairs — the canonical input of
// a corpus store's coverage fingerprint, shared by every seed exporter so
// the CLI and the campaign service content-address seeds identically.
func (c *Campaign) ReplayCoverageEdges(seq Sequence) [][2]uint64 {
	rr := c.Replay(seq)
	edges := make([][2]uint64, 0, len(rr.Edges))
	for k := range rr.Edges {
		taken := uint64(0)
		if k.Taken {
			taken = 1
		}
		edges = append(edges, [2]uint64{k.PC, taken})
	}
	return edges
}

// Minimize shrinks a sequence while the predicate keeps holding, using
// ddmin-style chunk removal followed by single-transaction removal. The
// constructor (element 0) is never removed. The returned sequence satisfies
// pred; if the input does not, it is returned unchanged.
func Minimize(seq Sequence, pred func(Sequence) bool) Sequence {
	if len(seq) <= 1 || !pred(seq) {
		return seq
	}
	cur := seq.Clone()

	// Chunked removal: try dropping halves, quarters, ... of the tail.
	for chunk := (len(cur) - 1) / 2; chunk >= 1; chunk /= 2 {
		for start := 1; start+chunk <= len(cur); {
			cand := append(cur[:start:start], cur[start+chunk:]...)
			if pred(cand) {
				cur = cand
				// retry same start with the shorter sequence
			} else {
				start++
			}
		}
	}

	// Final single-pass sweep.
	for i := 1; i < len(cur); {
		cand := append(cur[:i:i], cur[i+1:]...)
		if pred(cand) {
			cur = cand
		} else {
			i++
		}
	}
	return cur
}

// MinimizeForBug shrinks a sequence to the fewest transactions that still
// trigger the given bug class when replayed.
func (c *Campaign) MinimizeForBug(seq Sequence, class oracle.BugClass) Sequence {
	return Minimize(seq, func(s Sequence) bool {
		return c.Replay(s).BugClasses[class]
	})
}

// MinimizeForEdge shrinks a sequence to the fewest transactions that still
// cover the given branch edge.
func (c *Campaign) MinimizeForEdge(seq Sequence, key evm.BranchKey) Sequence {
	return Minimize(seq, func(s Sequence) bool {
		return c.Replay(s).Edges[key]
	})
}

// WithdrawDeepEdge is a helper returning the coverage key of the not-taken
// (condition-true) side of the first `if` branch in the named function —
// the kind of deep edge the motivating example reasons about.
func WithdrawDeepEdge(comp *minisol.Compiled, contractAddr state.Address, fn string) (evm.BranchKey, bool) {
	for _, s := range comp.Branches {
		if s.Func == fn && s.Kind == minisol.BranchIf {
			return evm.BranchKey{Addr: contractAddr, PC: s.PC, Taken: false}, true
		}
	}
	return evm.BranchKey{}, false
}

// ContractAddr exposes the campaign's contract address (used with
// MinimizeForEdge and external trace inspection).
func (c *Campaign) ContractAddr() state.Address {
	return c.contractAddr
}
