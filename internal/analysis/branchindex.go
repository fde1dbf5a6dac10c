package analysis

import (
	"mufuzz/internal/evm"
)

// BranchIndex interns the branch-edge identities of one contract: every
// JUMPI site in the CFG gets a branch number (ascending pc), and every edge
// — a (site, direction) pair — gets a compact ID. IDs let the campaign's
// hot feedback fold replace map[evm.BranchKey] hashing and per-selection
// key re-sorts with plain array walks: ID order IS the deterministic branch
// order (pc ascending, not-taken before taken), computed once per campaign.
//
// Edge ID layout: branch i covers IDs 2i (not taken) and 2i+1 (taken), so
// id^1 is the opposite direction and id ascending matches the ordering the
// pre-interning engine produced by sorting BranchKeys.
type BranchIndex struct {
	// pcs lists every JUMPI pc, ascending; the branch number is the slice
	// index.
	pcs []uint64
	// branchByPC maps a pc to its branch number via direct array indexing
	// (-1 for non-JUMPI pcs). Bytecode is small, so a code-length array
	// turns the per-event lookup into one bounds-checked load.
	branchByPC []int32
	// vulnPast[id] precomputes CFG.VulnReachablePastBranch for every edge,
	// so Algorithm 3 weight folding needs no block scan per event.
	vulnPast []bool
}

// NewBranchIndex numbers every branch edge of the CFG.
func NewBranchIndex(cfg *CFG) *BranchIndex {
	pcs := cfg.BranchPCs()
	maxPC := uint64(0)
	for _, pc := range pcs {
		if pc > maxPC {
			maxPC = pc
		}
	}
	ix := &BranchIndex{
		pcs:        pcs,
		branchByPC: make([]int32, maxPC+1),
		vulnPast:   make([]bool, 2*len(pcs)),
	}
	for i := range ix.branchByPC {
		ix.branchByPC[i] = -1
	}
	for i, pc := range pcs {
		ix.branchByPC[pc] = int32(i)
		ix.vulnPast[2*i] = cfg.VulnReachablePastBranch(pc, false)
		ix.vulnPast[2*i+1] = cfg.VulnReachablePastBranch(pc, true)
	}
	return ix
}

// NumBranches returns the number of JUMPI sites.
func (ix *BranchIndex) NumBranches() int { return len(ix.pcs) }

// NumEdges returns the number of branch edges (2 per site) — the campaign's
// coverage denominator.
func (ix *BranchIndex) NumEdges() int { return 2 * len(ix.pcs) }

// EdgeID returns the compact ID of the (pc, taken) edge, or false when pc is
// not a known JUMPI site.
func (ix *BranchIndex) EdgeID(pc uint64, taken bool) (int32, bool) {
	if pc >= uint64(len(ix.branchByPC)) {
		return -1, false
	}
	b := ix.branchByPC[pc]
	if b < 0 {
		return -1, false
	}
	id := 2 * b
	if taken {
		id++
	}
	return id, true
}

// Edge returns the (pc, taken) identity of an edge ID.
func (ix *BranchIndex) Edge(id int32) (pc uint64, taken bool) {
	return ix.pcs[id/2], id&1 == 1
}

// VulnPast reports whether a vulnerable instruction is reachable past the
// edge (precomputed CFG.VulnReachablePastBranch).
func (ix *BranchIndex) VulnPast(id int32) bool { return ix.vulnPast[id] }

// EdgeWeights is the indexed replacement for BranchWeights: Algorithm 3
// weights in a dense slice keyed by edge ID, with the running total and
// nonzero count maintained incrementally so energy assignment is O(1)
// instead of a map sweep.
type EdgeWeights struct {
	ix *BranchIndex
	w  []float64
	// nonzero counts edges with an assigned weight; total is their sum.
	// Weights are sums of small integers, so total is exact and matches the
	// map engine's re-summation bit for bit regardless of fold order.
	nonzero int
	total   float64
	// stamp/stampGen implement an O(1)-reset visited set for PathWeight's
	// per-trace dedup, replacing a per-call map allocation.
	stamp    []uint64
	stampGen uint64
}

// NewEdgeWeights returns zeroed weights over the index's edge space.
func NewEdgeWeights(ix *BranchIndex) *EdgeWeights {
	return &EdgeWeights{
		ix:    ix,
		w:     make([]float64, ix.NumEdges()),
		stamp: make([]uint64, ix.NumEdges()),
	}
}

// MergeTrace folds Algorithm 3 over one execution trace directly into the
// weights, keeping the maximum per edge — equivalent to
// Merge(WeightTrace(branches, cfg)) without the intermediate map.
func (ew *EdgeWeights) MergeTrace(branches []evm.BranchEvent) {
	nestedScore := 0
	for _, br := range branches {
		if nestedScore < maxNestedScore {
			nestedScore++
		}
		weight := float64(nestedScore) // w1 = WEIGHT_ASSIGN(nested_score)
		id := br.Edge
		if ew.vulnPastID(id) {
			weight += vulnBonus // w2
		}
		if weight > ew.w[id] {
			if ew.w[id] == 0 {
				ew.nonzero++
			}
			ew.total += weight - ew.w[id]
			ew.w[id] = weight
		}
	}
}

func (ew *EdgeWeights) vulnPastID(id int32) bool { return ew.ix.vulnPast[id] }

// Weight returns the assigned weight of one edge (0 = unassigned) — the
// serializable per-edge state a campaign snapshot captures.
func (ew *EdgeWeights) Weight(id int32) float64 { return ew.w[id] }

// SetWeight overwrites one edge's weight, maintaining the incremental total
// and nonzero count — the snapshot-restore path. Weights are integer-valued
// sums well below 2^53, so the restored total is bit-identical to the one
// the original campaign accumulated increment by increment, regardless of
// restore order.
func (ew *EdgeWeights) SetWeight(id int32, w float64) {
	old := ew.w[id]
	if old == w {
		return
	}
	if old == 0 && w != 0 {
		ew.nonzero++
	}
	if old != 0 && w == 0 {
		ew.nonzero--
	}
	ew.total += w - old
	ew.w[id] = w
}

// Count returns the number of edges with an assigned weight (the map
// engine's len(weights)).
func (ew *EdgeWeights) Count() int { return ew.nonzero }

// Total returns the sum of all assigned weights.
func (ew *EdgeWeights) Total() float64 { return ew.total }

// PathWeight sums the weights of the distinct edges exercised by a trace —
// the quantity energy allocation is proportional to. Allocation-free: the
// dedup set is a generation-stamped array. Not safe for concurrent use (the
// campaign coordinator owns it).
func (ew *EdgeWeights) PathWeight(branches []evm.BranchEvent) float64 {
	ew.stampGen++
	total := 0.0
	for _, br := range branches {
		id := br.Edge
		if ew.stamp[id] == ew.stampGen {
			continue
		}
		ew.stamp[id] = ew.stampGen
		total += ew.w[id]
	}
	return total
}

// PathWeightTx is PathWeight over per-transaction event batches, deduping
// across the whole sequence without materializing a flattened copy.
func (ew *EdgeWeights) PathWeightTx(branchesByTx [][]evm.BranchEvent) float64 {
	ew.stampGen++
	total := 0.0
	for _, branches := range branchesByTx {
		for _, br := range branches {
			id := br.Edge
			if ew.stamp[id] == ew.stampGen {
				continue
			}
			ew.stamp[id] = ew.stampGen
			total += ew.w[id]
		}
	}
	return total
}
