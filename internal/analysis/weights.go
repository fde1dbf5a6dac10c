package analysis

import (
	"mufuzz/internal/evm"
)

// Weight parameters for Algorithm 3 (BRANCH_WEIGHTED). The absolute scale is
// arbitrary; the fuzzer normalizes when converting weights to energy.
const (
	// maxNestedScore caps the path-position score so loops do not dominate.
	maxNestedScore = 16
	// vulnBonus is the additional weight for a branch past which a
	// vulnerable instruction is reachable (w2 in the paper).
	vulnBonus = 8.0
)

// BranchWeights maps branch edges to fuzzing weights. Higher weight means
// the dynamic energy adjuster allocates more mutation budget to seeds whose
// paths cross the edge (paper §IV-C).
type BranchWeights map[evm.BranchKey]float64

// Merge folds o into w keeping the maximum weight per edge.
func (w BranchWeights) Merge(o BranchWeights) {
	for k, v := range o {
		if v > w[k] {
			w[k] = v
		}
	}
}

// WeightTrace implements Algorithm 3 over one pre-fuzz execution trace: walk
// the exercised path's split points in order, increment nested_score at each
// branch instruction (w1), and add the vulnerable-instruction bonus (w2)
// when the prefix analysis proves a vulnerable instruction reachable past
// the branch. Each event's edge resolves to its (pc, direction) through ix.
// It is the map-keyed reference of EdgeWeights.MergeTrace.
func WeightTrace(branches []evm.BranchEvent, ix *BranchIndex, cfg *CFG) BranchWeights {
	w := make(BranchWeights, len(branches))
	nestedScore := 0
	for _, br := range branches {
		if nestedScore < maxNestedScore {
			nestedScore++
		}
		weight := float64(nestedScore) // w1 = WEIGHT_ASSIGN(nested_score)
		key := edgeKey(ix, br.Edge)
		if cfg.VulnReachablePastBranch(key.PC, key.Taken) {
			weight += vulnBonus // w2
		}
		if weight > w[key] {
			w[key] = weight
		}
	}
	return w
}

// PathWeight sums the weights of the branch edges exercised by a trace —
// the quantity energy allocation is proportional to. It is the map-keyed
// reference of EdgeWeights.PathWeight.
func PathWeight(branches []evm.BranchEvent, ix *BranchIndex, w BranchWeights) float64 {
	total := 0.0
	seen := make(map[evm.BranchKey]bool, len(branches))
	for _, br := range branches {
		k := edgeKey(ix, br.Edge)
		if seen[k] {
			continue
		}
		seen[k] = true
		total += w[k]
	}
	return total
}

// edgeKey resolves an edge ID to its (pc, direction) key.
func edgeKey(ix *BranchIndex, id int32) evm.BranchKey {
	pc, taken := ix.Edge(id)
	return evm.BranchKey{PC: pc, Taken: taken}
}
