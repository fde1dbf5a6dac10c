package analysis

import (
	"math"
	"math/rand"
	"testing"

	"mufuzz/internal/evm"
)

func TestBranchIndexNumbersEveryCFGEdge(t *testing.T) {
	comp := mustCompile(t, crowdsaleSrc)
	cfg := BuildCFG(comp.Code)
	ix := NewBranchIndex(cfg)

	pcs := cfg.BranchPCs()
	if ix.NumBranches() != len(pcs) {
		t.Fatalf("NumBranches = %d, want %d", ix.NumBranches(), len(pcs))
	}
	if ix.NumEdges() != 2*len(pcs) {
		t.Fatalf("NumEdges = %d, want %d", ix.NumEdges(), 2*len(pcs))
	}
	// IDs follow the deterministic branch order the engine used to derive by
	// sorting BranchKeys: pc ascending, not-taken before taken.
	next := int32(0)
	for _, pc := range pcs {
		for _, taken := range []bool{false, true} {
			id, ok := ix.EdgeID(pc, taken)
			if !ok {
				t.Fatalf("edge (%d,%v) not indexed", pc, taken)
			}
			if id != next {
				t.Fatalf("edge (%d,%v) = id %d, want %d (order mismatch)", pc, taken, id, next)
			}
			gotPC, gotTaken := ix.Edge(id)
			if gotPC != pc || gotTaken != taken {
				t.Fatalf("Edge(%d) = (%d,%v), want (%d,%v)", id, gotPC, gotTaken, pc, taken)
			}
			// id^1 is the opposite direction
			oppID, _ := ix.EdgeID(pc, !taken)
			if oppID != id^1 {
				t.Fatalf("opposite of %d is %d, want %d", id, oppID, id^1)
			}
			next++
		}
	}
	// Non-branch pcs are not indexed.
	if _, ok := ix.EdgeID(pcs[0]+1, false); ok {
		t.Error("non-JUMPI pc must not resolve")
	}
	if _, ok := ix.EdgeID(1<<32, false); ok {
		t.Error("out-of-range pc must not resolve")
	}
}

func TestBranchIndexVulnPastMatchesCFG(t *testing.T) {
	comp := mustCompile(t, crowdsaleSrc)
	cfg := BuildCFG(comp.Code)
	ix := NewBranchIndex(cfg)
	for _, pc := range cfg.BranchPCs() {
		for _, taken := range []bool{false, true} {
			id, _ := ix.EdgeID(pc, taken)
			if got, want := ix.VulnPast(id), cfg.VulnReachablePastBranch(pc, taken); got != want {
				t.Errorf("VulnPast(%d,%v) = %v, want %v", pc, taken, got, want)
			}
		}
	}
}

// TestEdgeWeightsMatchMapImplementation drives the indexed EdgeWeights and
// the reference map-based WeightTrace/Merge/PathWeight through identical
// random traces and asserts every observable — per-edge weights, count,
// total, path weights — stays bit-identical. The indexed fold is the hot
// path; the map implementation is its executable specification.
func TestEdgeWeightsMatchMapImplementation(t *testing.T) {
	comp := mustCompile(t, crowdsaleSrc)
	cfg := BuildCFG(comp.Code)
	ix := NewBranchIndex(cfg)
	rng := rand.New(rand.NewSource(11))
	ew := NewEdgeWeights(ix)
	ref := make(BranchWeights)

	for trace := 0; trace < 50; trace++ {
		n := 1 + rng.Intn(12)
		branches := make([]evm.BranchEvent, n)
		for i := range branches {
			branches[i] = evm.BranchEvent{Edge: int32(rng.Intn(ix.NumEdges()))}
		}
		ew.MergeTrace(branches)
		ref.Merge(WeightTrace(branches, ix, cfg))

		if got, want := ew.PathWeight(branches), PathWeight(branches, ix, ref); got != want {
			t.Fatalf("trace %d: PathWeight %v != reference %v", trace, got, want)
		}
		if got, want := ew.PathWeightTx([][]evm.BranchEvent{branches[:n/2], branches[n/2:]}), PathWeight(branches, ix, ref); got != want {
			t.Fatalf("trace %d: PathWeightTx %v != reference %v", trace, got, want)
		}
	}

	if ew.Count() != len(ref) {
		t.Fatalf("Count = %d, want %d", ew.Count(), len(ref))
	}
	var total float64
	for _, w := range ref {
		total += w
	}
	if math.Abs(ew.Total()-total) != 0 {
		t.Fatalf("Total = %v, want %v", ew.Total(), total)
	}
	for k, w := range ref {
		id, _ := ix.EdgeID(k.PC, k.Taken)
		if ew.w[id] != w {
			t.Fatalf("edge %v weight %v != reference %v", k, ew.w[id], w)
		}
	}
}
