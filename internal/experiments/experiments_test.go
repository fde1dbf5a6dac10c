package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mufuzz/internal/corpus"
	"mufuzz/internal/oracle"
)

const (
	testIters = 800
	testSeed  = 7
)

func TestCoverageOverTimeShape(t *testing.T) {
	gens := corpus.GenerateSmall(testSeed, 6)
	curves, err := CoverageOverTime(gens, StandardFuzzers(), testIters, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		if len(c.Points) == 0 {
			t.Fatalf("%s: empty curve", c.Fuzzer)
		}
		// monotone non-decreasing over budget
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].Coverage+1e-9 < c.Points[i-1].Coverage {
				t.Errorf("%s: coverage decreased along budget", c.Fuzzer)
			}
		}
		if c.Final <= 0 || c.Final > 1 {
			t.Errorf("%s: final coverage %f out of range", c.Fuzzer, c.Final)
		}
	}
	var buf bytes.Buffer
	PrintCoverageCurves(&buf, "test", curves)
	if !strings.Contains(buf.String(), "MuFuzz") {
		t.Error("printer lost fuzzer names")
	}
}

func TestOverallCoverageOrdering(t *testing.T) {
	gens := corpus.GenerateSmall(testSeed+1, 8)
	bars, err := OverallCoverage(gens, StandardFuzzers(), testIters, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, b := range bars {
		byName[b.Fuzzer] = b.Coverage
	}
	// The headline shape: MuFuzz >= sFuzz on average. (Small budgets are
	// noisy; full-strength comparisons come from cmd/benchtab, listed in
	// README's Evaluation section.)
	if byName["MuFuzz"] < byName["sFuzz"]-0.05 {
		t.Errorf("MuFuzz %.2f clearly below sFuzz %.2f", byName["MuFuzz"], byName["sFuzz"])
	}
}

func TestBugDetectionScoring(t *testing.T) {
	// Use a small suite slice to keep runtime bounded.
	suite := corpus.VulnSuite()[:6]
	safe := corpus.SafeSuite()[:2]
	tools := []ToolSpec{
		{Name: "StaticCheck", Kind: ToolStatic},
		StandardTools()[5], // MuFuzz
	}
	results, err := BugDetection(suite, safe, tools, testIters, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		total := 0
		for _, c := range oracle.AllClasses {
			total += r.PerClass[c].TP + r.PerClass[c].FN
		}
		if total != r.TotalTP+r.TotalFN {
			t.Errorf("%s: per-class totals inconsistent", r.Tool)
		}
		labelCount := 0
		for _, l := range suite {
			labelCount += len(l.Labels)
		}
		if r.TotalTP+r.TotalFN != labelCount {
			t.Errorf("%s: TP+FN=%d, labels=%d", r.Tool, r.TotalTP+r.TotalFN, labelCount)
		}
	}
	var buf bytes.Buffer
	PrintDetectionTable(&buf, results)
	if !strings.Contains(buf.String(), "StaticCheck") {
		t.Error("printer lost tool names")
	}
}

func TestAblationBaselineIsOne(t *testing.T) {
	gens := corpus.GenerateSmall(testSeed+2, 4)
	rows, err := Ablation(gens, testIters, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].CoverageFrac != 1 || rows[0].BugsFrac != 1 {
		t.Errorf("full system must be the 100%% baseline: %+v", rows[0])
	}
	for _, r := range rows[1:] {
		if r.CoverageFrac <= 0 {
			t.Errorf("%s: nonpositive coverage fraction", r.Variant)
		}
	}
}

func TestCaseStudyAccounting(t *testing.T) {
	gens := corpus.GenerateComplex(testSeed+3, 3)
	res, err := CaseStudy(gens, testIters, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Contracts != 3 {
		t.Errorf("contracts = %d", res.Contracts)
	}
	sumR, sumTP, sumFP := 0, 0, 0
	for _, row := range res.Rows {
		sumR += row.Reported
		sumTP += row.TP
		sumFP += row.FP
		if row.TP+row.FP != row.Reported {
			t.Errorf("%s: TP+FP != Reported", row.Class)
		}
	}
	if sumR != res.TotalReported || sumTP != res.TotalTP || sumFP != res.TotalFP {
		t.Error("totals inconsistent")
	}
	if res.AverageCoverage <= 0 || res.AverageCoverage > 1 {
		t.Errorf("avg coverage %f out of range", res.AverageCoverage)
	}
}

func TestMotivatingSeparation(t *testing.T) {
	for _, tc := range []struct {
		iters int
		seed  int64
	}{
		{1500, 3},
		// benchtab's quick budget, `-exp motivating -iters 1200 -seed 1`.
		{1200, 1},
	} {
		t.Run(fmt.Sprintf("iters=%d,seed=%d", tc.iters, tc.seed), func(t *testing.T) {
			rows, err := Motivating(tc.iters, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			byName := map[string]bool{}
			for _, r := range rows {
				byName[r.Fuzzer] = r.DeepBranch
			}
			if !byName["MuFuzz"] {
				t.Error("MuFuzz must reach the deep branch")
			}
			if byName["sFuzz"] {
				t.Error("sFuzz (permutation sequences) must not reach the deep branch")
			}
			if byName["ConFuzzius"] {
				t.Error("ConFuzzius (no repetition) must not reach the deep branch")
			}
		})
	}
}

func TestDatasetsStats(t *testing.T) {
	stats, err := Datasets(testSeed, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("stats = %d", len(stats))
	}
	for _, s := range stats {
		if s.Contracts == 0 || s.AvgCode == 0 {
			t.Errorf("%s: empty stats", s.Name)
		}
	}
	// large must exceed small in average code size
	if stats[1].AvgCode <= stats[0].AvgCode {
		t.Error("large dataset should have bigger contracts")
	}
}
