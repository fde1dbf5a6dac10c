// Package experiments reproduces every table and figure of the paper's
// evaluation (§V). Each experiment is a pure function from a dataset and
// budget to a structured result; cmd/benchtab is the only driver, and the
// tests here check each result's shape. Printers render the same
// rows/series the paper reports.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"mufuzz/internal/corpus"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/minisol"
	"mufuzz/internal/oracle"
	"mufuzz/internal/staticcheck"
)

// FuzzerSpec names a fuzzer configuration under comparison.
type FuzzerSpec struct {
	Name     string
	Strategy fuzz.Strategy
}

// StandardFuzzers returns the four fuzzers of Fig. 5/6 in the paper's order.
func StandardFuzzers() []FuzzerSpec {
	return []FuzzerSpec{
		{"MuFuzz", fuzz.MuFuzz()},
		{"IR-Fuzz", fuzz.IRFuzz()},
		{"ConFuzzius", fuzz.ConFuzzius()},
		{"sFuzz", fuzz.SFuzz()},
	}
}

// forEach runs fn over [0,n), one campaign per core at once (at most 16).
// Each campaign runs on one goroutine, so more cores run more campaigns.
func forEach(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), 16, n)
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// compileAll compiles a generated dataset, failing loudly on any error.
func compileAll(gens []corpus.Generated) ([]*minisol.Compiled, error) {
	out := make([]*minisol.Compiled, len(gens))
	var firstErr error
	var mu sync.Mutex
	forEach(len(gens), func(i int) {
		comp, err := minisol.Compile(gens[i].Source)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", gens[i].Name, err)
			}
			mu.Unlock()
			return
		}
		out[i] = comp
	})
	return out, firstErr
}

// --- Fig. 5: branch coverage over time ---

// CurvePoint is one sample of an averaged coverage curve.
type CurvePoint struct {
	// Fraction of the iteration budget consumed (0..1].
	BudgetFrac float64
	// Coverage is the mean branch coverage across the dataset at that point.
	Coverage float64
}

// CoverageCurve is the averaged coverage-over-time series of one fuzzer.
type CoverageCurve struct {
	Fuzzer string
	Points []CurvePoint
	Final  float64
}

// defaultCheckpoints mirror the paper's time axis as budget fractions.
var defaultCheckpoints = []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.35, 0.50, 0.75, 1.0}

// CoverageOverTime runs every fuzzer over the dataset and averages coverage
// at budget-fraction checkpoints (experiment E1/E2, Fig. 5).
func CoverageOverTime(gens []corpus.Generated, fuzzers []FuzzerSpec, iterations int, seed int64) ([]CoverageCurve, error) {
	comps, err := compileAll(gens)
	if err != nil {
		return nil, err
	}
	curves := make([]CoverageCurve, len(fuzzers))
	for fi, spec := range fuzzers {
		// per-contract coverage at each checkpoint
		perContract := make([][]float64, len(comps))
		finals := make([]float64, len(comps))
		spec := spec
		forEach(len(comps), func(ci int) {
			res := fuzz.Run(comps[ci], fuzz.Options{
				Strategy:   spec.Strategy,
				Seed:       seed + int64(ci),
				Iterations: iterations,
			})
			finals[ci] = res.Coverage
			pts := make([]float64, len(defaultCheckpoints))
			for pi, frac := range defaultCheckpoints {
				limit := int(frac * float64(iterations))
				cov := 0.0
				for _, tp := range res.Timeline {
					if tp.Executions <= limit && tp.Coverage > cov {
						cov = tp.Coverage
					}
				}
				pts[pi] = cov
			}
			perContract[ci] = pts
		})
		curve := CoverageCurve{Fuzzer: spec.Name}
		for pi, frac := range defaultCheckpoints {
			sum := 0.0
			for ci := range comps {
				sum += perContract[ci][pi]
			}
			curve.Points = append(curve.Points, CurvePoint{
				BudgetFrac: frac,
				Coverage:   sum / float64(len(comps)),
			})
		}
		sumF := 0.0
		for _, f := range finals {
			sumF += f
		}
		curve.Final = sumF / float64(len(finals))
		curves[fi] = curve
	}
	return curves, nil
}

// PrintCoverageCurves renders the Fig. 5 series as a text table.
func PrintCoverageCurves(w io.Writer, title string, curves []CoverageCurve) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s", "budget%")
	for _, c := range curves {
		fmt.Fprintf(w, "%12s", c.Fuzzer)
	}
	fmt.Fprintln(w)
	for pi := range curves[0].Points {
		fmt.Fprintf(w, "%-12.0f", curves[0].Points[pi].BudgetFrac*100)
		for _, c := range curves {
			fmt.Fprintf(w, "%11.1f%%", c.Points[pi].Coverage*100)
		}
		fmt.Fprintln(w)
	}
}

// --- Fig. 6: overall coverage bars ---

// CoverageBar is one fuzzer's final coverage on one dataset.
type CoverageBar struct {
	Fuzzer   string
	Coverage float64
}

// OverallCoverage runs every fuzzer to the full budget and reports final
// average coverage (experiment E3, Fig. 6).
func OverallCoverage(gens []corpus.Generated, fuzzers []FuzzerSpec, iterations int, seed int64) ([]CoverageBar, error) {
	curves, err := CoverageOverTime(gens, fuzzers, iterations, seed)
	if err != nil {
		return nil, err
	}
	bars := make([]CoverageBar, len(curves))
	for i, c := range curves {
		bars[i] = CoverageBar{Fuzzer: c.Fuzzer, Coverage: c.Final}
	}
	return bars, nil
}

// PrintCoverageBars renders Fig. 6 style bars.
func PrintCoverageBars(w io.Writer, title string, bars []CoverageBar) {
	fmt.Fprintf(w, "%s\n", title)
	for _, b := range bars {
		stars := int(b.Coverage * 40)
		fmt.Fprintf(w, "  %-12s %5.1f%% %s\n", b.Fuzzer, b.Coverage*100, bar(stars))
	}
}

func bar(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// --- Table III: bug detection TP/FN per class per tool ---

// ToolKind distinguishes how a tool is executed.
type ToolKind int

// Tool kinds.
const (
	ToolFuzzer ToolKind = iota
	ToolStatic
)

// ToolSpec is one column of Table III.
type ToolSpec struct {
	Name     string
	Kind     ToolKind
	Strategy fuzz.Strategy // fuzzers only
}

// StandardTools returns the Table III tool set: one static analyzer baseline
// plus the fuzzer family.
func StandardTools() []ToolSpec {
	return []ToolSpec{
		{Name: "StaticCheck", Kind: ToolStatic},
		{Name: "sFuzz", Kind: ToolFuzzer, Strategy: fuzz.SFuzz()},
		{Name: "ConFuzzius", Kind: ToolFuzzer, Strategy: fuzz.ConFuzzius()},
		{Name: "Smartian", Kind: ToolFuzzer, Strategy: fuzz.Smartian()},
		{Name: "IR-Fuzz", Kind: ToolFuzzer, Strategy: fuzz.IRFuzz()},
		{Name: "MuFuzz", Kind: ToolFuzzer, Strategy: fuzz.MuFuzz()},
	}
}

// ClassScore is TP/FN for one bug class.
type ClassScore struct {
	TP, FN int
}

// DetectionResult is one tool's Table III column plus FP info from the safe
// suite.
type DetectionResult struct {
	Tool     string
	PerClass map[oracle.BugClass]*ClassScore
	TotalTP  int
	TotalFN  int
	// FalsePositives counts classes flagged on contracts not labelled with
	// them (vulnerable suite) plus anything flagged on the safe suite.
	FalsePositives int
}

// BugDetection scores every tool against the labelled suite (experiment E4,
// Table III) and the safe suite (the §V-C false-positive analysis).
func BugDetection(suite, safe []corpus.Labeled, tools []ToolSpec, iterations int, seed int64) ([]DetectionResult, error) {
	type compiled struct {
		labeled corpus.Labeled
		comp    *minisol.Compiled
	}
	var all []compiled
	for _, l := range append(append([]corpus.Labeled{}, suite...), safe...) {
		comp, err := minisol.Compile(l.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name, err)
		}
		all = append(all, compiled{l, comp})
	}

	results := make([]DetectionResult, len(tools))
	for ti, tool := range tools {
		res := DetectionResult{Tool: tool.Name, PerClass: map[oracle.BugClass]*ClassScore{}}
		for _, c := range oracle.AllClasses {
			res.PerClass[c] = &ClassScore{}
		}
		detected := make([]map[oracle.BugClass]bool, len(all))
		tool := tool
		forEach(len(all), func(i int) {
			switch tool.Kind {
			case ToolStatic:
				detected[i] = staticcheck.Classes(staticcheck.Analyze(all[i].comp))
			default:
				r := fuzz.Run(all[i].comp, fuzz.Options{
					Strategy:   tool.Strategy,
					Seed:       seed + int64(i),
					Iterations: iterations,
				})
				detected[i] = r.BugClasses
			}
		})
		for i, entry := range all {
			for _, c := range oracle.AllClasses {
				has := entry.labeled.HasLabel(c)
				got := detected[i][c]
				switch {
				case has && got:
					res.PerClass[c].TP++
					res.TotalTP++
				case has && !got:
					res.PerClass[c].FN++
					res.TotalFN++
				case !has && got:
					res.FalsePositives++
				}
			}
		}
		results[ti] = res
	}
	return results, nil
}

// PrintDetectionTable renders Table III.
func PrintDetectionTable(w io.Writer, results []DetectionResult) {
	fmt.Fprintf(w, "Table III analog — TP / FN per bug class (FP on unlabelled code in last column)\n")
	fmt.Fprintf(w, "%-12s", "Tool")
	for _, c := range oracle.AllClasses {
		fmt.Fprintf(w, "%10s", c)
	}
	fmt.Fprintf(w, "%14s%6s\n", "Total TP/FN", "FP")
	for _, r := range results {
		fmt.Fprintf(w, "%-12s", r.Tool)
		for _, c := range oracle.AllClasses {
			s := r.PerClass[c]
			fmt.Fprintf(w, "%10s", fmt.Sprintf("%d/%d", s.TP, s.FN))
		}
		fmt.Fprintf(w, "%14s%6d\n", fmt.Sprintf("%d/%d", r.TotalTP, r.TotalFN), r.FalsePositives)
	}
}

// --- Fig. 7: ablation ---

// AblationRow is one variant's share of the full system's performance.
type AblationRow struct {
	Variant      string
	CoverageFrac float64 // achieved coverage / full MuFuzz coverage
	BugsFrac     float64 // detected labelled bugs / full MuFuzz detections
}

// Ablation runs full MuFuzz and the three single-component-removed variants
// over the dataset (experiment E5, Fig. 7).
func Ablation(gens []corpus.Generated, iterations int, seed int64) ([]AblationRow, error) {
	comps, err := compileAll(gens)
	if err != nil {
		return nil, err
	}
	variants := append([]fuzz.Strategy{fuzz.MuFuzz()}, fuzz.Ablations()...)
	coverage := make([]float64, len(variants))
	bugs := make([]int, len(variants))
	for vi, strat := range variants {
		covs := make([]float64, len(comps))
		found := make([]int, len(comps))
		strat := strat
		forEach(len(comps), func(ci int) {
			res := fuzz.Run(comps[ci], fuzz.Options{
				Strategy:   strat,
				Seed:       seed + int64(ci),
				Iterations: iterations,
			})
			covs[ci] = res.Coverage
			for _, c := range gens[ci].Labels {
				if res.BugClasses[c] {
					found[ci]++
				}
			}
		})
		for ci := range comps {
			coverage[vi] += covs[ci]
			bugs[vi] += found[ci]
		}
		coverage[vi] /= float64(len(comps))
	}

	rows := make([]AblationRow, len(variants))
	for vi, strat := range variants {
		row := AblationRow{Variant: strat.Name}
		if coverage[0] > 0 {
			row.CoverageFrac = coverage[vi] / coverage[0]
		}
		if bugs[0] > 0 {
			row.BugsFrac = float64(bugs[vi]) / float64(bugs[0])
		} else {
			row.BugsFrac = 1
		}
		rows[vi] = row
	}
	return rows, nil
}

// PrintAblation renders Fig. 7.
func PrintAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-44s %10s %10s\n", "Variant", "coverage", "bugs")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-44s %9.0f%% %9.0f%%\n", r.Variant, r.CoverageFrac*100, r.BugsFrac*100)
	}
}

// --- Table IV: real-world case study ---

// CaseStudyRow is one bug class row of Table IV.
type CaseStudyRow struct {
	Class    oracle.BugClass
	Reported int
	TP       int
	FP       int
}

// CaseStudyResult is the Table IV analog.
type CaseStudyResult struct {
	Rows            []CaseStudyRow
	TotalReported   int
	TotalTP         int
	TotalFP         int
	AverageCoverage float64
	Flagged         int // contracts with at least one alarm
	Contracts       int
}

// CaseStudy fuzzes the complex corpus with MuFuzz and audits alarms against
// the generator's ground truth (experiment E6, Table IV).
func CaseStudy(gens []corpus.Generated, iterations int, seed int64) (*CaseStudyResult, error) {
	comps, err := compileAll(gens)
	if err != nil {
		return nil, err
	}
	perClass := map[oracle.BugClass]*CaseStudyRow{}
	for _, c := range oracle.AllClasses {
		perClass[c] = &CaseStudyRow{Class: c}
	}
	covs := make([]float64, len(comps))
	classes := make([]map[oracle.BugClass]bool, len(comps))
	forEach(len(comps), func(ci int) {
		res := fuzz.Run(comps[ci], fuzz.Options{
			Strategy:   fuzz.MuFuzz(),
			Seed:       seed + int64(ci),
			Iterations: iterations,
		})
		covs[ci] = res.Coverage
		classes[ci] = res.BugClasses
	})

	out := &CaseStudyResult{Contracts: len(comps)}
	for ci := range comps {
		flagged := false
		for _, c := range oracle.AllClasses {
			if !classes[ci][c] {
				continue
			}
			flagged = true
			perClass[c].Reported++
			if gens[ci].HasLabel(c) {
				perClass[c].TP++
			} else {
				perClass[c].FP++
			}
		}
		if flagged {
			out.Flagged++
		}
		out.AverageCoverage += covs[ci]
	}
	out.AverageCoverage /= float64(len(comps))
	for _, c := range oracle.AllClasses {
		r := perClass[c]
		out.Rows = append(out.Rows, *r)
		out.TotalReported += r.Reported
		out.TotalTP += r.TP
		out.TotalFP += r.FP
	}
	return out, nil
}

// PrintCaseStudy renders Table IV.
func PrintCaseStudy(w io.Writer, r *CaseStudyResult) {
	fmt.Fprintf(w, "Table IV analog — real-world case study (%d complex contracts)\n", r.Contracts)
	fmt.Fprintf(w, "  %-8s %10s %6s %6s\n", "Bug ID", "Reported", "TP", "FP")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-8s %10d %6d %6d\n", row.Class, row.Reported, row.TP, row.FP)
	}
	fmt.Fprintf(w, "  %-8s %10d %6d %6d\n", "Total", r.TotalReported, r.TotalTP, r.TotalFP)
	fmt.Fprintf(w, "  Contracts flagged: %d/%d\n", r.Flagged, r.Contracts)
	fmt.Fprintf(w, "  Average coverage: %.2f%%\n", r.AverageCoverage*100)
}

// --- §III-B motivating example ---

// MotivatingResult records which fuzzers crack the Crowdsale deep branch.
type MotivatingResult struct {
	Fuzzer     string
	DeepBranch bool
	Coverage   float64
	Executions int
}

// Motivating runs the four fuzzers on the paper's Fig. 1 contract and checks
// who reaches the withdraw phase==1 branch (experiment E8).
func Motivating(iterations int, seed int64) ([]MotivatingResult, error) {
	comp, err := minisol.Compile(corpus.Crowdsale())
	if err != nil {
		return nil, err
	}
	var withdrawIf uint64
	for _, s := range comp.Branches {
		if s.Func == "withdraw" && s.Kind == minisol.BranchIf {
			withdrawIf = s.PC
		}
	}
	var out []MotivatingResult
	for _, spec := range StandardFuzzers() {
		c := fuzz.NewCampaign(comp, fuzz.Options{
			Strategy:   spec.Strategy,
			Seed:       seed,
			Iterations: iterations,
		})
		res := c.Run()
		reached := c.EdgeCovered(withdrawIf, false)
		out = append(out, MotivatingResult{
			Fuzzer:     spec.Name,
			DeepBranch: reached,
			Coverage:   res.Coverage,
			Executions: res.Executions,
		})
	}
	return out, nil
}

// PrintMotivating renders the §III-B comparison.
func PrintMotivating(w io.Writer, rows []MotivatingResult) {
	fmt.Fprintln(w, "Motivating example (Fig. 1 Crowdsale) — who reaches the withdraw phase==1 branch")
	for _, r := range rows {
		mark := "missed"
		if r.DeepBranch {
			mark = "REACHED"
		}
		fmt.Fprintf(w, "  %-12s %-8s coverage %5.1f%% (%d execs)\n", r.Fuzzer, mark, r.Coverage*100, r.Executions)
	}
}

// --- Table II: dataset summary ---

// DatasetStats summarizes one corpus.
type DatasetStats struct {
	Name      string
	Contracts int
	AvgCode   int // average bytecode bytes
	AvgFuncs  float64
	Labels    int
}

// Datasets builds the Table II analog over all three corpora.
func Datasets(seed int64, nSmall, nLarge, nComplex int) ([]DatasetStats, error) {
	stat := func(name string, gens []corpus.Generated) (DatasetStats, error) {
		s := DatasetStats{Name: name, Contracts: len(gens)}
		for _, g := range gens {
			comp, err := minisol.Compile(g.Source)
			if err != nil {
				return s, err
			}
			s.AvgCode += len(comp.Code)
			s.AvgFuncs += float64(len(comp.Contract.Functions))
			s.Labels += len(g.Labels)
		}
		s.AvgCode /= len(gens)
		s.AvgFuncs /= float64(len(gens))
		return s, nil
	}
	var out []DatasetStats
	small, err := stat("D1-small (generated)", corpus.GenerateSmall(seed, nSmall))
	if err != nil {
		return nil, err
	}
	large, err := stat("D1-large (generated)", corpus.GenerateLarge(seed, nLarge))
	if err != nil {
		return nil, err
	}
	complexStats, err := stat("D3 (generated complex)", corpus.GenerateComplex(seed, nComplex))
	if err != nil {
		return nil, err
	}
	out = append(out, small, large)

	suite := corpus.VulnSuite()
	d2 := DatasetStats{Name: "D2 (labelled suite)", Contracts: len(suite)}
	for _, l := range suite {
		comp, err := minisol.Compile(l.Source)
		if err != nil {
			return nil, err
		}
		d2.AvgCode += len(comp.Code)
		d2.AvgFuncs += float64(len(comp.Contract.Functions))
		d2.Labels += len(l.Labels)
	}
	d2.AvgCode /= len(suite)
	d2.AvgFuncs /= float64(len(suite))
	out = append(out, d2, complexStats)
	return out, nil
}

// PrintDatasets renders Table II.
func PrintDatasets(w io.Writer, stats []DatasetStats) {
	fmt.Fprintln(w, "Table II analog — benchmark datasets")
	fmt.Fprintf(w, "  %-26s %10s %10s %8s %8s\n", "Dataset", "contracts", "avg code", "avg fns", "labels")
	for _, s := range stats {
		fmt.Fprintf(w, "  %-26s %10d %9dB %8.1f %8d\n", s.Name, s.Contracts, s.AvgCode, s.AvgFuncs, s.Labels)
	}
}
