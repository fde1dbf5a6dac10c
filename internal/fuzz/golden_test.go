package fuzz

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"mufuzz/internal/corpus"
	"mufuzz/internal/minisol"
	"mufuzz/internal/oracle"
)

// resultFingerprint renders every deterministic field of a campaign result as
// a canonical string: coverage, executions, queue/mask/mutation counters,
// findings, proof-of-concept call orders, and the coverage timeline
// (wall-clock fields excluded). Two engines that produce the same fingerprint
// for a fixed (contract, Options) made identical decisions execution for
// execution.
func resultFingerprint(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy=%s covered=%d/%d cov=%.6f execs=%d queue=%d masks=%d seqmut=%d\n",
		res.Strategy, res.CoveredEdges, res.TotalEdges, res.Coverage,
		res.Executions, res.SeedQueueLen, res.MasksComputed, res.SequencesMutated)
	findings := make([]string, 0, len(res.Findings))
	for _, f := range res.Findings {
		findings = append(findings, fmt.Sprintf("%s@%d:%s", f.Class, f.PC, f.Description))
	}
	sort.Strings(findings)
	fmt.Fprintf(&b, "findings=[%s]\n", strings.Join(findings, "; "))
	classes := make([]string, 0, len(res.BugClasses))
	for c := range res.BugClasses {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	fmt.Fprintf(&b, "classes=[%s]\n", strings.Join(classes, ","))
	repro := make([]string, 0, len(res.Repro))
	for class, seq := range res.Repro {
		funcs := make([]string, len(seq))
		for i, tx := range seq {
			funcs[i] = tx.Func
		}
		repro = append(repro, fmt.Sprintf("%s:%s", class, strings.Join(funcs, ">")))
	}
	sort.Strings(repro)
	fmt.Fprintf(&b, "repro=[%s]\n", strings.Join(repro, "; "))
	for _, tp := range res.Timeline {
		fmt.Fprintf(&b, "t %d %.6f\n", tp.Executions, tp.Coverage)
	}
	return b.String()
}

// goldenCampaigns are the configurations pinned by the equivalence test.
var goldenCampaigns = []struct {
	name   string
	source string
	seed   int64
	iters  int
}{
	{"crowdsale-seed1", corpus.Crowdsale(), 1, 300},
	{"crowdsale-seed7", corpus.Crowdsale(), 7, 300},
	{"crowdsale-buggy-seed1", corpus.CrowdsaleBuggy(), 1, 300},
}

func runGolden(t *testing.T, source string, seed int64, iters int) string {
	t.Helper()
	comp, err := minisol.Compile(source)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res := Run(comp, Options{
		Strategy:   MuFuzz(),
		Seed:       seed,
		Iterations: iters,
	})
	return resultFingerprint(res)
}

// TestGoldenCmpFeedbackOffLegacy pins the flag-off path: with CmpFeedback and
// MinedDictionary disabled (the "w/o comparison feedback" ablation) the
// campaign must reproduce, draw for draw, the fingerprints the engine produced
// before those features existed — only the strategy name differs. This is the
// guarantee that the feedback extension is purely additive.
func TestGoldenCmpFeedbackOffLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaigns are slow")
	}
	off := MuFuzz()
	off.Name = "MuFuzz w/o comparison feedback"
	off.CmpFeedback = false
	off.MinedDictionary = false
	for _, gc := range goldenCampaigns {
		t.Run(gc.name, func(t *testing.T) {
			comp, err := minisol.Compile(gc.source)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			res := Run(comp, Options{
				Strategy:   off,
				Seed:       gc.seed,
				Iterations: gc.iters,
			})
			got := resultFingerprint(res)
			want := strings.Replace(goldenLegacyFingerprints[gc.name],
				"strategy=MuFuzz ", "strategy="+off.Name+" ", 1)
			if got != want {
				t.Errorf("flag-off campaign diverged from the pre-feature engine\n--- want\n%s\n--- got\n%s", want, got)
			}
		})
	}
}

// TestGoldenWorkers1Equivalence pins the sequential engine's observable
// behavior: for a fixed seed the campaign must make exactly the decisions the
// pre-refactor deep-copy engine made (coverage, findings, timeline, PoCs, all
// counters). Regenerate goldens with MUFUZZ_GOLDEN_REGEN=1 after an
// intentional behavior change.
func TestGoldenWorkers1Equivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaigns are slow")
	}
	regen := os.Getenv("MUFUZZ_GOLDEN_REGEN") != ""
	for _, gc := range goldenCampaigns {
		t.Run(gc.name, func(t *testing.T) {
			got := runGolden(t, gc.source, gc.seed, gc.iters)
			want, ok := goldenFingerprints[gc.name]
			if regen || !ok {
				t.Logf("golden %q fingerprint:\n%s", gc.name, got)
				return
			}
			if got != want {
				t.Errorf("campaign diverged from pre-refactor engine\n--- want\n%s\n--- got\n%s", want, got)
			}
		})
	}
}

// _ = oracle keeps the import when goldens reference no class directly.
var _ = oracle.BugClass("")
