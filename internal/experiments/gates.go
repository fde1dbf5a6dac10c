package experiments

import (
	"fmt"
	"io"
	"sort"

	"mufuzz/internal/corpus"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/minisol"
	"mufuzz/internal/oracle"
)

// The corpus-wide detection gates (conformance tier). Unlike the Table III
// experiment — which scores tools comparatively and tolerates misses — the
// gate is a hard pass/fail pin on the full MuFuzz preset: every label on
// every contract of the gated suites must be detected within a fixed
// iteration budget, and the safe corpus must produce zero alarms. A refactor
// that silently weakens an oracle, the sequence mutator, or the feedback
// loop fails the gate even when aggregate benchmark numbers still look fine.

// GateBudget is the fixed per-contract iteration budget of the detection
// gate. It is deliberately a small multiple of what the suite needs at the
// gate seed, so detection-power regressions surface as gate failures instead
// of disappearing into a generous budget.
const GateBudget = 3000

// GateSeed pins the campaign seed of the gate. A campaign runs on one
// goroutine, so gate results are bit-identical on every machine.
const GateSeed = 1

// WorldGateBudget is the iteration budget of the multi-contract world
// separation gate (the bank-reentrant fixture with attacker synthesis on).
// The schedule needs a same-sender deposit+withdraw from the attacker
// account, a solvent bank, and the attacker spec mutated onto the withdraw
// selector; at WorldGateSeed the campaign cracks it well inside 5000
// executions, so 8000 leaves detection-power headroom without masking
// regressions.
const WorldGateBudget = 8000

// WorldGateSeed pins the world separation gate's campaign seed.
const WorldGateSeed = 1

// GateEntry is one contract's gate outcome.
type GateEntry struct {
	Contract string
	Labels   []oracle.BugClass // ground truth
	Detected []oracle.BugClass // classes the campaign found (sorted)
	Missing  []oracle.BugClass // labels not detected (vulnerable contracts)
	Spurious []oracle.BugClass // detections on a safe contract
}

// GateReport is the outcome of one detection-gate run.
type GateReport struct {
	Budget     int
	Seed       int64
	Vulnerable int // contracts gated for detection
	Safe       int // contracts gated for false positives
	// Misses lists vulnerable contracts with at least one undetected label.
	Misses []GateEntry
	// FalsePositives lists safe contracts with at least one alarm.
	FalsePositives []GateEntry
}

// Pass reports whether the gate holds: every label detected, no safe-corpus
// alarms.
func (r *GateReport) Pass() bool {
	return len(r.Misses) == 0 && len(r.FalsePositives) == 0
}

// DetectionGate fuzzes every vulnerable contract with the MuFuzz preset for
// the given budget and checks all its labels are detected, then fuzzes every
// safe contract and checks nothing is flagged. Campaigns are
// bit-reproducible and run in parallel across contracts.
func DetectionGate(vuln, safe []corpus.Labeled, budget int, seed int64) (*GateReport, error) {
	report := &GateReport{Budget: budget, Seed: seed, Vulnerable: len(vuln), Safe: len(safe)}

	all := append(append([]corpus.Labeled{}, vuln...), safe...)
	comps := make([]*minisol.Compiled, len(all))
	for i, l := range all {
		comp, err := minisol.Compile(l.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name, err)
		}
		comps[i] = comp
	}

	detected := make([]map[oracle.BugClass]bool, len(all))
	forEach(len(all), func(i int) {
		res := fuzz.Run(comps[i], fuzz.Options{
			Strategy:   fuzz.MuFuzz(),
			Seed:       seed,
			Iterations: budget,
		})
		detected[i] = res.BugClasses
	})

	for i, l := range all {
		entry := GateEntry{Contract: l.Name, Labels: l.Labels}
		for _, c := range oracle.AllClasses {
			if detected[i][c] {
				entry.Detected = append(entry.Detected, c)
			}
		}
		if i < len(vuln) {
			for _, c := range l.Labels {
				if !detected[i][c] {
					entry.Missing = append(entry.Missing, c)
				}
			}
			if len(entry.Missing) > 0 {
				report.Misses = append(report.Misses, entry)
			}
		} else {
			if len(entry.Detected) > 0 {
				entry.Spurious = entry.Detected
				report.FalsePositives = append(report.FalsePositives, entry)
			}
		}
	}
	sort.Slice(report.Misses, func(i, j int) bool { return report.Misses[i].Contract < report.Misses[j].Contract })
	sort.Slice(report.FalsePositives, func(i, j int) bool {
		return report.FalsePositives[i].Contract < report.FalsePositives[j].Contract
	})
	return report, nil
}

// GatedSuites returns the two labelled suites the detection gate covers.
func GatedSuites() []corpus.Labeled {
	return append(corpus.SWCSuite(), corpus.ExtraSuite()...)
}

// PrintGate renders a gate report.
func PrintGate(w io.Writer, r *GateReport) {
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "Detection gate — MuFuzz preset, budget %d, seed %d: %s\n", r.Budget, r.Seed, verdict)
	fmt.Fprintf(w, "  vulnerable contracts: %d (misses: %d)   safe contracts: %d (false positives: %d)\n",
		r.Vulnerable, len(r.Misses), r.Safe, len(r.FalsePositives))
	for _, e := range r.Misses {
		fmt.Fprintf(w, "  MISS %-22s labels=%v detected=%v missing=%v\n", e.Contract, e.Labels, e.Detected, e.Missing)
	}
	for _, e := range r.FalsePositives {
		fmt.Fprintf(w, "  FP   %-22s flagged=%v\n", e.Contract, e.Spurious)
	}
}
