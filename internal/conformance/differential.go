package conformance

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"mufuzz/internal/fuzz"
	"mufuzz/internal/minisol"
	"mufuzz/internal/oracle"
)

// Divergence describes where two transcripts first disagree, minimized to
// the earliest observable difference: the first divergent execution record
// (everything before it is identical), or the final summary when every
// record matches. Class-level differences additionally carry minimized
// proof-of-concept sequences (see MinimizePoCs).
type Divergence struct {
	// Kind is "record", "final", or "world" (ReplayCheck was handed a
	// world of another shape than the recording's).
	Kind string
	// Index is the first divergent record's execution index (Kind "record");
	// 0 for final-summary divergences. When one transcript simply has more
	// records than the other, Index is the first unmatched record.
	Index int
	// A and B render the divergent portion of each side.
	A, B string
	// ClassesOnlyA / ClassesOnlyB are final bug classes present in exactly
	// one side (empty unless the detector output diverged).
	ClassesOnlyA, ClassesOnlyB []string
	// MinimizedPoC maps a diverging class to the minimized call order that
	// still triggers it on the side that found it (filled by MinimizePoCs).
	MinimizedPoC map[string]string
}

func (d *Divergence) String() string {
	if d == nil {
		return "identical"
	}
	s := fmt.Sprintf("diverges at %s", d.Kind)
	if d.Kind == "record" {
		s += fmt.Sprintf(" %d", d.Index)
	}
	s += fmt.Sprintf("\n--- a\n%s\n--- b\n%s", d.A, d.B)
	if len(d.ClassesOnlyA) > 0 || len(d.ClassesOnlyB) > 0 {
		s += fmt.Sprintf("\nclasses only in a: %v, only in b: %v", d.ClassesOnlyA, d.ClassesOnlyB)
	}
	classes := make([]string, 0, len(d.MinimizedPoC))
	for class := range d.MinimizedPoC {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		s += fmt.Sprintf("\nminimized PoC %s: %s", class, d.MinimizedPoC[class])
	}
	return s
}

// renderRecord gives one record's canonical encoding (for divergence
// reports and record-stream comparison).
func renderRecord(r *fuzz.ExecRecord) string {
	var b bytes.Buffer
	encodeRecord(&b, r)
	return b.String()
}

// Diff compares two transcripts record stream + final summary (contract and
// options lines are excluded: differential variants intentionally differ
// there). Returns nil when semantically identical.
func Diff(a, b *Transcript) *Divergence {
	n := len(a.Records)
	if len(b.Records) < n {
		n = len(b.Records)
	}
	for i := 0; i < n; i++ {
		ra, rb := renderRecord(&a.Records[i]), renderRecord(&b.Records[i])
		if ra != rb {
			return &Divergence{Kind: "record", Index: i + 1, A: ra, B: rb}
		}
	}
	if len(a.Records) != len(b.Records) {
		d := &Divergence{Kind: "record", Index: n + 1}
		if len(a.Records) > n {
			d.A = renderRecord(&a.Records[n])
			d.B = "(no record)"
		} else {
			d.A = "(no record)"
			d.B = renderRecord(&b.Records[n])
		}
		return d
	}
	fa, fb := finalString(&a.Final), finalString(&b.Final)
	if fa != fb {
		d := &Divergence{Kind: "final", A: fa, B: fb}
		d.ClassesOnlyA, d.ClassesOnlyB = diffStrings(a.Final.Classes, b.Final.Classes)
		return d
	}
	return nil
}

func finalString(f *Summary) string {
	t := Transcript{Version: Version, Final: *f}
	enc := t.EncodeBytes()
	i := bytes.Index(enc, []byte("final "))
	return string(enc[i:])
}

// diffStrings returns elements only in a and only in b (inputs sorted).
func diffStrings(a, b []string) (onlyA, onlyB []string) {
	in := func(xs []string, x string) bool {
		i := sort.SearchStrings(xs, x)
		return i < len(xs) && xs[i] == x
	}
	for _, x := range a {
		if !in(b, x) {
			onlyA = append(onlyA, x)
		}
	}
	for _, x := range b {
		if !in(a, x) {
			onlyB = append(onlyB, x)
		}
	}
	return
}

// MinimizePoCs fills d.MinimizedPoC for every class present in exactly one
// side, using that side's campaign to shrink its recorded proof of concept
// to the fewest transactions that still trigger the class on replay.
func MinimizePoCs(d *Divergence, a, b *Run) {
	if d == nil {
		return
	}
	minimize := func(run *Run, classes []string) {
		for _, cs := range classes {
			class := oracle.BugClass(cs)
			seq, ok := run.Result.Repro[class]
			if !ok {
				continue
			}
			min := run.Campaign.MinimizeForBug(seq, class)
			if d.MinimizedPoC == nil {
				d.MinimizedPoC = make(map[string]string)
			}
			d.MinimizedPoC[cs] = callOrder(min)
		}
	}
	minimize(a, d.ClassesOnlyA)
	minimize(b, d.ClassesOnlyB)
}

// Variant is one engine configuration of the differential matrix.
type Variant struct {
	Name  string
	Apply func(fuzz.Options) fuzz.Options
}

// SequentialVariants returns the engine's equivalence class: the engine as
// it runs (reference) against the same campaign with the prefix cache
// disabled and with the IR disabled. All three must produce byte-identical
// transcripts.
func SequentialVariants() []Variant {
	return []Variant{
		{"seq-w1", func(o fuzz.Options) fuzz.Options { return o }},
		{"seq-w1-nocache", func(o fuzz.Options) fuzz.Options {
			o.NoPrefixCache = true
			return o
		}},
		{"seq-w1-noir", func(o fuzz.Options) fuzz.Options {
			o.NoIR = true
			return o
		}},
	}
}

// PairResult is one (reference, variant) comparison of the matrix.
type PairResult struct {
	Contract   string
	Reference  string
	Variant    string
	Equal      bool
	Divergence *Divergence
}

// DifferentialMatrix runs the equivalence class on one contract and compares
// every variant against the reference.
func DifferentialMatrix(name string, comp *minisol.Compiled, base fuzz.Options) []PairResult {
	return matrix(name, "seq", base, func(o fuzz.Options) *Run { return RecordCampaign(name, comp, o) })
}

// WorldDifferentialMatrix runs the same class on a multi-contract world
// campaign ("world-w1" against "world-w1-nocache" and "world-w1-noir"):
// member deployment, cross-contract callee routing, and attacker-spec
// compilation must be as invisible to the cache and the IR as the
// single-contract path. mk builds a fresh (target, world) pair per recording
// — world options carry live member targets and an attacker model, which
// must not be shared across campaigns.
func WorldDifferentialMatrix(name string, mk func() (fuzz.Target, *fuzz.WorldOptions), base fuzz.Options) []PairResult {
	return matrix(name, "world", base, func(o fuzz.Options) *Run {
		t, w := mk()
		o.World = w
		return RecordTargetCampaign(name, t, o)
	})
}

// matrix records every variant of SequentialVariants with record and diffs
// each against the reference; prefix replaces "seq" in the pair names.
func matrix(name, prefix string, base fuzz.Options, record func(fuzz.Options) *Run) []PairResult {
	// The matrix owns the engine-variant dimensions; a base carrying one of
	// them would silently collapse the class onto itself.
	base.NoPrefixCache = false
	base.NoIR = false
	label := func(v Variant) string { return prefix + strings.TrimPrefix(v.Name, "seq") }
	class := SequentialVariants()
	ref := record(class[0].Apply(base))
	var out []PairResult
	for _, v := range class[1:] {
		run := record(v.Apply(base))
		d := Diff(ref.Transcript, run.Transcript)
		if d != nil {
			MinimizePoCs(d, ref, run)
		}
		out = append(out, PairResult{
			Contract:   name,
			Reference:  label(class[0]),
			Variant:    label(v),
			Equal:      d == nil,
			Divergence: d,
		})
	}
	return out
}

// StrategyRow is one preset's outcome in the strategy matrix, diffed against
// the MuFuzz reference. Presets are expected to diverge — the diff is the
// paper's ablation story, reported for inspection rather than gated.
type StrategyRow struct {
	Strategy        string
	Covered         int
	TotalEdges      int
	Executions      int
	Classes         []string
	EdgesOnlyHere   int
	EdgesOnlyRef    int
	ClassesOnlyHere []string
	ClassesOnlyRef  []string
}

// StrategyMatrix runs the five strategy presets on one contract under the
// same (seed, budget) and diffs each against the MuFuzz reference: final
// coverage sets, crash/detector output.
func StrategyMatrix(name string, comp *minisol.Compiled, base fuzz.Options) []StrategyRow {
	presets := []fuzz.Strategy{fuzz.MuFuzz(), fuzz.IRFuzz(), fuzz.ConFuzzius(), fuzz.SFuzz(), fuzz.Smartian()}
	runs := make([]*Run, len(presets))
	for i, s := range presets {
		o := base
		o.Strategy = s
		runs[i] = RecordCampaign(name, comp, o)
	}
	ref := runs[0].Transcript.Final
	refEdges := edgeSet(ref.Edges)
	rows := make([]StrategyRow, len(runs))
	for i, run := range runs {
		f := run.Transcript.Final
		row := StrategyRow{
			Strategy:   presets[i].Name,
			Covered:    f.CoveredEdges,
			TotalEdges: f.TotalEdges,
			Executions: f.Executions,
			Classes:    f.Classes,
		}
		here := edgeSet(f.Edges)
		for e := range here {
			if !refEdges[e] {
				row.EdgesOnlyHere++
			}
		}
		for e := range refEdges {
			if !here[e] {
				row.EdgesOnlyRef++
			}
		}
		row.ClassesOnlyHere, row.ClassesOnlyRef = diffStrings(f.Classes, ref.Classes)
		rows[i] = row
	}
	return rows
}

func edgeSet(edges []fuzz.BranchEdge) map[fuzz.BranchEdge]bool {
	out := make(map[fuzz.BranchEdge]bool, len(edges))
	for _, e := range edges {
		out[e] = true
	}
	return out
}

// PrintMatrix renders differential results as a table, with divergence
// details for failing pairs.
func PrintMatrix(w io.Writer, results []PairResult) {
	fmt.Fprintf(w, "Differential matrix — engine variants must be execution-for-execution identical\n")
	for _, r := range results {
		verdict := "IDENTICAL"
		if !r.Equal {
			verdict = "DIVERGED"
		}
		fmt.Fprintf(w, "  %-22s %-22s vs %-22s %s\n", r.Contract, r.Variant, r.Reference, verdict)
	}
	for _, r := range results {
		if !r.Equal {
			fmt.Fprintf(w, "\n%s: %s vs %s %s\n", r.Contract, r.Variant, r.Reference, r.Divergence)
		}
	}
}

// PrintStrategies renders the strategy matrix.
func PrintStrategies(w io.Writer, name string, rows []StrategyRow) {
	fmt.Fprintf(w, "Strategy matrix on %s — presets diffed against MuFuzz (divergence expected)\n", name)
	fmt.Fprintf(w, "  %-12s %8s %8s %8s %6s %6s  %s\n", "preset", "covered", "total", "execs", "+edge", "-edge", "classes")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %8d %8d %8d %6d %6d  %v\n",
			r.Strategy, r.Covered, r.TotalEdges, r.Executions, r.EdgesOnlyHere, r.EdgesOnlyRef, r.Classes)
	}
}
