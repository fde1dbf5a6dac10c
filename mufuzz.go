// Package mufuzz is the public API of the MuFuzz smart-contract fuzzer — a
// reproduction of "MuFuzz: Sequence-Aware Mutation and Seed Mask Guidance
// for Blockchain Smart Contract Fuzzing" (ICDE 2024).
//
// The three-call happy path:
//
//	comp, err := mufuzz.Compile(source)            // MiniSol → bytecode+ABI+AST
//	res := mufuzz.Fuzz(comp, mufuzz.Options{       // run a campaign
//	    Strategy:   mufuzz.MuFuzz(),
//	    Iterations: 5000,
//	})
//	for _, f := range res.Findings { ... }         // nine-class bug findings
//
// Baseline strategies (SFuzz, ConFuzzius, Smartian, IRFuzz) run on the same
// engine for comparisons, NewCampaign exposes the lower-level campaign with
// replay/minimization, and the corpus/experiment drivers used to regenerate
// the paper's tables live in internal/corpus and internal/experiments
// (reachable through the cmd/benchtab and cmd/corpusgen binaries).
//
// A campaign runs on one goroutine and is reproducible across machines for
// a fixed Seed. More cores run more campaigns: the campaign service
// (cmd/mufuzzd) time-slices many over a pool of slots, and the fleet spreads
// them across worker nodes. Options.Workers is ignored.
package mufuzz

import (
	"mufuzz/internal/fuzz"
	"mufuzz/internal/minisol"
	"mufuzz/internal/oracle"
	"mufuzz/internal/staticcheck"
)

// Compiled is a compiled contract: EVM bytecode, ABI, typed AST, and branch
// site metadata.
type Compiled = minisol.Compiled

// Options configures a fuzzing campaign (budget, seed, strategy).
type Options = fuzz.Options

// Strategy selects which MuFuzz components a campaign uses; baselines are
// expressed as partial configurations.
type Strategy = fuzz.Strategy

// Result is a campaign outcome: coverage, findings, timeline, PoCs.
type Result = fuzz.Result

// Campaign is the lower-level fuzzing engine with replay and minimization.
type Campaign = fuzz.Campaign

// Sequence is an ordered list of transactions (constructor first).
type Sequence = fuzz.Sequence

// Finding is one detected vulnerability.
type Finding = oracle.Finding

// BugClass identifies one of the nine vulnerability classes.
type BugClass = oracle.BugClass

// The nine bug classes of the paper's Table I.
const (
	BD = oracle.BD // block dependency
	UD = oracle.UD // unprotected delegatecall
	EF = oracle.EF // ether freezing
	IO = oracle.IO // integer over-/under-flow
	RE = oracle.RE // reentrancy
	US = oracle.US // unprotected selfdestruct
	SE = oracle.SE // strict ether equality
	TO = oracle.TO // tx.origin use
	UE = oracle.UE // unhandled exception
)

// AllBugClasses lists every bug class in report order.
var AllBugClasses = oracle.AllClasses

// Compile parses, type-checks, and compiles a MiniSol contract.
func Compile(source string) (*Compiled, error) {
	return minisol.Compile(source)
}

// Fuzz runs one fuzzing campaign over a compiled contract.
func Fuzz(comp *Compiled, opts Options) *Result {
	return fuzz.Run(comp, opts)
}

// NewCampaign builds a campaign without running it, exposing Replay,
// MinimizeForBug/MinimizeForEdge, and coverage inspection.
func NewCampaign(comp *Compiled, opts Options) *Campaign {
	return fuzz.NewCampaign(comp, opts)
}

// MuFuzz returns the full strategy: sequence-aware mutation, mask-guided
// seed mutation, and dynamic energy adjustment all enabled.
func MuFuzz() Strategy { return fuzz.MuFuzz() }

// SFuzz returns the sFuzz-like baseline strategy.
func SFuzz() Strategy { return fuzz.SFuzz() }

// ConFuzzius returns the ConFuzzius-like baseline strategy.
func ConFuzzius() Strategy { return fuzz.ConFuzzius() }

// Smartian returns the Smartian-like baseline strategy.
func Smartian() Strategy { return fuzz.Smartian() }

// IRFuzz returns the IR-Fuzz-like baseline strategy.
func IRFuzz() Strategy { return fuzz.IRFuzz() }

// Ablations returns the four single-component-removed MuFuzz variants used
// by the Fig. 7 experiment: the paper's three plus comparison feedback.
func Ablations() []Strategy { return fuzz.Ablations() }

// StaticFinding is a finding from the pattern-based static analyzer.
type StaticFinding = staticcheck.Finding

// AnalyzeStatic runs the static analyzer baseline (no execution) over a
// compiled contract.
func AnalyzeStatic(comp *Compiled) []StaticFinding {
	return staticcheck.Analyze(comp)
}
