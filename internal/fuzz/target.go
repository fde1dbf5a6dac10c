package fuzz

import (
	"mufuzz/internal/abi"
	"mufuzz/internal/analysis"
	"mufuzz/internal/minisol"
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// CtorName is the pseudo-function name heading every transaction sequence
// (paper §IV-A: the constructor runs first). It is shared by every target
// kind: MiniSol targets dispatch it to the real constructor, bytecode targets
// use it as the sequence anchor (the call lands in the dispatcher's fallback
// path unless the code was compiled with the same pseudo-selector scheme).
const CtorName = minisol.CtorName

// TargetBranch is one JUMPI site of the contract under test with its nesting
// metadata: Depth counts the conditional statements enclosing the branch
// (1 = top level). Depth >= 2 marks the "nested branch" seeds that qualify
// for Algorithm 2 mask computation (paper §IV-B); the source of the number —
// compiler metadata or CFG recovery — is a target-kind detail.
type TargetBranch struct {
	PC    uint64
	Depth int
}

// Target abstracts what a campaign needs to fuzz one contract, decoupling
// the engine from the MiniSol compiler so source-free targets (raw deployed
// bytecode plus an ABI, internal/ingest) run through the same coordinator,
// executors, oracles, masks, and energy scheduling.
//
// Implementations must be immutable after construction: campaigns running at
// once may share a target and read it without synchronization.
type Target interface {
	// Name identifies the target (contract name, or a codehash-derived label
	// for source-free targets). It keys corpus-store buckets and snapshots.
	Name() string
	// Code is the runtime bytecode installed at the contract address. The
	// campaign derives its CFG, branch index, PUSH-immediate value pool, and
	// oracle configuration from it.
	Code() []byte
	// Deploy installs the target into a fresh world state: the genesis step
	// every sequence execution starts from (before the CtorName transaction
	// runs). Must be a pure function of its arguments.
	Deploy(st *state.State, addr, deployer state.Address)
	// Constructor is the pseudo-method heading every sequence; its Name is
	// the sequence anchor (CtorName for both built-in target kinds).
	Constructor() abi.Method
	// Methods lists the externally callable functions in deterministic
	// order; this order is the campaign's canonical function order (random
	// sequence strategies shuffle it, dataflow strategies reorder it).
	Methods() []abi.Method
	// Branches lists every known JUMPI site with nesting depth metadata.
	// Sites absent from the list default to depth 0 (never "nested").
	Branches() []TargetBranch
	// DependencyOrder returns function names ordered writer-before-reader
	// over the target's state (paper §IV-A); the dataflow sequence strategy
	// builds initial sequences in this order.
	DependencyOrder() []string
	// RepeatCandidates returns functions with a read-after-write dependency
	// on branch-read state — the candidates for consecutive-repetition
	// sequence mutation (paper §IV-A).
	RepeatCandidates() []string
	// Dictionary returns mined interesting constants beyond the campaign's
	// own PUSH-immediate harvest — AST literals and folded constant
	// expressions for source targets, abstract-interpretation constants and
	// keccak mapping bases for source-free bytecode. The campaign merges them
	// into its value pool when Strategy.MinedDictionary is on. The slice must
	// be deterministic (sorted, deduplicated) for a given target.
	Dictionary() []u256.Int
}

// minisolTarget adapts a compiled MiniSol contract to the Target interface.
// Every method serves exactly the artifact the pre-Target engine consumed
// directly from *minisol.Compiled, so campaigns built through the adapter
// are byte-identical to the pre-refactor engine (pinned by the golden
// fingerprints and the conformance transcript tests).
type minisolTarget struct {
	comp     *minisol.Compiled
	depOrder []string
	repeat   []string
	branches []TargetBranch
	dict     []u256.Int
}

// MinisolTarget wraps a compiled MiniSol contract as a fuzzing target. The
// dataflow analysis runs once here; the returned target is immutable.
func MinisolTarget(comp *minisol.Compiled) Target {
	df := analysis.AnalyzeDataflow(comp.Contract)
	t := &minisolTarget{
		comp:     comp,
		depOrder: df.DependencyOrder(),
		repeat:   df.RepeatCandidates(),
	}
	for _, site := range comp.Branches {
		t.branches = append(t.branches, TargetBranch{PC: site.PC, Depth: site.Depth})
	}
	t.dict = mineASTDictionary(comp.Contract)
	return t
}

func (t *minisolTarget) Name() string { return t.comp.Contract.Name }
func (t *minisolTarget) Code() []byte { return t.comp.Code }

func (t *minisolTarget) Deploy(st *state.State, addr, deployer state.Address) {
	st.CreateContract(addr, t.comp.Code, deployer)
	st.Commit()
}

func (t *minisolTarget) Constructor() abi.Method { return t.comp.Ctor }

// Methods returns the ABI methods, which the MiniSol compiler emits in
// declaration order — the same order the pre-Target engine read from
// Contract.Functions.
func (t *minisolTarget) Methods() []abi.Method { return t.comp.ABI.Methods }

func (t *minisolTarget) Branches() []TargetBranch   { return t.branches }
func (t *minisolTarget) DependencyOrder() []string  { return t.depOrder }
func (t *minisolTarget) RepeatCandidates() []string { return t.repeat }
func (t *minisolTarget) Dictionary() []u256.Int     { return t.dict }
