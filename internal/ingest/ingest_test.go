package ingest

import (
	"sort"
	"strings"
	"testing"

	"mufuzz/internal/analysis"
	"mufuzz/internal/corpus"
	"mufuzz/internal/evm"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/minisol"
	"mufuzz/internal/oracle"
	"mufuzz/internal/u256"
)

// loadCompiled compiles MiniSol source and ingests its own bytecode + ABI
// JSON — the self-referential setup every ground-truth test uses.
func loadCompiled(t *testing.T, source string) (*minisol.Compiled, *Target) {
	t.Helper()
	comp, err := minisol.Compile(source)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tgt, err := Load(comp.Code, comp.ABI.EncodeJSON())
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	return comp, tgt
}

// expectedSlotSet maps an AST-derived variable-name set to the slot-key set
// the recovery should produce: constant slots for word variables, map[slot]
// families for mappings.
func expectedSlotSet(c *minisol.Contract, vars analysis.VarSet) analysis.VarSet {
	out := analysis.VarSet{}
	for name := range vars {
		for _, sv := range c.StateVars {
			if sv.Name == name {
				if sv.Type.Kind == minisol.TyMapping {
					out.Add(MapSlotKey(sv.Slot))
				} else {
					out.Add(ConstSlotKey(sv.Slot))
				}
			}
		}
	}
	return out
}

func sameSet(a, b analysis.VarSet) bool {
	return strings.Join(a.Sorted(), ",") == strings.Join(b.Sorted(), ",")
}

// TestStorageRecoveryMatchesAST is the abstract interpreter's ground-truth
// gate: on every SWC-suite and extra-suite contract, the per-function
// storage read/write slot sets recovered from bare bytecode must equal the
// AST-derived analysis.AnalyzeDataflow sets (names mapped through the
// storage layout).
func TestStorageRecoveryMatchesAST(t *testing.T) {
	for _, l := range append(corpus.SWCSuite(), corpus.ExtraSuite()...) {
		t.Run(l.Name, func(t *testing.T) {
			comp, tgt := loadCompiled(t, l.Source)
			df := analysis.AnalyzeDataflow(comp.Contract)

			recovered := map[string]FuncStorage{}
			for _, fs := range tgt.Storage() {
				recovered[fs.Name] = fs
			}

			check := func(fnName string, ast analysis.FuncDataflow) {
				fs, ok := recovered[fnName]
				if !ok {
					t.Fatalf("%s: no recovered summary", fnName)
				}
				if !fs.Found {
					t.Fatalf("%s: selector not found in dispatcher", fnName)
				}
				if want := expectedSlotSet(comp.Contract, ast.Reads); !sameSet(fs.Reads, want) {
					t.Errorf("%s reads: recovered %v, want %v", fnName, fs.Reads.Sorted(), want.Sorted())
				}
				if want := expectedSlotSet(comp.Contract, ast.Writes); !sameSet(fs.Writes, want) {
					t.Errorf("%s writes: recovered %v, want %v", fnName, fs.Writes.Sorted(), want.Sorted())
				}
			}
			check(fuzz.CtorName, df.Ctor)
			for _, fd := range df.Funcs {
				check(fd.Name, fd)
			}
		})
	}
}

// TestDispatchRecoveryMatchesFuncEntry pins the selector scan against the
// compiler's own entry-point table.
func TestDispatchRecoveryMatchesFuncEntry(t *testing.T) {
	comp, tgt := loadCompiled(t, corpus.Crowdsale())
	for _, fs := range tgt.Storage() {
		name := fs.Name
		if name == fuzz.CtorName {
			name = minisol.CtorName
		}
		want, ok := comp.FuncEntry[name]
		if !ok {
			t.Fatalf("no FuncEntry for %s", name)
		}
		if !fs.Found || fs.Entry != want {
			t.Errorf("%s: recovered entry %d (found=%v), want %d", name, fs.Entry, fs.Found, want)
		}
	}
}

// TestDependencyOrderMatchesAST: with read/write sets recovered exactly, the
// source-free dependency order must reproduce the AST-derived §IV-A order.
func TestDependencyOrderMatchesAST(t *testing.T) {
	for _, src := range []string{corpus.Crowdsale(), corpus.CrowdsaleBuggy(), corpus.Game()} {
		comp, tgt := loadCompiled(t, src)
		df := analysis.AnalyzeDataflow(comp.Contract)
		want := strings.Join(df.DependencyOrder(), ",")
		got := strings.Join(tgt.DependencyOrder(), ",")
		if got != want {
			t.Errorf("%s: dependency order %q, want %q", comp.Contract.Name, got, want)
		}
		wantRep := strings.Join(df.RepeatCandidates(), ",")
		gotRep := strings.Join(tgt.RepeatCandidates(), ",")
		if gotRep != wantRep {
			t.Errorf("%s: repeat candidates %q, want %q", comp.Contract.Name, gotRep, wantRep)
		}
	}
}

// TestBranchDepthRecovery: nested branches must recover depth >= 2 so the
// mask-guided mutator still sees "nested branch" seeds source-free. The
// buggy crowdsale's timestamp branch sits inside the phase==1 branch.
func TestBranchDepthRecovery(t *testing.T) {
	comp, tgt := loadCompiled(t, corpus.CrowdsaleBuggy())
	depthByPC := map[uint64]int{}
	for _, b := range tgt.Branches() {
		depthByPC[b.PC] = b.Depth
	}
	var sawNested bool
	for _, site := range comp.Branches {
		if site.Func == "withdraw" && site.Depth >= 2 {
			if got := depthByPC[site.PC]; got < 2 {
				t.Errorf("nested branch at pc=%d recovered depth %d, want >= 2", site.PC, got)
			}
			sawNested = true
		}
	}
	if !sawNested {
		t.Fatal("fixture lost its nested branch")
	}
}

// TestExtractRuntime wraps runtime code in a synthetic deploy prologue and
// checks the extraction; plain runtime code must pass through untouched.
func TestExtractRuntime(t *testing.T) {
	comp, err := minisol.Compile(corpus.Crowdsale())
	if err != nil {
		t.Fatal(err)
	}
	runtime := comp.Code

	// PUSH2 len DUP1 PUSH2 src PUSH1 0 CODECOPY PUSH1 0 RETURN — the classic
	// deploy prologue, 13 bytes, with the runtime appended right after.
	const src = 13
	n := len(runtime)
	creation := append([]byte{
		byte(evm.PUSH1) + 1, byte(n >> 8), byte(n), byte(evm.DUP1),
		byte(evm.PUSH1) + 1, 0, src, byte(evm.PUSH1), 0, byte(evm.CODECOPY),
		byte(evm.PUSH1), 0, byte(evm.RETURN),
	}, runtime...)

	got, ok := ExtractRuntime(creation)
	if !ok {
		t.Fatal("creation code not detected")
	}
	if string(got) != string(runtime) {
		t.Fatalf("extracted %d bytes, want %d", len(got), len(runtime))
	}

	// The solc shape: free-memory-pointer setup plus the nonpayable
	// constructor's CALLVALUE guard (a JUMPI diamond whose revert arm the
	// walk must step around) in front of the CODECOPY/RETURN.
	const solcSrc = 30
	solcCreation := append([]byte{
		byte(evm.PUSH1), 0x80, byte(evm.PUSH1), 0x40, byte(evm.MSTORE),
		byte(evm.CALLVALUE), byte(evm.DUP1), byte(evm.ISZERO),
		byte(evm.PUSH1), 0x0f, byte(evm.JUMPI),
		byte(evm.PUSH1), 0, byte(evm.DUP1), byte(evm.REVERT),
		byte(evm.JUMPDEST), byte(evm.POP),
		byte(evm.PUSH1) + 1, byte(n >> 8), byte(n), byte(evm.DUP1),
		byte(evm.PUSH1) + 1, 0, solcSrc, byte(evm.PUSH1), 0, byte(evm.CODECOPY),
		byte(evm.PUSH1), 0, byte(evm.RETURN),
	}, runtime...)
	got, ok = ExtractRuntime(solcCreation)
	if !ok {
		t.Fatal("solc-style creation code (CALLVALUE guard) not detected")
	}
	if string(got) != string(runtime) {
		t.Fatalf("solc-style extraction: %d bytes, want %d", len(got), len(runtime))
	}

	if _, ok := ExtractRuntime(runtime); ok {
		t.Fatal("plain runtime code misdetected as creation code")
	}

	// Load must accept either form and land on the same target identity.
	abiJSON := comp.ABI.EncodeJSON()
	t1, err := Load(runtime, abiJSON)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Load(creation, abiJSON)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Name() != t2.Name() {
		t.Fatalf("runtime/creation loads diverge: %s vs %s", t1.Name(), t2.Name())
	}
}

// TestLoadHex accepts 0x-prefixed, whitespace-ridden hex and rejects junk.
func TestLoadHex(t *testing.T) {
	comp, err := minisol.Compile(corpus.Crowdsale())
	if err != nil {
		t.Fatal(err)
	}
	hexStr := "0x"
	for i, b := range comp.Code {
		if i%32 == 0 {
			hexStr += "\n"
		}
		hexStr += string("0123456789abcdef"[b>>4]) + string("0123456789abcdef"[b&0xf])
	}
	tgt, err := LoadHex(hexStr, comp.ABI.EncodeJSON())
	if err != nil {
		t.Fatal(err)
	}
	if len(tgt.Code()) != len(comp.Code) {
		t.Fatalf("decoded %d bytes, want %d", len(tgt.Code()), len(comp.Code))
	}
	if _, err := LoadHex("0xzz", comp.ABI.EncodeJSON()); err == nil {
		t.Fatal("junk hex accepted")
	}
	if _, err := LoadHex("", comp.ABI.EncodeJSON()); err == nil {
		t.Fatal("empty bytecode accepted")
	}
}

// TestIngestCampaignSourceFree is the end-to-end acceptance check: a full
// MuFuzz campaign over bare bytecode + ABI JSON reaches real coverage, and
// on the buggy crowdsale finds the seeded block-dependency bug — every §IV
// mechanism running source-free.
func TestIngestCampaignSourceFree(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns are slow")
	}
	_, tgt := loadCompiled(t, corpus.CrowdsaleBuggy())
	res := fuzz.NewTargetCampaign(tgt, fuzz.Options{
		Strategy:   fuzz.MuFuzz(),
		Seed:       1,
		Iterations: 3000,
	}).Run()
	if res.CoveredEdges == 0 {
		t.Fatal("source-free campaign covered nothing")
	}
	if !res.BugClasses[oracle.BugClass("BD")] {
		classes := make([]string, 0, len(res.BugClasses))
		for c := range res.BugClasses {
			classes = append(classes, string(c))
		}
		sort.Strings(classes)
		t.Fatalf("BD not found source-free (coverage %.2f, classes %v)", res.Coverage, classes)
	}
}

// TestIngestSnapshotResume: source-free campaigns snapshot and resume like
// compiled ones (the service drains them identically).
func TestIngestSnapshotResume(t *testing.T) {
	_, tgt := loadCompiled(t, corpus.Crowdsale())
	c := fuzz.NewTargetCampaign(tgt, fuzz.Options{
		Strategy: fuzz.MuFuzz(), Seed: 3, Iterations: 400,
	})
	c.Run()
	snap := c.Snapshot()
	resumed, err := fuzz.ResumeTargetCampaign(tgt, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.ResultSoFar().CoveredEdges, c.ResultSoFar().CoveredEdges; got != want {
		t.Fatalf("resumed coverage %d, want %d", got, want)
	}
}

var _ fuzz.Target = (*Target)(nil)

var _ = u256.Zero // keep the import while helpers evolve
