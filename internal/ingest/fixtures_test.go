package ingest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mufuzz/internal/corpus"
	"mufuzz/internal/experiments"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/minisol"
	"mufuzz/internal/oracle"
)

const fixturesDir = "../../fixtures"

func readFixture(t testing.TB, name string) (codeHex string, abiJSON []byte) {
	t.Helper()
	bin, err := os.ReadFile(filepath.Join(fixturesDir, name+".bin"))
	if err != nil {
		t.Fatalf("fixture missing (regen with `go run ./cmd/corpusgen -fixtures fixtures`): %v", err)
	}
	abi, err := os.ReadFile(filepath.Join(fixturesDir, name+".abi.json"))
	if err != nil {
		t.Fatal(err)
	}
	return string(bin), abi
}

// TestFixturesCurrent pins the committed fixtures to the sources they were
// generated from: a drift means someone changed the contract or compiler
// without regenerating (`go run ./cmd/corpusgen -fixtures fixtures`).
func TestFixturesCurrent(t *testing.T) {
	for name, src := range map[string]string{
		"erc20":           corpus.Token(),
		"crowdsale-buggy": corpus.CrowdsaleBuggy(),
		"magic-gate":      corpus.MagicGate(),
		"bank-reentrant":  corpus.BankReentrant(),
		"proxy-delegate":  corpus.ProxyDelegate(),
	} {
		t.Run(name, func(t *testing.T) {
			comp, err := minisol.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			codeHex, abiJSON := readFixture(t, name)
			tgt, err := LoadHex(codeHex, abiJSON)
			if err != nil {
				t.Fatal(err)
			}
			if string(tgt.Code()) != string(comp.Code) {
				t.Fatalf("%s.bin is stale: %d bytes on disk vs %d compiled", name, len(tgt.Code()), len(comp.Code))
			}
			if got, want := strings.TrimSpace(string(abiJSON)), strings.TrimSpace(string(comp.ABI.EncodeJSON())); got != want {
				t.Fatalf("%s.abi.json is stale", name)
			}
		})
	}
}

// TestFixtureCampaigns runs the bundled fixtures exactly the way the CI
// ingest-smoke job does: the erc20 fixture must reach coverage with zero
// findings, the buggy crowdsale must yield the seeded BD bug, and the
// sequence mutation must be driven by recovered slot dependencies (invest
// is the recovered RAW repeat candidate).
func TestFixtureCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns are slow")
	}
	codeHex, abiJSON := readFixture(t, "erc20")
	tgt, err := LoadHex(codeHex, abiJSON)
	if err != nil {
		t.Fatal(err)
	}
	res := fuzz.NewTargetCampaign(tgt, fuzz.Options{
		Strategy: fuzz.MuFuzz(), Seed: 1, Iterations: 3000,
	}).Run()
	if res.CoveredEdges == 0 {
		t.Fatal("erc20 fixture: no coverage")
	}
	if len(res.Findings) != 0 {
		t.Fatalf("erc20 fixture: unexpected findings %v", res.BugClasses)
	}

	codeHex, abiJSON = readFixture(t, "crowdsale-buggy")
	buggy, err := LoadHex(codeHex, abiJSON)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(buggy.RepeatCandidates(), ","); got != "invest" {
		t.Fatalf("recovered repeat candidates = %q, want invest", got)
	}
	bres := fuzz.NewTargetCampaign(buggy, fuzz.Options{
		Strategy: fuzz.MuFuzz(), Seed: 1, Iterations: 4000,
	}).Run()
	if !bres.BugClasses[oracle.BugClass("BD")] {
		t.Fatalf("buggy fixture: BD not found (classes %v)", bres.BugClasses)
	}
}

// TestMagicGateCmpFeedback is the detection gate for comparison-operand
// feedback: the magic-gate fixture hides an unprotected selfdestruct behind
// grants[code] == 7, where the mapping key 0x4d414749 is assembled from two
// halves in the constructor — no single PUSH immediate spells it, branch
// distance is constant at the guard, and the observed operand pair {0, 7}
// says nothing about the key. At the experiments gate budget the full MuFuzz
// strategy must crack it source-free (the mined dictionary carries the folded
// constant) and the ablation with the feedback off must NOT — proving the
// crack comes from the feedback, not from budget.
func TestMagicGateCmpFeedback(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns are slow")
	}
	codeHex, abiJSON := readFixture(t, "magic-gate")

	tgt, err := LoadHex(codeHex, abiJSON)
	if err != nil {
		t.Fatal(err)
	}
	magic := false
	for _, v := range tgt.Dictionary() {
		if v.Hex() == "0x4d414749" {
			magic = true
		}
	}
	if !magic {
		t.Fatalf("assembled magic missing from mined dictionary: %v", tgt.Dictionary())
	}
	on := fuzz.NewTargetCampaign(tgt, fuzz.Options{
		Strategy: fuzz.MuFuzz(), Seed: experiments.GateSeed, Iterations: experiments.GateBudget,
	}).Run()
	if !on.BugClasses[oracle.BugClass("US")] {
		t.Errorf("magic gate not cracked with comparison feedback on (classes %v)", on.BugClasses)
	}

	off := fuzz.MuFuzz()
	off.Name = "MuFuzz w/o comparison feedback"
	off.CmpFeedback = false
	off.MinedDictionary = false
	offTgt, err := LoadHex(codeHex, abiJSON)
	if err != nil {
		t.Fatal(err)
	}
	offRes := fuzz.NewTargetCampaign(offTgt, fuzz.Options{
		Strategy: off, Seed: experiments.GateSeed, Iterations: experiments.GateBudget,
	}).Run()
	if offRes.BugClasses[oracle.BugClass("US")] {
		t.Error("magic gate cracked with the feedback off — the fixture no longer separates the ablation")
	}
}
