package world

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mufuzz/internal/analysis"
	"mufuzz/internal/corpus"
	"mufuzz/internal/evm"
	"mufuzz/internal/experiments"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/ingest"
	"mufuzz/internal/minisol"
	"mufuzz/internal/oracle"
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

const fixturesDir = "../../fixtures"

func loadFixture(t *testing.T, name string) fuzz.Target {
	t.Helper()
	bin, err := os.ReadFile(filepath.Join(fixturesDir, name+".bin"))
	if err != nil {
		t.Fatalf("fixture missing (regen with `go run ./cmd/corpusgen -fixtures fixtures`): %v", err)
	}
	abiJSON, err := os.ReadFile(filepath.Join(fixturesDir, name+".abi.json"))
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := ingest.LoadHex(string(bin), abiJSON)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// TestWorldSeparationBankReentrant is the tentpole's detection gate, run
// source-free on the bundled fixture exactly the way the CI world-smoke job
// drives the CLI. The bank notifies the withdrawer with a ZERO-value call
// before paying out via 2300-stipend transfer: the single-contract engine's
// heuristic reentrancy oracle (which demands a reentry enabled by a
// value-bearing call) must stay silent, while the world campaign — same
// budget, same seed, attacker synthesis on — must crack RE through an
// actual reentrant schedule confirmed by state divergence.
func TestWorldSeparationBankReentrant(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns are slow")
	}
	plainTgt := loadFixture(t, "bank-reentrant")
	plain := fuzz.NewTargetCampaign(plainTgt, fuzz.Options{
		Strategy: fuzz.MuFuzz(), Seed: experiments.WorldGateSeed,
		Iterations: experiments.WorldGateBudget,
	}).Run()
	if len(plain.Findings) != 0 {
		t.Fatalf("single-contract engine flagged the bank: %v — the fixture no longer separates", plain.BugClasses)
	}

	worldTgt := loadFixture(t, "bank-reentrant")
	c := fuzz.NewTargetCampaign(worldTgt, fuzz.Options{
		Strategy: fuzz.MuFuzz(), Seed: experiments.WorldGateSeed,
		Iterations: experiments.WorldGateBudget,
		World:      &fuzz.WorldOptions{Attacker: NewModel(worldTgt.Methods())},
	})
	res := c.Run()
	if !res.BugClasses[oracle.RE] {
		t.Fatalf("world campaign did not crack RE (classes %v)", res.BugClasses)
	}

	// The proof of concept must replay: same witnessed verdict, divergence
	// included, on a detached engine — and carry an attacker spec.
	repro := res.Repro[oracle.RE]
	if len(repro) == 0 || len(repro[0].Attacker) == 0 {
		t.Fatalf("RE repro missing or carries no attacker spec: %v", repro)
	}
	if !c.Replay(repro).BugClasses[oracle.RE] {
		t.Fatal("RE repro does not replay")
	}
	min := c.MinimizeForBug(repro, oracle.RE)
	if !c.Replay(min).BugClasses[oracle.RE] {
		t.Fatal("minimized RE repro does not replay")
	}
	t.Logf("RE repro minimized %d -> %d transactions", len(repro), len(min))
}

// TestWitnessedUDProxyDelegate: a world campaign on the delegatecall proxy
// must produce a witnessed UD finding — the proxy actually delegatecalled
// the synthesized attacker's code — not just a taint shape. It must not
// report UE: the proxy has no CALL of its own, and the failing calls the
// attacker's code makes in the proxy's storage context are not the proxy's.
func TestWitnessedUDProxyDelegate(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns are slow")
	}
	tgt := loadFixture(t, "proxy-delegate")
	res := fuzz.NewTargetCampaign(tgt, fuzz.Options{
		Strategy: fuzz.MuFuzz(), Seed: experiments.WorldGateSeed,
		Iterations: experiments.WorldGateBudget,
		World:      &fuzz.WorldOptions{Attacker: NewModel(tgt.Methods())},
	}).Run()
	if !res.BugClasses[oracle.UD] {
		t.Fatalf("witnessed UD not found on proxy (classes %v)", res.BugClasses)
	}
	if res.BugClasses[oracle.UE] {
		t.Fatalf("UE reported on a proxy without a CALL of its own (repro %s)", res.Repro[oracle.UE])
	}
}

// TestDelegatedAttackerCodeRecordsNoBranches pins which code the trace
// records branches for: when the proxy's forward delegatecalls the
// synthesized attacker, the attacker's code runs in the proxy's storage
// context but is not the proxy's code, so its JUMPIs record no branch event.
// Every edge the replay reports is one of the proxy's JUMPI sites.
func TestDelegatedAttackerCodeRecordsNoBranches(t *testing.T) {
	tgt := loadFixture(t, "proxy-delegate")
	model := NewModel(tgt.Methods())
	c := fuzz.NewTargetCampaign(tgt, fuzz.Options{
		Strategy: fuzz.MuFuzz(), Seed: 1, Iterations: 1,
		World: &fuzz.WorldOptions{Attacker: model},
	})
	sites := make(map[uint64]bool)
	for _, pc := range analysis.BuildCFG(tgt.Code()).BranchPCs() {
		sites[pc] = true
	}
	// The attacker's code has a JUMPI where the proxy has none, so an
	// event recorded from it would show as a foreign edge below.
	foreign := false
	for _, ins := range analysis.Disassemble(model.Compile(model.Default())) {
		if ins.Op == evm.JUMPI && !sites[ins.PC] {
			foreign = true
		}
	}
	if !foreign {
		t.Fatal("every attacker JUMPI pc is also a proxy JUMPI site; the check below would be vacuous")
	}

	attacker := state.AddressFromUint(0xa77c) // the campaign's attacker account
	impl, cmd := attacker.Word().Bytes32(), u256.One.Bytes32()
	seq := fuzz.Sequence{
		{Func: tgt.Constructor().Name, Attacker: model.Default()},
		{Func: "forward", Args: append(impl[:], cmd[:]...), Sender: 1},
	}
	rr := c.Replay(seq)
	if !rr.BugClasses[oracle.UD] {
		t.Fatalf("forward did not delegatecall the attacker (classes %v)", rr.BugClasses)
	}
	if len(rr.Edges) == 0 {
		t.Fatal("no edges recorded")
	}
	for k := range rr.Edges {
		if k.Addr != c.ContractAddr() || !sites[k.PC] {
			t.Errorf("edge %+v is not a JUMPI site of the proxy", k)
		}
	}
}

// TestEmptyWorldIsPlainCampaign pins the normalization contract: a world
// that adds nothing (no members, no attacker) runs the exact single-contract
// engine — identical coverage, executions, findings, and queue sequences
// for the same seed.
func TestEmptyWorldIsPlainCampaign(t *testing.T) {
	comp, err := minisol.Compile(corpus.Crowdsale())
	if err != nil {
		t.Fatal(err)
	}
	opts := fuzz.Options{Strategy: fuzz.MuFuzz(), Seed: 42, Iterations: 600}
	plainC := fuzz.NewCampaign(comp, opts)
	plain := plainC.Run()

	wopts := opts
	wopts.World = &fuzz.WorldOptions{}
	worldC := fuzz.NewCampaign(comp, wopts)
	world := worldC.Run()

	if plain.Coverage != world.Coverage || plain.Executions != world.Executions ||
		len(plain.Findings) != len(world.Findings) {
		t.Fatalf("empty world diverged: cov %v vs %v, execs %d vs %d",
			plain.Coverage, world.Coverage, plain.Executions, world.Executions)
	}
	if !reflect.DeepEqual(plainC.QueueSequences(), worldC.QueueSequences()) {
		t.Fatal("empty world produced different queue sequences")
	}
}

// TestMultiContractCampaign runs a two-contract world — the bank as primary
// plus the token as a secondary member — and checks the cross-contract
// plumbing: qualified member functions enter sequences with their callee
// index, member constructors follow the anchor, and the campaign still
// drives primary coverage.
func TestMultiContractCampaign(t *testing.T) {
	bank := loadFixture(t, "bank-reentrant")
	token := loadFixture(t, "erc20")
	c := fuzz.NewTargetCampaign(bank, fuzz.Options{
		Strategy: fuzz.MuFuzz(), Seed: 1, Iterations: 800,
		World: &fuzz.WorldOptions{
			Members: []fuzz.WorldMember{{Name: "token", Target: token}},
		},
	})
	res := c.Run()
	if res.CoveredEdges == 0 {
		t.Fatal("no primary coverage in multi-contract world")
	}
	sawMember := false
	for _, seq := range c.QueueSequences() {
		for _, tx := range seq {
			if tx.Callee == 1 {
				sawMember = true
				if tx.Func[:6] != "token." {
					t.Fatalf("callee 1 with unqualified func %q", tx.Func)
				}
			}
		}
	}
	if !sawMember {
		t.Fatal("no member-contract transaction reached the seed queue")
	}
}

// TestWorldSnapshotAttackerResume pins snapshot v3 for attacker-synthesis
// campaigns: a paused world campaign round-trips through the text encoding
// (attacker specs ride on the serialized sequences), refuses to resume
// without an attacker model, and — resupplied with one — finishes with the
// uninterrupted run's exact results.
func TestWorldSnapshotAttackerResume(t *testing.T) {
	tgt := loadFixture(t, "bank-reentrant")
	world := func() *fuzz.WorldOptions { return &fuzz.WorldOptions{Attacker: NewModel(tgt.Methods())} }
	opts := fuzz.Options{Strategy: fuzz.MuFuzz(), Seed: 3, Iterations: 1200, World: world()}

	fullOpts := opts
	fullOpts.World = world()
	fullC := fuzz.NewTargetCampaign(tgt, fullOpts)
	full := fullC.Run()

	c := fuzz.NewTargetCampaign(tgt, opts)
	if _, done := c.RunSlice(context.Background(), 3); done {
		t.Fatal("campaign finished before the pause point; grow the budget")
	}
	enc := c.Snapshot().EncodeBytes()
	if !bytes.Contains(enc, []byte("\nworld attacker=1")) {
		t.Fatal("attacker mode missing from snapshot encoding")
	}
	snap, err := fuzz.DecodeSnapshot(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.EncodeBytes(), enc) {
		t.Fatal("attacker snapshot encode/decode/encode is not byte-stable")
	}
	if _, err := fuzz.ResumeTargetCampaign(tgt, snap); err == nil {
		t.Fatal("ResumeTargetCampaign accepted an attacker-campaign snapshot")
	}
	resumed, err := fuzz.ResumeWorldCampaign(tgt, world(), snap)
	if err != nil {
		t.Fatal(err)
	}
	res := resumed.Run()
	if res.Coverage != full.Coverage || res.Executions != full.Executions ||
		!reflect.DeepEqual(res.BugClasses, full.BugClasses) {
		t.Fatalf("resumed attacker campaign diverged: cov %v vs %v, execs %d vs %d, classes %v vs %v",
			res.Coverage, full.Coverage, res.Executions, full.Executions, res.BugClasses, full.BugClasses)
	}
	// Compare queues by canonical encoding: the text round trip turns empty
	// Args/Attacker slices into nil ones, which DeepEqual would flag.
	fullQ, resQ := fullC.QueueSequences(), resumed.QueueSequences()
	if len(fullQ) != len(resQ) {
		t.Fatalf("resumed queue has %d sequences, uninterrupted %d", len(resQ), len(fullQ))
	}
	for i := range fullQ {
		if !bytes.Equal(fuzz.EncodeSequence(fullQ[i]), fuzz.EncodeSequence(resQ[i])) {
			t.Fatalf("resumed queue sequence %d diverged:\n%s\nvs\n%s",
				i, fuzz.EncodeSequence(fullQ[i]), fuzz.EncodeSequence(resQ[i]))
		}
	}
}

func TestBucketID(t *testing.T) {
	bank := loadFixture(t, "bank-reentrant")
	token := loadFixture(t, "erc20")
	ab, ba := BucketID(bank, token), BucketID(token, bank)
	if ab != ba {
		t.Fatalf("bucket depends on member order: %s vs %s", ab, ba)
	}
	if solo := BucketID(bank); solo == ab {
		t.Fatal("different worlds share a bucket")
	}
	if len(ab) != len("world-")+12 {
		t.Fatalf("unexpected bucket shape %q", ab)
	}
}

func TestParseManifest(t *testing.T) {
	members, err := ParseManifest([]byte(`
# world manifest
member token fixtures/erc20.bin fixtures/erc20.abi.json
member vault v.bin v.abi.json 0x00000000000000000000000000000000000000c9
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 || members[0].Name != "token" || members[1].Addr != state.AddressFromUint(0xc9) {
		t.Fatalf("bad parse: %+v", members)
	}
	for _, bad := range []string{
		"member dup a b\nmember dup c d\n",
		"member short a\n",
		"bogus line here ok\n",
		"member x a b notanaddress\n",
	} {
		if _, err := ParseManifest([]byte(bad)); err == nil {
			t.Errorf("manifest %q parsed without error", bad)
		}
	}
}

// FuzzParseManifest feeds arbitrary text to the world-manifest parser,
// seeded with well-formed and malformed manifests. It must never panic, and
// every manifest it accepts names each member once, with a nonempty name.
func FuzzParseManifest(f *testing.F) {
	f.Add([]byte("# world manifest\nmember token fixtures/erc20.bin fixtures/erc20.abi.json\n"))
	f.Add([]byte("member vault v.bin v.abi.json 0x00000000000000000000000000000000000000c9\n\nmember t t.bin t.abi\n"))
	f.Add([]byte("member dup a b\nmember dup c d\n"))
	f.Add([]byte("member x a b notanaddress\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		members, err := ParseManifest(data)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, m := range members {
			if m.Name == "" || seen[m.Name] {
				t.Fatalf("accepted manifest %q names member %q twice or empty: %+v", data, m.Name, members)
			}
			seen[m.Name] = true
		}
	})
}
