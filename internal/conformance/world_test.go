package conformance

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mufuzz/internal/fuzz"
	"mufuzz/internal/ingest"
	"mufuzz/internal/world"
)

func loadFixtureTarget(t testing.TB, name string) fuzz.Target {
	t.Helper()
	bin, err := os.ReadFile(filepath.Join("../../fixtures", name+".bin"))
	if err != nil {
		t.Fatalf("fixture missing (regen with `go run ./cmd/corpusgen -fixtures fixtures`): %v", err)
	}
	abiJSON, err := os.ReadFile(filepath.Join("../../fixtures", name+".abi.json"))
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := ingest.LoadHex(string(bin), abiJSON)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// TestWorldTranscriptIdentity is the world analogue of the differential
// class: the same world campaign — bank fixture, synthesized attacker —
// recorded plain (world-w1), without the prefix cache (world-w1-nocache)
// and without the IR (world-w1-noir) must produce identical record streams
// and final summaries, and every transcript must survive independent
// sequence verification. Multi-contract deployment, callee routing, and
// attacker compilation all live on the executor; this pins that neither
// the cache nor the IR changes what they do.
func TestWorldTranscriptIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns are slow")
	}
	base := fuzz.Options{Strategy: fuzz.MuFuzz(), Seed: 2, Iterations: 1500}

	record := func(name string, apply func(*fuzz.Options)) *Run {
		tgt := loadFixtureTarget(t, "bank-reentrant")
		o := base
		apply(&o)
		o.World = &fuzz.WorldOptions{Attacker: world.NewModel(tgt.Methods())}
		run := RecordTargetCampaign(name, tgt, o)
		if err := VerifySequences(run.Campaign, run.Transcript); err != nil {
			t.Fatalf("%s sequence verification: %v", name, err)
		}
		return run
	}
	ref := record("world-w1", func(*fuzz.Options) {})
	for _, v := range []*Run{
		record("world-w1-nocache", func(o *fuzz.Options) { o.NoPrefixCache = true }),
		record("world-w1-noir", func(o *fuzz.Options) { o.NoIR = true }),
	} {
		if d := Diff(ref.Transcript, v.Transcript); d != nil {
			MinimizePoCs(d, ref, v)
			t.Fatalf("%s vs world-w1 diverged: %s", v.Transcript.Contract, d)
		}
	}

	// The transcript must actually exercise the extended format: the anchor
	// carries an attacker spec, and the options line carries the world token.
	enc := ref.Transcript.EncodeBytes()
	if !bytes.Contains(enc, []byte(`world=";attacker"`)) {
		t.Fatal("world token missing from options line")
	}
	found := false
	for _, r := range ref.Transcript.Records {
		if len(r.Seq) > 0 && len(r.Seq[0].Attacker) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no record carries an attacker spec")
	}

	// Round trip: decode(encode) reproduces the transcript, world fields
	// included.
	dec, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("decode world transcript: %v", err)
	}
	if !bytes.Equal(dec.EncodeBytes(), enc) {
		t.Fatal("world transcript encode/decode/encode is not byte-stable")
	}
	if dec.Options.World != ";attacker" {
		t.Fatalf("world token round trip: %q", dec.Options.World)
	}

	// ReplayCheck re-derives the recording from the decoded transcript
	// with a resupplied world.
	tgt := loadFixtureTarget(t, "bank-reentrant")
	_, d := ReplayCheck(tgt, &fuzz.WorldOptions{Attacker: world.NewModel(tgt.Methods())}, dec)
	if d != nil {
		t.Fatalf("world replay diverged: %s", d)
	}
	// Without the world the token cross-check refuses the replay.
	if run, d := ReplayCheck(tgt, nil, dec); run != nil || d == nil || d.Kind != "world" {
		t.Fatalf("plain replay of a world transcript: run %v, divergence %v", run != nil, d)
	}
}

// TestWorldTranscriptMemberToken pins the member half of the world token and
// the callee field round trip on a members-only world.
func TestWorldTranscriptMemberToken(t *testing.T) {
	bank := loadFixtureTarget(t, "bank-reentrant")
	token := loadFixtureTarget(t, "erc20")
	o := fuzz.Options{
		Strategy: fuzz.MuFuzz(), Seed: 1, Iterations: 400,
		World: &fuzz.WorldOptions{Members: []fuzz.WorldMember{{Name: "token", Target: token}}},
	}
	run := RecordTargetCampaign("world-members", bank, o)
	enc := run.Transcript.EncodeBytes()
	if !bytes.Contains(enc, []byte(`world="token"`)) {
		t.Fatal("member world token missing from options line")
	}
	dec, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Options, run.Transcript.Options) {
		t.Fatalf("options round trip: %+v vs %+v", dec.Options, run.Transcript.Options)
	}
	sawCallee := false
	for _, r := range dec.Records {
		for _, tx := range r.Seq {
			if tx.Callee == 1 {
				sawCallee = true
			}
		}
	}
	if !sawCallee {
		t.Fatal("no decoded record carries a member callee")
	}
}
