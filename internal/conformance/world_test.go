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

func loadFixtureTarget(t *testing.T, name string) fuzz.Target {
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

// TestWorldTranscriptIdentity is the world analogue of the batched
// differential class: the same world campaign — bank fixture, synthesized
// attacker — recorded at Workers=2 (world-w2) and at Workers=4 (world-w4)
// must produce identical record streams and final summaries, and both
// transcripts must survive independent sequence verification.
// Multi-contract deployment, callee routing, and attacker compilation all
// live on the executor; this pins that none of them leaks schedule
// nondeterminism.
func TestWorldTranscriptIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns are slow")
	}
	base := fuzz.Options{Strategy: fuzz.MuFuzz(), Seed: 2, Iterations: 1500}

	record := func(name string, workers int) *Run {
		tgt := loadFixtureTarget(t, "bank-reentrant")
		o := base
		o.Workers = workers
		o.World = &fuzz.WorldOptions{Attacker: world.NewModel(tgt.Methods())}
		return RecordTargetCampaign(name, tgt, o)
	}
	w2 := record("world-w2", 2)
	w4 := record("world-w4", 4)

	if d := Diff(w2.Transcript, w4.Transcript); d != nil {
		MinimizePoCs(d, w2, w4)
		t.Fatalf("world-w2 vs world-w4 diverged: %s", d)
	}
	if err := VerifySequences(w2.Campaign, w2.Transcript); err != nil {
		t.Fatalf("world-w2 sequence verification: %v", err)
	}
	if err := VerifySequences(w4.Campaign, w4.Transcript); err != nil {
		t.Fatalf("world-w4 sequence verification: %v", err)
	}

	// The transcript must actually exercise the extended format: the anchor
	// carries an attacker spec, and the options line carries the world token.
	enc := w2.Transcript.EncodeBytes()
	if !bytes.Contains(enc, []byte(`world=";attacker"`)) {
		t.Fatal("world token missing from options line")
	}
	found := false
	for _, r := range w2.Transcript.Records {
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

	// ReplayWorldCheck re-derives the recording from the decoded transcript
	// with a resupplied world.
	tgt := loadFixtureTarget(t, "bank-reentrant")
	_, d := ReplayWorldCheck(tgt, &fuzz.WorldOptions{Attacker: world.NewModel(tgt.Methods())}, dec)
	if d != nil {
		t.Fatalf("world replay diverged: %s", d)
	}
}

// TestWorldTranscriptMemberToken pins the member half of the world token and
// the callee field round trip on a members-only world.
func TestWorldTranscriptMemberToken(t *testing.T) {
	bank := loadFixtureTarget(t, "bank-reentrant")
	token := loadFixtureTarget(t, "erc20")
	o := fuzz.Options{
		Strategy: fuzz.MuFuzz(), Seed: 1, Iterations: 400, Workers: 1, MaxSeqLen: 12,
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
