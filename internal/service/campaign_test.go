package service

import (
	"encoding/json"
	"strings"
	"testing"

	"mufuzz/internal/conformance"
)

// TestResolve pins what Resolve returns for each kind of spec — the
// canonical spec, the seed-sharing bucket, the name, and the options as a
// transcript's options line records them — and that every bad spec the
// service and the fleet refuse still fails here.
func TestResolve(t *testing.T) {
	bankBin, bankABI := fixtureSpecParts(t, "bank-reentrant")
	tokBin, tokABI := fixtureSpecParts(t, "erc20")
	token := []WorldMemberSpec{{Name: "token", Bytecode: tokBin, ABI: tokABI}}
	const src = "contract C { uint x; function f(uint a) public { if (a == 7) { x = 1; } } }"

	for _, tc := range []struct {
		name           string
		spec           CampaignSpec
		strategy       string
		seed           int64
		iters          int
		bucket, called string
		world          string
	}{
		{"example", CampaignSpec{Example: "crowdsale-buggy"},
			"MuFuzz", 1, 1234, "CrowdsaleBuggy", "CrowdsaleBuggy", ""},
		{"source", CampaignSpec{Source: src, Name: "mine", Strategy: "sfuzz", Seed: 5, Iterations: 300},
			"sFuzz", 5, 300, "C", "mine", ""},
		{"bytecode", CampaignSpec{Bytecode: bankBin, ABI: bankABI, Strategy: "Smartian", Iterations: 700},
			"Smartian", 1, 700, "code-f2541e4d1168", "code-f2541e4d1168", ""},
		{"world", CampaignSpec{Bytecode: bankBin, ABI: bankABI, Members: token, Attacker: true, Seed: 9},
			"MuFuzz", 9, 1234, "world-53bde05a1bea", "code-f2541e4d1168", "token;attacker"},
		{"attacker", CampaignSpec{Example: "game", Attacker: true},
			"MuFuzz", 1, 1234, "Game", "Game", ";attacker"},
	} {
		r, err := Resolve(tc.spec, 1234)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := tc.spec
		want.Strategy, want.Seed, want.Iterations = tc.strategy, tc.seed, tc.iters
		got, _ := json.Marshal(r.Spec)
		if w, _ := json.Marshal(want); string(got) != string(w) {
			t.Errorf("%s: canonical spec\n got %s\nwant %s", tc.name, got, w)
		}
		if r.Bucket != tc.bucket || r.Name != tc.called {
			t.Errorf("%s: bucket %q name %q, want %q %q", tc.name, r.Bucket, r.Name, tc.bucket, tc.called)
		}
		wantOpts := conformance.OptionsSummary{Strategy: tc.strategy, Seed: tc.seed, Iterations: tc.iters, World: tc.world}
		if got := conformance.SummarizeOptions(r.Options.Normalized()); got != wantOpts {
			t.Errorf("%s: options %+v, want %+v", tc.name, got, wantOpts)
		}
		if (r.World == nil) != (tc.world == "") || r.Options.World != r.World {
			t.Errorf("%s: world %v, options world %v", tc.name, r.World, r.Options.World)
		}
		// The canonical spec resolves to itself.
		again, err := Resolve(r.Spec, 0)
		if err != nil || again.Spec.Seed != r.Spec.Seed || again.Spec.Iterations != r.Spec.Iterations ||
			again.Spec.Strategy != r.Spec.Strategy || again.Bucket != r.Bucket || again.Name != r.Name {
			t.Errorf("%s: canonical spec re-resolves differently: %+v, %v", tc.name, again, err)
		}
	}

	for name, spec := range map[string]CampaignSpec{
		"unknown strategy":      {Example: "crowdsale", Strategy: "afl"},
		"no target":             {Iterations: 10},
		"ambiguous":             {Example: "crowdsale", Bytecode: "0x6001", ABI: []byte("[]")},
		"unknown example":       {Example: "nope"},
		"bad source":            {Source: "contract Broken {"},
		"bytecode without abi":  {Bytecode: "0x6001"},
		"junk hex":              {Bytecode: "zz", ABI: []byte("[]")},
		"unnamed member":        {Bytecode: bankBin, ABI: bankABI, Members: []WorldMemberSpec{{Bytecode: tokBin, ABI: tokABI}}},
		"duplicate member":      {Bytecode: bankBin, ABI: bankABI, Members: append(token, token...)},
		"member w/o artifacts":  {Bytecode: bankBin, ABI: bankABI, Members: []WorldMemberSpec{{Name: "token"}}},
		"member with junk code": {Bytecode: bankBin, ABI: bankABI, Members: []WorldMemberSpec{{Name: "token", Bytecode: "zz", ABI: tokABI}}},
	} {
		if r, err := Resolve(spec, 1234); err == nil {
			t.Errorf("%s: resolved to %+v", name, r)
		}
	}
}

// TestOpenReportsCorruptSnapshotOnce pins that Open returns the snapshot
// decoder's error as it is: the decoder already names what failed, so a
// corrupt snapshot's error says "decode snapshot" once, in the CLI, the
// service and the fleet alike.
func TestOpenReportsCorruptSnapshotOnce(t *testing.T) {
	r, err := Resolve(CampaignSpec{Example: "crowdsale"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Open([]byte("garbage\n"))
	if err == nil || strings.Count(err.Error(), "decode snapshot") != 1 {
		t.Fatalf("garbage snapshot: err = %v, want one mention of decode snapshot", err)
	}
}
