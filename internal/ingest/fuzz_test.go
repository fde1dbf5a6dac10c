package ingest

import (
	"encoding/hex"
	"strings"
	"testing"

	"mufuzz/internal/fuzz"
)

// FuzzIngestLoad fuzzes the source-free front door: a spec's bytecode and
// ABI JSON are bytes from outside, so Load must either refuse them with an
// error or yield a target that a campaign can be built on and run for a few
// iterations without panicking. The seeds are the five bundled fixtures.
func FuzzIngestLoad(f *testing.F) {
	for _, name := range []string{"erc20", "crowdsale-buggy", "magic-gate", "bank-reentrant", "proxy-delegate"} {
		codeHex, abiJSON := readFixture(f, name)
		code, err := hex.DecodeString(strings.TrimPrefix(strings.TrimSpace(codeHex), "0x"))
		if err != nil {
			f.Fatalf("fixture %s: %v", name, err)
		}
		f.Add(code, abiJSON)
	}
	f.Fuzz(func(t *testing.T, code, abiJSON []byte) {
		if len(code) > 4096 || len(abiJSON) > 8192 {
			return // keep each campaign short; size adds no new behavior
		}
		tgt, err := Load(code, abiJSON)
		if err != nil {
			return
		}
		fuzz.NewTargetCampaign(tgt, fuzz.Options{Strategy: fuzz.MuFuzz(), Seed: 1, Iterations: 12}).Run()
	})
}
