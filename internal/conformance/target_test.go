package conformance

import (
	"bytes"
	"encoding/hex"
	"os"
	"testing"

	"mufuzz/internal/fuzz"
	"mufuzz/internal/keccak"
)

// targetGoldenHashes pins the keccak256 of each diff contract's transcript
// recorded through the Target interface (minisol adapter, MuFuzz preset,
// seed 5, 200 iterations). Regenerated when comparison-operand feedback and
// mined dictionaries became part of the MuFuzz default. Regenerate with
// MUFUZZ_GOLDEN_REGEN=1 after an intentional behavior change.
var targetGoldenHashes = map[string]string{
	"crowdsale":         "4083c35706f55f5e5f856278a5ad630eab21b29acdfc90b60e2528a03a98e80a",
	"crowdsale-buggy":   "f2990dc8a6e458d9b6f5198666d7d9998f5c1b101e8b4040e98d0965510b1cbb",
	"re_swc107_crossfn": "3a54e0bbd8ce98022c4ddb4ee4f8e5f90ec2b40edeb8230f03cf4bd2c268e037",
}

// TestTargetAdapterConformance pins the Target refactor three ways: a
// campaign recorded through the explicit minisol adapter must be
// byte-identical to one recorded through the classic compiled-contract
// entry point, must replay byte-identically on a detached engine, and must
// hash to the committed golden — so the adapter cannot drift from the
// pre-refactor engine without tripping a diff here.
func TestTargetAdapterConformance(t *testing.T) {
	regen := os.Getenv("MUFUZZ_GOLDEN_REGEN") != ""
	for name, comp := range diffContracts(t) {
		t.Run(name, func(t *testing.T) {
			opts := baseOptions(5, 200)

			classic := RecordCampaign(name, comp, opts)
			adapter := RecordTargetCampaign(name, fuzz.MinisolTarget(comp), opts)

			a, b := classic.Transcript.EncodeBytes(), adapter.Transcript.EncodeBytes()
			if !bytes.Equal(a, b) {
				d := Diff(classic.Transcript, adapter.Transcript)
				t.Fatalf("adapter transcript diverged from classic entry point: %v", d)
			}

			if _, d := ReplayCheck(fuzz.MinisolTarget(comp), nil, adapter.Transcript); d != nil {
				t.Fatalf("adapter transcript does not replay: %v", d)
			}

			sum := keccak.Sum256(b)
			got := hex.EncodeToString(sum[:])
			if regen {
				t.Logf("golden transcript hash %q: %s", name, got)
				return
			}
			if want := targetGoldenHashes[name]; got != want {
				t.Errorf("transcript hash drifted from golden\n got %s\nwant %s", got, want)
			}
		})
	}
}
