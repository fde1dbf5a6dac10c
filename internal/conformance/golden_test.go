package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"mufuzz/internal/fuzz"
	"mufuzz/internal/world"
)

// crossCommitGoldens pins the world and source-free paths across commits,
// as goldenFingerprints in internal/fuzz pins crowdsale: each campaign's
// transcript must keep its final and classes lines and its SHA-256. The
// other world checks compare a campaign only with itself at one commit
// (cache on/off, IR on/off), so a change that moves both sides alike shows
// only here. Regenerate with MUFUZZ_GOLDEN_REGEN=1 only after an
// intentional behavior change.
var crossCommitGoldens = []struct {
	name     string
	primary  string
	token    bool // erc20 as world member "token"
	attacker bool
	seed     int64
	iters    int
	final    string
	classes  string
	sha256   string
}{
	{"bank-erc20-attacker", "bank-reentrant", true, true, 3, 3000,
		"final covered=15 total=18 execs=3000 queue=7 masks=14 seqmut=795",
		"classes RE",
		"f70e04ea7285f745b0a65e4ce08d04501d2bd47016cbed5033fb27e0cf09c087"},
	{"proxy-delegate-attacker", "proxy-delegate", false, true, 5, 4000,
		"final covered=9 total=10 execs=4000 queue=5 masks=6 seqmut=1164",
		"classes EF,UD",
		"0eef760df02e730f80ef3e80bf41f9965a4b136d02922ae6a7ff409602bc3ba7"},
	{"magic-gate", "magic-gate", false, false, 1, 3000,
		"final covered=7 total=10 execs=3000 queue=6 masks=8 seqmut=859",
		"classes US",
		"a3675b45b3ce8abd35d290db3fd2e7f3cc6511d10e1d0a83dce54fe8765ab6d9"},
}

func TestCrossCommitGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns are slow")
	}
	regen := os.Getenv("MUFUZZ_GOLDEN_REGEN") != ""
	for _, gc := range crossCommitGoldens {
		t.Run(gc.name, func(t *testing.T) {
			tgt := loadFixtureTarget(t, gc.primary)
			o := fuzz.Options{Strategy: fuzz.MuFuzz(), Seed: gc.seed, Iterations: gc.iters}
			if gc.token || gc.attacker {
				o.World = &fuzz.WorldOptions{}
				if gc.token {
					o.World.Members = []fuzz.WorldMember{{Name: "token", Target: loadFixtureTarget(t, "erc20")}}
				}
				if gc.attacker {
					o.World.Attacker = world.NewModel(tgt.Methods())
				}
			}
			enc := RecordTargetCampaign(gc.name, tgt, o).Transcript.EncodeBytes()
			var final, classes string
			for _, line := range strings.Split(string(enc), "\n") {
				if strings.HasPrefix(line, "final ") {
					final = line
				} else if strings.HasPrefix(line, "classes") {
					classes = line
				}
			}
			sum := sha256.Sum256(enc)
			got := hex.EncodeToString(sum[:])
			if regen {
				t.Logf("golden %s:\n%q,\n%q,\n%q", gc.name, final, classes, got)
				return
			}
			if final != gc.final || classes != gc.classes {
				t.Errorf("summary drifted from golden\n got %s\n     %s\nwant %s\n     %s", final, classes, gc.final, gc.classes)
			}
			if got != gc.sha256 {
				t.Errorf("transcript SHA-256 drifted from golden\n got %s\nwant %s", got, gc.sha256)
			}
		})
	}
}
