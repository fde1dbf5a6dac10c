package fuzz_test

import (
	"os"
	"path/filepath"
	"testing"

	"mufuzz/internal/corpus"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/ingest"
	"mufuzz/internal/minisol"
	"mufuzz/internal/world"
)

// loadFixture ingests a bundled bytecode fixture (fixtures/<name>.*).
func loadFixture(t *testing.T, name string) fuzz.Target {
	t.Helper()
	dir := filepath.Join("..", "..", "fixtures")
	bin, err := os.ReadFile(filepath.Join(dir, name+".bin"))
	if err != nil {
		t.Fatalf("fixture missing (regen with `go run ./cmd/corpusgen -fixtures fixtures`): %v", err)
	}
	abiJSON, err := os.ReadFile(filepath.Join(dir, name+".abi.json"))
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := ingest.LoadHex(string(bin), abiJSON)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// TestTraceRecordCounts is a count gate on what the EVM records per
// transaction for the oracles: taint sinks and overflow events. It runs the
// performance ledger's three engine configurations at fixed seeds and small
// budgets and fails when a count exceeds its budget. The counts are work,
// not timing, so they repeat exactly on any host. Only sinks an oracle can
// fire on are recorded (a SinkSources bit, in the inspected contract's
// storage context): 0.38, 0 and 0 per transaction. Recording every tainted
// sink of every frame cost 11.6 (crowdsale-buggy), 12.0 (bank world) and
// 6.9 (magic-gate) per transaction at the same budgets, and each sink
// budget is under a tenth of that.
func TestTraceRecordCounts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		campaign  func(t *testing.T) *fuzz.Campaign
		sinks     float64 // budget, recorded sinks per transaction
		overflows float64 // budget, recorded overflow events per transaction
	}{
		{"crowdsale-buggy", func(t *testing.T) *fuzz.Campaign {
			comp, err := minisol.Compile(corpus.CrowdsaleBuggy())
			if err != nil {
				t.Fatal(err)
			}
			return fuzz.NewCampaign(comp, fuzz.Options{Strategy: fuzz.MuFuzz(), Seed: 1, Iterations: 20_000})
		}, 0.45, 0.001},
		{"bank-world", func(t *testing.T) *fuzz.Campaign {
			bank := loadFixture(t, "bank-reentrant")
			return fuzz.NewTargetCampaign(bank, fuzz.Options{
				Strategy: fuzz.MuFuzz(), Seed: 3, Iterations: 10_000,
				World: &fuzz.WorldOptions{
					Members:  []fuzz.WorldMember{{Name: "token", Target: loadFixture(t, "erc20")}},
					Attacker: world.NewModel(bank.Methods()),
				},
			})
		}, 0.001, 0.001},
		{"magic-gate", func(t *testing.T) *fuzz.Campaign {
			return fuzz.NewTargetCampaign(loadFixture(t, "magic-gate"), fuzz.Options{
				Strategy: fuzz.MuFuzz(), Seed: 1, Iterations: 10_000,
			})
		}, 0.001, 0.001},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.campaign(t)
			res := c.Run()
			txs, sinks, overflows := c.TraceCounts()
			if txs == 0 {
				t.Fatal("no transaction ran live")
			}
			perTx := func(n int) float64 { return float64(n) / float64(txs) }
			t.Logf("%d execs, %d live txs: %d sinks (%.4f/tx), %d overflow events (%.4f/tx)",
				res.Executions, txs, sinks, perTx(sinks), overflows, perTx(overflows))
			if perTx(sinks) > tc.sinks {
				t.Errorf("%.4f sinks recorded per transaction, budget %g", perTx(sinks), tc.sinks)
			}
			if perTx(overflows) > tc.overflows {
				t.Errorf("%.4f overflow events recorded per transaction, budget %g", perTx(overflows), tc.overflows)
			}
		})
	}
}
