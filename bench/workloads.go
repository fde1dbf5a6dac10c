package main

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mufuzz/internal/corpus"
	"mufuzz/internal/experiments"
	"mufuzz/internal/minisol"
	"mufuzz/internal/oracle"
	"mufuzz/internal/service"
)

// contract is one contract a workload fuzzes, in both of its forms: MiniSol
// source and the runtime bytecode plus ABI JSON the compiler makes of it.
// The set-up layer probes time each form's front end (minisol, ingest) on
// the workload's own contracts, whichever form its campaigns consume.
type contract struct {
	name   string
	source string
	bin    string // 0x-prefixed runtime bytecode hex
	abi    []byte // Solidity ABI JSON
	code   []byte // runtime bytecode
}

// campaign is one campaign of a workload: its spec, the bug classes it is
// labelled with, and whether it is a safe contract that must stay silent.
type campaign struct {
	spec   service.CampaignSpec
	labels []oracle.BugClass
	safe   bool
}

// workload is one fixed set of campaigns the benchmark runs. Engine
// workloads run their campaigns on the engine directly; the fleet workload
// submits them to a fleet coordinator and drains them with one worker.
type workload struct {
	name string
	// fleet runs the campaigns through the control plane.
	fleet bool
	// budget is every campaign's execution budget.
	budget int
	// contracts are the distinct contracts of the workload.
	contracts []contract
	// campaigns derives the campaign set from the workload seed.
	campaigns func(seed int64) []campaign
}

// Workload sizes. The engine workloads run consecutive campaign seeds; the
// fleet workload runs the 25 suite contracts once each at the detection
// gate's budget. A trial runs every campaign once, so these sizes set how
// many trials fit in a run: about 10 on a 2-CPU host with 8 campaigns,
// enough that each timed unit's fastest time over the trials misses the
// host's slow spells. A bank-world campaign's cost per execution depends on
// its seed (allocation per execution ranges 10-42 KB over seeds 1..60), so
// that workload averages over 16 campaigns to keep its rate from varying
// with -seed.
const (
	engineCampaigns = 8
	bankCampaigns   = 16
	crowdsaleBudget = 20000
	magicBudget     = 10000
	bankBudget      = 10000
)

// fixtureSources names the corpus sources the committed bytecode fixtures
// are compiled from (cmd/corpusgen writes them).
var fixtureSources = map[string]func() string{
	"magic-gate":     corpus.MagicGate,
	"bank-reentrant": corpus.BankReentrant,
	"erc20":          corpus.Token,
}

// loadFixture reads a committed bytecode fixture and pairs it with its
// corpus source.
func loadFixture(repo, name string) (contract, error) {
	bin, err := os.ReadFile(filepath.Join(repo, "fixtures", name+".bin"))
	if err != nil {
		return contract{}, err
	}
	abiJSON, err := os.ReadFile(filepath.Join(repo, "fixtures", name+".abi.json"))
	if err != nil {
		return contract{}, err
	}
	src, ok := fixtureSources[name]
	if !ok {
		return contract{}, fmt.Errorf("fixture %s has no corpus source", name)
	}
	hexCode := strings.TrimPrefix(strings.TrimSpace(string(bin)), "0x")
	code, err := hex.DecodeString(hexCode)
	if err != nil {
		return contract{}, fmt.Errorf("fixture %s: %w", name, err)
	}
	return contract{name: name, source: src(), bin: "0x" + hexCode, abi: abiJSON, code: code}, nil
}

// compileContract compiles a corpus source into both forms.
func compileContract(name, src string) (contract, error) {
	comp, err := minisol.Compile(src)
	if err != nil {
		return contract{}, fmt.Errorf("%s: %w", name, err)
	}
	return contract{
		name:   name,
		source: src,
		bin:    "0x" + hex.EncodeToString(comp.Code),
		abi:    comp.ABI.EncodeJSON(),
		code:   comp.Code,
	}, nil
}

// engineCampaignSet builds n campaigns of one spec at seeds seed..seed+n-1.
func engineCampaignSet(base service.CampaignSpec, n int, seed int64, label oracle.BugClass) []campaign {
	out := make([]campaign, n)
	for i := range out {
		spec := base
		spec.Seed = seed + int64(i)
		out[i] = campaign{spec: spec, labels: []oracle.BugClass{label}}
	}
	return out
}

// loadWorkloads builds the four workloads from the inputs committed under
// repo (the checkout root).
func loadWorkloads(repo string) ([]*workload, error) {
	crowd, err := compileContract("crowdsale-buggy", corpus.CrowdsaleBuggy())
	if err != nil {
		return nil, err
	}
	fixtures := make(map[string]contract)
	for _, name := range []string{"magic-gate", "bank-reentrant", "erc20"} {
		c, err := loadFixture(repo, name)
		if err != nil {
			return nil, fmt.Errorf("load fixture: %w", err)
		}
		fixtures[name] = c
	}
	magic, bank, token := fixtures["magic-gate"], fixtures["bank-reentrant"], fixtures["erc20"]

	var suite []contract
	var suiteLabels [][]oracle.BugClass
	vulnerable := append(corpus.SWCSuite(), corpus.ExtraSuite()...)
	safe := corpus.SafeSuite()
	for _, l := range append(append([]corpus.Labeled(nil), vulnerable...), safe...) {
		c, err := compileContract(l.Name, l.Source)
		if err != nil {
			return nil, err
		}
		suite = append(suite, c)
		suiteLabels = append(suiteLabels, l.Labels)
	}

	return []*workload{
		{
			name:      "crowdsale-buggy-w1",
			budget:    crowdsaleBudget,
			contracts: []contract{crowd},
			campaigns: func(seed int64) []campaign {
				return engineCampaignSet(service.CampaignSpec{
					Name: crowd.name, Source: crowd.source, Strategy: "mufuzz",
					Iterations: crowdsaleBudget, Workers: 1,
				}, engineCampaigns, seed, oracle.BD)
			},
		},
		{
			name:      "magic-gate-w2",
			budget:    magicBudget,
			contracts: []contract{magic},
			campaigns: func(seed int64) []campaign {
				return engineCampaignSet(service.CampaignSpec{
					Name: magic.name, Bytecode: magic.bin, ABI: magic.abi, Strategy: "mufuzz",
					Iterations: magicBudget, Workers: 2,
				}, engineCampaigns, seed, oracle.US)
			},
		},
		{
			name:      "bank-world-w1",
			budget:    bankBudget,
			contracts: []contract{bank, token},
			campaigns: func(seed int64) []campaign {
				return engineCampaignSet(service.CampaignSpec{
					Name: bank.name, Bytecode: bank.bin, ABI: bank.abi, Strategy: "mufuzz",
					Members:    []service.WorldMemberSpec{{Name: "token", Bytecode: token.bin, ABI: token.abi}},
					Attacker:   true,
					Iterations: bankBudget, Workers: 1,
				}, bankCampaigns, seed, oracle.RE)
			},
		},
		{
			name:      "swc-fleet",
			fleet:     true,
			budget:    experiments.GateBudget,
			contracts: suite,
			campaigns: func(seed int64) []campaign {
				out := make([]campaign, len(suite))
				for i, c := range suite {
					out[i] = campaign{
						spec: service.CampaignSpec{
							Name: c.name, Source: c.source, Strategy: "mufuzz",
							Seed: seed, Iterations: experiments.GateBudget, Workers: 1,
						},
						labels: suiteLabels[i],
						safe:   i >= len(vulnerable),
					}
				}
				return out
			},
		},
	}, nil
}

// findWorkload returns the named workload.
func findWorkload(ws []*workload, name string) (*workload, error) {
	var names []string
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
