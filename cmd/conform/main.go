// Command conform drives the conformance subsystem from the command line:
// recording and replaying deterministic campaign transcripts, running the
// differential engine matrix, the strategy matrix, and the corpus-wide
// detection gate. CI's conformance job runs `-mode diff`, a record/replay
// round trip, and the env-gated detection-gate test tier; humans use
// `-mode record`/`-mode replay` to pin down a divergence and `-mode gate`
// to reproduce the gate locally.
//
// Usage:
//
//	conform -mode diff [-contracts a,b,c] [-iters 400] [-seed 1] [-fixtures dir]
//	conform -mode gate [-iters 3000] [-seed 1]
//	conform -mode strategies [-contracts a] [-iters 1000] [-seed 1]
//	conform -mode record -contracts a -out a.transcript [-iters 400]
//	conform -mode replay -in a.transcript [-spec spec.json]
//	conform -mode fleet-ref -spec spec.json -out ref.transcript
//
// Mode fleet-ref records the single-node reference transcript of a fleet
// campaign spec (a service CampaignSpec JSON file, resolved exactly as the
// fleet coordinator resolves submissions): the bytes a coordinator's
// transcript must equal no matter how many workers the campaign
// migrated across. CI's fleet smoke compares this with the transcript of a
// campaign whose worker was killed mid-slice, and replays it.
//
// Mode replay re-runs a transcript and checks the re-recording byte for
// byte. Its contract line names a registry contract, or, with -spec, the
// campaign the spec resolves to (the target's name unless the spec names
// it): the spec supplies the target and world, the transcript the options.
//
// Contract names come from the corpus: "crowdsale", "crowdsale-buggy",
// "game", or any labelled suite name (run `-mode list` to enumerate).
// Mode diff compares, per contract, seq-w1 against seq-w1-nocache and
// seq-w1-noir, and runs the same pairs on a multi-contract world (world-w1
// against world-w1-nocache and world-w1-noir: bank-reentrant primary + token
// member + synthesized attacker) when the ingest fixture dir is present.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mufuzz/internal/conformance"
	"mufuzz/internal/corpus"
	"mufuzz/internal/experiments"
	"mufuzz/internal/fleet"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/minisol"
	"mufuzz/internal/service"
)

// registry maps every named contract source available to the CLI.
func registry() map[string]string {
	out := map[string]string{}
	for _, set := range [][]corpus.Labeled{corpus.Examples(), corpus.VulnSuite(), corpus.SafeSuite()} {
		for _, l := range set {
			out[l.Name] = l.Source
		}
	}
	return out
}

// defaultDiffSet is the ≥3-contract set the CI conformance job exercises.
var defaultDiffSet = []string{"crowdsale", "crowdsale-buggy", "re_swc107_crossfn"}

func main() {
	var (
		mode      = flag.String("mode", "diff", "diff | gate | strategies | record | replay | fleet-ref | list")
		contracts = flag.String("contracts", "", "comma-separated contract names (default: the 3-contract diff set)")
		iters     = flag.Int("iters", 400, "iteration budget per campaign (gate defaults to the fixed gate budget)")
		seed      = flag.Int64("seed", 1, "campaign seed")
		out       = flag.String("out", "", "transcript output path (modes record, fleet-ref)")
		in        = flag.String("in", "", "transcript input path (mode replay)")
		specPath  = flag.String("spec", "", "campaign spec JSON path (modes fleet-ref, replay)")
		fixtures  = flag.String("fixtures", "fixtures", "ingest fixture dir for the world pair (mode diff)")
	)
	flag.Parse()

	names := defaultDiffSet
	if *contracts != "" {
		names = splitComma(*contracts)
	}

	switch *mode {
	case "list":
		reg := registry()
		sorted := make([]string, 0, len(reg))
		for name := range reg {
			sorted = append(sorted, name)
		}
		sort.Strings(sorted)
		for _, name := range sorted {
			fmt.Println(name)
		}

	case "diff":
		failed := false
		for _, name := range names {
			comp := compile(name)
			results := conformance.DifferentialMatrix(name, comp, baseOptions(*seed, *iters))
			conformance.PrintMatrix(os.Stdout, results)
			for _, r := range results {
				if !r.Equal {
					failed = true
				}
			}
		}
		if results, ok := worldPairs(*fixtures, *seed, *iters); ok {
			conformance.PrintMatrix(os.Stdout, results)
			for _, r := range results {
				if !r.Equal {
					failed = true
				}
			}
		}
		if failed {
			fmt.Fprintln(os.Stderr, "conform: differential matrix diverged")
			os.Exit(1)
		}

	case "strategies":
		for _, name := range names {
			comp := compile(name)
			rows := conformance.StrategyMatrix(name, comp, baseOptions(*seed, *iters))
			conformance.PrintStrategies(os.Stdout, name, rows)
		}

	case "gate":
		// Defaults mirror the gate test exactly (GateBudget/GateSeed); the
		// flags only override when explicitly set.
		budget := experiments.GateBudget
		if flagSet("iters") {
			budget = *iters
		}
		gateSeed := int64(experiments.GateSeed)
		if flagSet("seed") {
			gateSeed = *seed
		}
		report, err := experiments.DetectionGate(experiments.GatedSuites(), corpus.SafeSuite(), budget, gateSeed)
		if err != nil {
			fatal(err)
		}
		experiments.PrintGate(os.Stdout, report)
		if !report.Pass() {
			os.Exit(1)
		}

	case "record":
		if len(names) != 1 || *out == "" {
			fatal(fmt.Errorf("mode record needs exactly one -contracts name and -out"))
		}
		comp := compile(names[0])
		run := conformance.RecordCampaign(names[0], comp, baseOptions(*seed, *iters))
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := run.Transcript.Encode(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %s: %d executions, %d/%d edges, classes %v → %s\n",
			names[0], run.Result.Executions, run.Result.CoveredEdges, run.Result.TotalEdges,
			run.Transcript.Final.Classes, *out)

	case "replay":
		if *in == "" {
			fatal(fmt.Errorf("mode replay needs -in"))
		}
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		want, err := conformance.Decode(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		// Without -spec the contract line names a registry contract.
		var r *service.Resolved
		if *specPath == "" {
			r = &service.Resolved{Target: fuzz.MinisolTarget(compile(want.Contract))}
		} else if r, err = service.Resolve(readSpec(*specPath), coordinatorIterations); err != nil {
			fatal(fmt.Errorf("spec %s: %w", *specPath, err))
		} else if r.Name != want.Contract {
			fatal(fmt.Errorf("transcript records contract %q, spec %s resolves to %q", want.Contract, *specPath, r.Name))
		}
		run, d := conformance.ReplayCheck(r.Target, r.World, want)
		if d != nil {
			fmt.Fprintf(os.Stderr, "conform: replay DIVERGED: %s\n", d)
			os.Exit(1)
		}
		if err := conformance.VerifySequences(run.Campaign, run.Transcript); err != nil {
			fmt.Fprintf(os.Stderr, "conform: sequence verification failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("replay of %s byte-identical (%d executions) and sequence-verified\n",
			want.Contract, len(want.Records))

	case "fleet-ref":
		if *specPath == "" || *out == "" {
			fatal(fmt.Errorf("mode fleet-ref needs -spec and -out"))
		}
		// Specs that pin iterations, as CI's do, are default-free.
		run, err := fleet.ReferenceTranscript(readSpec(*specPath), coordinatorIterations, 0)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, run.Transcript.EncodeBytes(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("fleet reference %s: %d executions, %d/%d edges, classes %v → %s\n",
			run.Name, run.Result.Executions, run.Result.CoveredEdges, run.Result.TotalEdges,
			run.Transcript.Final.Classes, *out)

	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// worldPairs runs the world's differential pairs on the ingest fixtures: the
// reentrant bank as primary, the token as a member, attacker synthesis on —
// so member deployment, callee routing, and attacker-spec compilation all
// sit inside the equivalence check. The world is a campaign spec, resolved
// as the service resolves submissions. Returns ok=false (with a stderr
// notice) when the fixture dir is absent, so the minisol half of mode diff
// still works away from the repo root.
func worldPairs(dir string, seed int64, iters int) ([]conformance.PairResult, bool) {
	read := func(name string) (string, []byte, error) {
		bin, err := os.ReadFile(filepath.Join(dir, name+".bin"))
		if err != nil {
			return "", nil, err
		}
		abiJSON, err := os.ReadFile(filepath.Join(dir, name+".abi.json"))
		return string(bin), abiJSON, err
	}
	bank, bankABI, err := read("bank-reentrant")
	if err != nil {
		fmt.Fprintf(os.Stderr, "conform: world pairs skipped (%v; regen with `go run ./cmd/corpusgen -fixtures %s`)\n", err, dir)
		return nil, false
	}
	token, tokenABI, err := read("erc20")
	if err != nil {
		fatal(err)
	}
	spec := service.CampaignSpec{
		Bytecode: bank, ABI: bankABI, Attacker: true,
		Members: []service.WorldMemberSpec{{Name: "token", Bytecode: token, ABI: tokenABI}},
	}
	mk := func() (fuzz.Target, *fuzz.WorldOptions) {
		r, err := service.Resolve(spec, iters)
		if err != nil {
			fatal(err)
		}
		return r.Target, r.World
	}
	return conformance.WorldDifferentialMatrix("bank-reentrant", mk, baseOptions(seed, iters)), true
}

// coordinatorIterations is the fleet coordinator's default budget.
const coordinatorIterations = 20000

// readSpec reads a campaign spec JSON file.
func readSpec(path string) service.CampaignSpec {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var spec service.CampaignSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fatal(fmt.Errorf("bad spec %s: %w", path, err))
	}
	return spec
}

func baseOptions(seed int64, iters int) fuzz.Options {
	return fuzz.Options{Strategy: fuzz.MuFuzz(), Seed: seed, Iterations: iters}
}

func compile(name string) *minisol.Compiled {
	src, ok := registry()[name]
	if !ok {
		fatal(fmt.Errorf("unknown contract %q (try -mode list)", name))
	}
	comp, err := minisol.Compile(src)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	return comp
}

func splitComma(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' })
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "conform: %v\n", err)
	os.Exit(1)
}
