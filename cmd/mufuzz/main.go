// Command mufuzz fuzzes one contract — compiled from MiniSol source or
// ingested source-free from deployed bytecode + ABI JSON — and reports
// branch coverage and detected vulnerabilities.
//
// Usage:
//
//	mufuzz -file contract.sol [-strategy mufuzz|sfuzz|confuzzius|irfuzz]
//	       [-iters 4000] [-seed 1] [-time 10s] [-v]
//	       [-corpus-dir DIR] [-resume snapshot] [-snapshot-out snapshot]
//	       [-cpuprofile cpu.out] [-memprofile mem.out]
//	mufuzz -example crowdsale|crowdsale-buggy|game   # fuzz a built-in paper example
//	mufuzz -bytecode code.bin -abi contract.abi.json   # fuzz deployed bytecode
//	mufuzz -bytecode bank.bin -abi bank.abi.json \
//	       -bytecode token.bin -abi token.abi.json -attacker   # world campaign
//	mufuzz -bytecode bank.bin -abi bank.abi.json -world world.txt
//
// -bytecode takes hex EVM bytecode (0x prefix optional; creation code is
// detected and its runtime extracted) and -abi the standard Solidity ABI
// JSON; the fuzzer recovers branch sites and per-function storage
// dependencies from the code itself, so sequence-aware mutation and energy
// scheduling run without source. Corpus-store seeds for such targets are
// bucketed by codehash.
//
// Repeating -bytecode/-abi deploys every pair into one shared world: the
// first pair is the primary target, later pairs become member contracts
// (named after their bin file) whose functions enter sequences qualified
// ("token.transfer"). -world FILE declares members in a manifest instead —
// one `member <name> <bin> <abi> [addr]` line each, paths relative to the
// manifest. -attacker additionally synthesizes a fuzzer-controlled attacker
// contract whose callback behavior (re-entered selector, calldata, nesting
// depth, revert flag) is mutated alongside the transaction sequence, arming
// the witnessed reentrancy/unchecked-delegatecall oracles. World corpus
// seeds are bucketed by the keccak of the sorted member codehashes, so any
// campaign on the same contract set cross-pollinates.
//
// A campaign runs on one goroutine and is reproducible across machines for a
// fixed seed. To use more cores, run more campaigns: several mufuzz
// processes with different seeds sharing one -corpus-dir, or mufuzzd.
//
// -corpus-dir connects the campaign to a persistent seed store: seeds other
// campaigns on the same contract exported are injected at startup, and the
// final queue is exported back, deduplicated by coverage fingerprint.
//
// The flags map to a campaign spec that resolves exactly as mufuzzd and the
// fleet resolve submissions (service.Resolve), so the same target and world
// get the same options, corpus bucket and findings on every front end. -json
// writes the summary with the findings as the service serves them.
//
// SIGINT stops the campaign cleanly mid-round. With -snapshot-out the
// coordinator state is serialized at exit — whether interrupted or run to
// budget — so a later run with -resume continues where this one stopped.
// A resumed campaign takes its budget, seed, strategy, time budget and
// ablation from the snapshot, so -resume refuses -iters, -seed, -strategy,
// -time and -no-cmp-feedback.
//
// Exit status: 0 = clean run without findings, 1 = usage or internal error,
// 2 = the oracles reported findings (CI-friendly: a red pipeline means a
// detected vulnerability).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"mufuzz/internal/fuzz"
	"mufuzz/internal/service"
	"mufuzz/internal/state"
	"mufuzz/internal/store"
	"mufuzz/internal/world"
)

// multiFlag collects a repeatable string flag in declaration order.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// cli is the parsed command line.
type cli struct {
	file, example, strategy, worldFile string
	bytecodes, abiFiles                multiFlag
	attacker, noCmpFeed                bool
	iters                              int
	seed                               int64
	budget                             time.Duration
	verbose, minimize                  bool
	jsonOut, corpusDir, resume         string
	snapOut, cpuProf, memProf          string
	// set holds the names of the flags the command line gave explicitly.
	set map[string]bool
}

// snapshotFlags are the flags whose values a resumed campaign takes from
// its snapshot instead.
var snapshotFlags = []string{"iters", "seed", "strategy", "time", "no-cmp-feedback"}

func main() {
	c := &cli{}
	flag.StringVar(&c.file, "file", "", "MiniSol source file to fuzz")
	flag.StringVar(&c.example, "example", "", "built-in example: crowdsale | crowdsale-buggy | game")
	flag.StringVar(&c.strategy, "strategy", "mufuzz", "fuzzer strategy: mufuzz | sfuzz | confuzzius | irfuzz | smartian")
	flag.IntVar(&c.iters, "iters", 4000, "transaction-sequence execution budget")
	flag.Int64Var(&c.seed, "seed", 1, "campaign random seed")
	flag.DurationVar(&c.budget, "time", 0, "optional wall-clock budget (e.g. 10s)")
	flag.BoolVar(&c.verbose, "v", false, "print per-finding details")
	flag.BoolVar(&c.minimize, "minimize", false, "shrink and print a proof-of-concept sequence per bug class")
	flag.StringVar(&c.jsonOut, "json", "", "also write a machine-readable report to this file")
	flag.StringVar(&c.corpusDir, "corpus-dir", "", "persistent seed store: import shared seeds, export the final queue")
	flag.StringVar(&c.resume, "resume", "", "resume from a campaign snapshot file")
	flag.StringVar(&c.snapOut, "snapshot-out", "", "write a resumable snapshot here on SIGINT (or at exit)")
	flag.StringVar(&c.worldFile, "world", "", "world manifest: `member <name> <bin> <abi> [addr]` lines declaring member contracts")
	flag.BoolVar(&c.attacker, "attacker", false, "synthesize a fuzzer-controlled attacker contract into the world")
	flag.BoolVar(&c.noCmpFeed, "no-cmp-feedback", false, "disable comparison-operand feedback and mined dictionaries (ablation)")
	flag.StringVar(&c.cpuProf, "cpuprofile", "", "write a CPU profile of the campaign to this file")
	flag.StringVar(&c.memProf, "memprofile", "", "write a heap profile (after the campaign) to this file")
	flag.Var(&c.bytecodes, "bytecode", "hex EVM bytecode file: fuzz source-free (requires -abi; repeat the pair for world members)")
	flag.Var(&c.abiFiles, "abi", "Solidity ABI JSON file for the matching -bytecode")
	flag.Parse()
	c.set = make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	os.Exit(c.run())
}

func (c *cli) run() int {
	if c.cpuProf != "" {
		f, err := os.Create(c.cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mufuzz: cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mufuzz: cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if c.memProf != "" {
		defer func() {
			f, err := os.Create(c.memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mufuzz: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mufuzz: memprofile:", err)
			}
		}()
	}

	r, err := c.resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mufuzz:", err)
		return 1
	}
	target := r.Target
	fmt.Printf("target %s: %d bytes of code, %d functions, %d branch sites\n",
		target.Name(), len(target.Code()), len(target.Methods()), len(target.Branches()))
	if r.World != nil {
		var names []string
		for _, m := range r.World.Members {
			names = append(names, m.Name)
		}
		if r.World.Attacker != nil {
			names = append(names, "synthesized attacker")
		}
		fmt.Printf("world: %s (corpus bucket %s)\n", strings.Join(names, ", "), r.Bucket)
	}

	var st *store.Store
	if c.corpusDir != "" {
		if st, err = store.Open(c.corpusDir); err != nil {
			fmt.Fprintln(os.Stderr, "mufuzz:", err)
			return 1
		}
	}

	var snapshot []byte
	if c.resume != "" {
		if snapshot, err = readArtifact(c.resume); err != nil {
			fmt.Fprintln(os.Stderr, "mufuzz:", err)
			return 1
		}
	}
	campaign, err := r.Open(snapshot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mufuzz:", err)
		return 1
	}
	if c.resume != "" {
		fmt.Printf("resumed snapshot %s (%d executions done)\n", c.resume, campaign.ResultSoFar().Executions)
	}

	if st != nil {
		// A fresh ledger offers the bucket's whole shared corpus.
		offers := new(service.SeedLedger).Offers(st, r.Bucket, math.MaxInt)
		if n, _ := service.InjectSeeds(campaign, offers); n > 0 {
			fmt.Printf("imported %d shared corpus seed(s) from %s\n", n, c.corpusDir)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	res := campaign.RunCtx(ctx)
	interrupted := ctx.Err() != nil
	stop()

	if st != nil {
		// The whole queue, addressed by the coverage fingerprint of a
		// detached replay.
		if n := new(service.SeedLedger).Share(st, r.Bucket, service.NewSeeds(campaign, campaign.QueueSequences())); n > 0 {
			fmt.Printf("exported %d new corpus seed(s) to %s\n", n, c.corpusDir)
		}
	}
	if interrupted {
		fmt.Println("\ninterrupted — campaign stopped cleanly mid-round")
	}
	if c.snapOut != "" {
		if err := os.WriteFile(c.snapOut, campaign.Snapshot().EncodeBytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mufuzz: snapshot:", err)
			return 1
		}
		fmt.Printf("snapshot written to %s — continue with -resume %s\n", c.snapOut, c.snapOut)
	}

	fmt.Printf("\n[%s] fuzzed %s in %v\n", res.Strategy, r.Name, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  executions:      %d\n", res.Executions)
	fmt.Printf("  branch coverage: %.1f%% (%d/%d edges)\n", res.Coverage*100, res.CoveredEdges, res.TotalEdges)
	fmt.Printf("  seed queue:      %d entries, %d masks computed, %d sequence mutations\n",
		res.SeedQueueLen, res.MasksComputed, res.SequencesMutated)

	if len(res.Findings) > 0 {
		classes := make([]string, 0)
		for c := range res.BugClasses {
			classes = append(classes, string(c))
		}
		sort.Strings(classes)
		fmt.Printf("  findings:        %d (%s)\n", len(res.Findings), strings.Join(classes, ", "))
		if c.verbose {
			for _, f := range res.Findings {
				fmt.Printf("    [%s] pc=%d %s\n", f.Class, f.PC, f.Description)
			}
		}
		if c.minimize {
			fmt.Println("\nproof-of-concept sequences (minimized):")
			for _, class := range slices.Sorted(maps.Keys(res.Repro)) {
				fmt.Printf("  [%s] %s\n", class, campaign.MinimizeForBug(res.Repro[class], class))
			}
		}
	} else {
		fmt.Println("  findings:        none")
	}

	if c.jsonOut != "" {
		f, err := os.Create(c.jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mufuzz:", err)
			return 1
		}
		werr := writeReport(f, target.Name(), res)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "mufuzz:", werr)
			return 1
		}
		fmt.Printf("\nJSON report written to %s\n", c.jsonOut)
	}

	if len(res.Findings) > 0 {
		return 2 // CI-friendly: a finding is a red build
	}
	return 0
}

// resolve resolves the command line's campaign spec, then applies what a
// spec cannot say: the -seed as given (a spec reads 0 as seed 1), the -time
// budget, the -no-cmp-feedback ablation and the manifest's pinned member
// addresses. With -resume it refuses every flag in snapshotFlags the
// command line gave.
func (c *cli) resolve() (*service.Resolved, error) {
	if c.resume != "" {
		for _, name := range snapshotFlags {
			if c.set[name] {
				return nil, fmt.Errorf("-%s cannot be used with -resume: a resumed campaign takes it from the snapshot", name)
			}
		}
	}
	spec, pins, err := c.spec()
	if err != nil {
		return nil, err
	}
	r, err := service.Resolve(spec, 0)
	if err != nil {
		return nil, err
	}
	r.Options.Seed = c.seed
	r.Options.TimeBudget = c.budget
	if c.noCmpFeed {
		r.Options.Strategy.Name += " w/o comparison feedback"
		r.Options.Strategy.CmpFeedback = false
		r.Options.Strategy.MinedDictionary = false
	}
	for i, addr := range pins {
		r.World.Members[i].Addr = addr
	}
	return r, nil
}

// spec maps the flags to a campaign spec: -file to Source, -example to
// Example, the first -bytecode/-abi pair to Bytecode/ABI, and later pairs
// (named after their bin file) and -world manifest lines (paths relative to
// the manifest) to Members. Name is the target as the command line gave it.
// pins holds each member's pinned deployment address (zero = assigned).
func (c *cli) spec() (spec service.CampaignSpec, pins []state.Address, err error) {
	sources := 0
	for _, set := range []bool{c.file != "", c.example != "", len(c.bytecodes) > 0} {
		if set {
			sources++
		}
	}
	switch {
	case sources != 1:
		return spec, nil, fmt.Errorf("pass exactly one of -file, -example, or -bytecode")
	case len(c.bytecodes) == 0 && len(c.abiFiles) > 0:
		return spec, nil, fmt.Errorf("-abi requires a matching -bytecode")
	case len(c.abiFiles) != len(c.bytecodes):
		return spec, nil, fmt.Errorf("%d -bytecode flag(s) but %d -abi flag(s); each -bytecode needs its -abi", len(c.bytecodes), len(c.abiFiles))
	}
	spec = service.CampaignSpec{
		Example: c.example, Attacker: c.attacker,
		Strategy: c.strategy, Seed: c.seed, Iterations: c.iters,
	}
	switch {
	case c.file != "":
		src, err := readArtifact(c.file)
		if err != nil {
			return spec, nil, err
		}
		spec.Name, spec.Source = c.file, string(src)
	case c.example != "":
		spec.Name = c.example
	default:
		spec.Name = c.bytecodes[0]
		if spec.Bytecode, spec.ABI, err = readPair(c.bytecodes[0], c.abiFiles[0]); err != nil {
			return spec, nil, err
		}
	}
	addMember := func(name, bin, abiFile string, addr state.Address) error {
		code, abiJSON, err := readPair(bin, abiFile)
		if err != nil {
			return err
		}
		spec.Members = append(spec.Members, service.WorldMemberSpec{Name: name, Bytecode: code, ABI: abiJSON})
		pins = append(pins, addr)
		return nil
	}
	for i := 1; i < len(c.bytecodes); i++ {
		base := filepath.Base(c.bytecodes[i])
		if err := addMember(strings.TrimSuffix(base, filepath.Ext(base)), c.bytecodes[i], c.abiFiles[i], state.Address{}); err != nil {
			return spec, nil, err
		}
	}
	if c.worldFile != "" {
		data, err := os.ReadFile(c.worldFile)
		if err != nil {
			return spec, nil, err
		}
		decls, err := world.ParseManifest(data)
		if err != nil {
			return spec, nil, err
		}
		rel := func(p string) string {
			if filepath.IsAbs(p) {
				return p
			}
			return filepath.Join(filepath.Dir(c.worldFile), p)
		}
		for _, m := range decls {
			if err := addMember(m.Name, rel(m.Bin), rel(m.ABI), m.Addr); err != nil {
				return spec, nil, fmt.Errorf("world member %s: %w", m.Name, err)
			}
		}
	}
	return spec, pins, nil
}

// readPair reads one -bytecode/-abi file pair.
func readPair(bin, abiFile string) (string, []byte, error) {
	code, err := readArtifact(bin)
	if err != nil {
		return "", nil, err
	}
	abiJSON, err := readArtifact(abiFile)
	return string(code), abiJSON, err
}

// readArtifact reads a file the campaign is built from. An empty file is an
// error: a spec reads an empty field as absent.
func readArtifact(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err == nil && len(data) == 0 {
		err = fmt.Errorf("%s is empty", path)
	}
	return data, err
}

// writeReport writes the machine-readable campaign report: the summary
// counters, the findings as mufuzzd and the fleet serve them (in the
// detector's class-then-pc order, each with its proof-of-concept call
// order), and the coverage timeline.
func writeReport(w io.Writer, contract string, res *fuzz.Result) error {
	type point struct {
		Executions int     `json:"executions"`
		Coverage   float64 `json:"coverage"`
	}
	rep := struct {
		Contract     string            `json:"contract"`
		Strategy     string            `json:"strategy"`
		When         time.Time         `json:"when"`
		Executions   int               `json:"executions"`
		ElapsedMS    int64             `json:"elapsed_ms"`
		Coverage     float64           `json:"coverage"`
		CoveredEdges int               `json:"covered_edges"`
		TotalEdges   int               `json:"total_edges"`
		Findings     []service.Finding `json:"findings"`
		Timeline     []point           `json:"timeline,omitempty"`
	}{
		Contract: contract, Strategy: res.Strategy, When: time.Now().UTC(),
		Executions: res.Executions, ElapsedMS: res.Elapsed.Milliseconds(),
		Coverage: res.Coverage, CoveredEdges: res.CoveredEdges, TotalEdges: res.TotalEdges,
	}
	if len(res.Findings) > 0 { // a clean run reports "findings": null
		rep.Findings = service.FindingsOf(res)
	}
	for _, tp := range res.Timeline {
		rep.Timeline = append(rep.Timeline, point{tp.Executions, tp.Coverage})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
