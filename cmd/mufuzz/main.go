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
//	mufuzz -example crowdsale|game    # fuzz a built-in paper example
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
// SIGINT stops the campaign cleanly mid-round. With -snapshot-out the
// coordinator state is serialized at exit — whether interrupted or run to
// budget — so a later run with -resume continues where this one stopped.
//
// Exit status: 0 = clean run without findings, 1 = usage or internal error,
// 2 = the oracles reported findings (CI-friendly: a red pipeline means a
// detected vulnerability).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"mufuzz/internal/corpus"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/ingest"
	"mufuzz/internal/minisol"
	"mufuzz/internal/report"
	"mufuzz/internal/service"
	"mufuzz/internal/state"
	"mufuzz/internal/store"
	"mufuzz/internal/world"
)

// multiFlag collects a repeatable string flag in declaration order.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	os.Exit(run())
}

func run() int {
	var (
		file      = flag.String("file", "", "MiniSol source file to fuzz")
		example   = flag.String("example", "", "built-in example: crowdsale | crowdsale-buggy | game")
		strategy  = flag.String("strategy", "mufuzz", "fuzzer strategy: mufuzz | sfuzz | confuzzius | irfuzz | smartian")
		iters     = flag.Int("iters", 4000, "transaction-sequence execution budget")
		seed      = flag.Int64("seed", 1, "campaign random seed")
		budget    = flag.Duration("time", 0, "optional wall-clock budget (e.g. 10s)")
		verbose   = flag.Bool("v", false, "print per-finding details")
		minimize  = flag.Bool("minimize", false, "shrink and print a proof-of-concept sequence per bug class")
		jsonOut   = flag.String("json", "", "also write a machine-readable report to this file")
		corpusDir = flag.String("corpus-dir", "", "persistent seed store: import shared seeds, export the final queue")
		resume    = flag.String("resume", "", "resume from a campaign snapshot file")
		snapOut   = flag.String("snapshot-out", "", "write a resumable snapshot here on SIGINT (or at exit)")
		worldFile = flag.String("world", "", "world manifest: `member <name> <bin> <abi> [addr]` lines declaring member contracts")
		attacker  = flag.Bool("attacker", false, "synthesize a fuzzer-controlled attacker contract into the world")
		noCmpFeed = flag.Bool("no-cmp-feedback", false, "disable comparison-operand feedback and mined dictionaries (ablation)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (after the campaign) to this file")
	)
	var bytecodes, abiFiles multiFlag
	flag.Var(&bytecodes, "bytecode", "hex EVM bytecode file: fuzz source-free (requires -abi; repeat the pair for world members)")
	flag.Var(&abiFiles, "abi", "Solidity ABI JSON file for the matching -bytecode")
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
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
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
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

	strat, ok := fuzz.PresetByName(*strategy)
	if !ok {
		fmt.Fprintf(os.Stderr, "mufuzz: unknown strategy %q\n", *strategy)
		return 1
	}
	if *noCmpFeed {
		strat.Name += " w/o comparison feedback"
		strat.CmpFeedback = false
		strat.MinedDictionary = false
	}

	target, name, err := loadTarget(*file, *example, bytecodes, abiFiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mufuzz:", err)
		return 1
	}
	fmt.Printf("target %s: %d bytes of code, %d functions, %d branch sites\n",
		target.Name(), len(target.Code()), len(target.Methods()), len(target.Branches()))

	// World assembly: members from extra -bytecode/-abi pairs, then the
	// manifest, then the synthesized attacker. bucket is the corpus-store
	// key — the world bucket when members are present, else the target name.
	worldOpts, bucket, err := buildWorld(target, bytecodes, abiFiles, *worldFile, *attacker)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mufuzz:", err)
		return 1
	}
	if worldOpts != nil {
		names := make([]string, len(worldOpts.Members))
		for i, m := range worldOpts.Members {
			names[i] = m.Name
		}
		desc := strings.Join(names, ", ")
		if *attacker {
			if desc != "" {
				desc += ", "
			}
			desc += "synthesized attacker"
		}
		fmt.Printf("world: %s (corpus bucket %s)\n", desc, bucket)
	}

	var st *store.Store
	if *corpusDir != "" {
		if st, err = store.Open(*corpusDir); err != nil {
			fmt.Fprintln(os.Stderr, "mufuzz:", err)
			return 1
		}
	}

	var campaign *fuzz.Campaign
	if *resume != "" {
		data, err := os.ReadFile(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mufuzz:", err)
			return 1
		}
		snap, err := fuzz.DecodeSnapshot(strings.NewReader(string(data)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "mufuzz:", err)
			return 1
		}
		if worldOpts != nil {
			campaign, err = fuzz.ResumeWorldCampaign(target, worldOpts, snap)
		} else {
			campaign, err = fuzz.ResumeTargetCampaign(target, snap)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mufuzz:", err)
			return 1
		}
		fmt.Printf("resumed snapshot %s (%d executions done)\n", *resume, snap.Executions)
	} else {
		campaign = fuzz.NewTargetCampaign(target, fuzz.Options{
			Strategy:   strat,
			Seed:       *seed,
			Iterations: *iters,
			TimeBudget: *budget,
			World:      worldOpts,
		})
	}

	if st != nil {
		// A fresh ledger offers the bucket's whole shared corpus.
		offers := new(service.SeedLedger).Offers(st, bucket, math.MaxInt)
		if n, _ := service.InjectSeeds(campaign, offers); n > 0 {
			fmt.Printf("imported %d shared corpus seed(s) from %s\n", n, *corpusDir)
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
		if n := new(service.SeedLedger).Share(st, bucket, service.NewSeeds(campaign, nil)); n > 0 {
			fmt.Printf("exported %d new corpus seed(s) to %s\n", n, *corpusDir)
		}
	}
	if interrupted {
		fmt.Println("\ninterrupted — campaign stopped cleanly mid-round")
	}
	if *snapOut != "" {
		if err := os.WriteFile(*snapOut, campaign.Snapshot().EncodeBytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mufuzz: snapshot:", err)
			return 1
		}
		fmt.Printf("snapshot written to %s — continue with -resume %s\n", *snapOut, *snapOut)
	}

	fmt.Printf("\n[%s] fuzzed %s in %v\n", res.Strategy, name, time.Since(start).Round(time.Millisecond))
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
		if *verbose {
			for _, f := range res.Findings {
				fmt.Printf("    [%s] pc=%d %s\n", f.Class, f.PC, f.Description)
			}
		}
		if *minimize {
			fmt.Println("\nproof-of-concept sequences (minimized):")
			for class, seq := range res.Repro {
				min := campaign.MinimizeForBug(seq, class)
				fmt.Printf("  [%s] %s\n", class, min)
			}
		}
	} else {
		fmt.Println("  findings:        none")
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mufuzz:", err)
			return 1
		}
		werr := report.New(target.Name(), res).WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "mufuzz:", werr)
			return 1
		}
		fmt.Printf("\nJSON report written to %s\n", *jsonOut)
	}

	if len(res.Findings) > 0 {
		return 2 // CI-friendly: a finding is a red build
	}
	return 0
}

// loadBytecodeTarget ingests one bytecode + ABI file pair.
func loadBytecodeTarget(bin, abiFile string) (fuzz.Target, error) {
	codeHex, err := os.ReadFile(bin)
	if err != nil {
		return nil, err
	}
	abiJSON, err := os.ReadFile(abiFile)
	if err != nil {
		return nil, err
	}
	return ingest.LoadHex(string(codeHex), abiJSON)
}

// loadTarget resolves exactly one of the three target sources: MiniSol file,
// built-in example, or raw bytecode + ABI JSON (the first -bytecode/-abi
// pair; later pairs are world members, resolved by buildWorld).
func loadTarget(file, example string, bytecodes, abiFiles []string) (fuzz.Target, string, error) {
	sources := 0
	for _, set := range []bool{file != "", example != "", len(bytecodes) > 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, "", fmt.Errorf("pass exactly one of -file, -example, or -bytecode")
	}

	if len(bytecodes) > 0 {
		if len(abiFiles) != len(bytecodes) {
			return nil, "", fmt.Errorf("%d -bytecode flag(s) but %d -abi flag(s); each -bytecode needs its -abi", len(bytecodes), len(abiFiles))
		}
		t, err := loadBytecodeTarget(bytecodes[0], abiFiles[0])
		if err != nil {
			return nil, "", err
		}
		return t, bytecodes[0], nil
	}
	if len(abiFiles) > 0 {
		return nil, "", fmt.Errorf("-abi requires a matching -bytecode")
	}

	var src, name string
	switch {
	case file != "":
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, "", err
		}
		src, name = string(b), file
	default:
		switch example {
		case "crowdsale":
			src, name = corpus.Crowdsale(), "crowdsale"
		case "crowdsale-buggy":
			src, name = corpus.CrowdsaleBuggy(), "crowdsale-buggy"
		case "game":
			src, name = corpus.Game(), "game"
		default:
			return nil, "", fmt.Errorf("unknown example %q", example)
		}
	}
	comp, err := minisol.Compile(src)
	if err != nil {
		return nil, "", fmt.Errorf("compile: %w", err)
	}
	return fuzz.MinisolTarget(comp), name, nil
}

// memberName derives a world-member name from its bin path: the base name
// with the extension stripped ("fixtures/erc20.bin" -> "erc20").
func memberName(bin string) string {
	base := filepath.Base(bin)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// buildWorld assembles the campaign's WorldOptions from the extra
// -bytecode/-abi pairs, the -world manifest (member paths resolve relative
// to the manifest's directory), and the -attacker switch. It returns nil
// options for a plain single-contract run, plus the corpus-store bucket:
// world.BucketID over all deployed code when members are present (so any
// campaign fuzzing the same contract set shares seeds, whoever launched
// it), else the primary target's name.
func buildWorld(primary fuzz.Target, bytecodes, abiFiles []string, manifest string, attacker bool) (*fuzz.WorldOptions, string, error) {
	var members []fuzz.WorldMember
	seen := map[string]bool{}
	add := func(name string, t fuzz.Target, addr state.Address) error {
		if seen[name] {
			return fmt.Errorf("duplicate world member %q", name)
		}
		seen[name] = true
		members = append(members, fuzz.WorldMember{Name: name, Target: t, Addr: addr})
		return nil
	}

	for i := 1; i < len(bytecodes) && i < len(abiFiles); i++ {
		t, err := loadBytecodeTarget(bytecodes[i], abiFiles[i])
		if err != nil {
			return nil, "", err
		}
		if err := add(memberName(bytecodes[i]), t, state.Address{}); err != nil {
			return nil, "", err
		}
	}

	if manifest != "" {
		data, err := os.ReadFile(manifest)
		if err != nil {
			return nil, "", err
		}
		decls, err := world.ParseManifest(data)
		if err != nil {
			return nil, "", err
		}
		dir := filepath.Dir(manifest)
		resolve := func(p string) string {
			if filepath.IsAbs(p) {
				return p
			}
			return filepath.Join(dir, p)
		}
		for _, m := range decls {
			t, err := loadBytecodeTarget(resolve(m.Bin), resolve(m.ABI))
			if err != nil {
				return nil, "", fmt.Errorf("world member %s: %w", m.Name, err)
			}
			if err := add(m.Name, t, m.Addr); err != nil {
				return nil, "", err
			}
		}
	}

	if len(members) == 0 && !attacker {
		return nil, primary.Name(), nil
	}
	w := &fuzz.WorldOptions{Members: members}
	if attacker {
		w.Attacker = world.NewModel(primary.Methods())
	}
	bucket := primary.Name()
	if len(members) > 0 {
		all := []fuzz.Target{primary}
		for _, m := range members {
			all = append(all, m.Target)
		}
		bucket = world.BucketID(all...)
	}
	return w, bucket, nil
}
