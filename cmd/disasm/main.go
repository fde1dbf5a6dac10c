// Command disasm prints the static-analysis artifacts the fuzzer's feedback
// loops consume — EVM assembly, control-flow graph, branch sites, and the
// state dataflow summary — for a MiniSol contract (compiled from source) or
// for raw deployed bytecode (recovered source-free by internal/ingest).
//
// Usage:
//
//	disasm -file contract.sol [-cfg] [-dataflow] [-asm]
//	disasm -example crowdsale|crowdsale-buggy|game -cfg -dataflow
//	disasm -bytecode code.bin [-abi contract.abi.json] [-cfg] [-dataflow]
//
// In -bytecode mode the branch sites, function entries, and dataflow are
// recovered from the code itself: selector dispatch is pattern-matched, and
// per-function storage read/write slot sets come from abstract
// interpretation (constant slots, keccak mapping slots, ⊤ for the rest).
// Without -abi the dispatcher arms are listed by raw selector.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"mufuzz/internal/analysis"
	"mufuzz/internal/corpus"
	"mufuzz/internal/evm"
	"mufuzz/internal/ingest"
	"mufuzz/internal/minisol"
)

func main() {
	var (
		file     = flag.String("file", "", "MiniSol source file")
		example  = flag.String("example", "", "built-in example: crowdsale | crowdsale-buggy | game")
		bytecode = flag.String("bytecode", "", "hex EVM bytecode file: disassemble source-free")
		abiFile  = flag.String("abi", "", "Solidity ABI JSON for -bytecode (names the recovered functions)")
		showAsm  = flag.Bool("asm", true, "print disassembly")
		showCFG  = flag.Bool("cfg", false, "print basic blocks and successors")
		showFlow = flag.Bool("dataflow", false, "print state dependency summary")
	)
	flag.Parse()

	if *bytecode != "" {
		if err := runBytecode(*bytecode, *abiFile, *showAsm, *showCFG, *showFlow); err != nil {
			fmt.Fprintln(os.Stderr, "disasm:", err)
			os.Exit(1)
		}
		return
	}

	src, ok := corpus.Example(*example)
	if *file != "" {
		b, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "disasm:", err)
			os.Exit(1)
		}
		src, ok = string(b), true
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "disasm: pass -file, -example, or -bytecode")
		os.Exit(1)
	}

	comp, err := minisol.Compile(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "disasm: compile:", err)
		os.Exit(1)
	}
	fmt.Printf("contract %s — %d bytes\n", comp.Contract.Name, len(comp.Code))
	fmt.Println("\nfunction entry points:")
	names := make([]string, 0, len(comp.FuncEntry))
	for name := range comp.FuncEntry {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := names[i], names[j]
		return comp.FuncEntry[a] < comp.FuncEntry[b] || comp.FuncEntry[a] == comp.FuncEntry[b] && a < b
	})
	for _, name := range names {
		fmt.Printf("  %-16s @ %d\n", name, comp.FuncEntry[name])
	}
	fmt.Println("\nbranch sites:")
	for _, site := range comp.Branches {
		fmt.Printf("  pc=%-5d %-10s depth=%d in %s\n", site.PC, site.Kind, site.Depth, site.Func)
	}

	if *showAsm {
		printAsm(comp.Code)
	}
	if *showCFG {
		printCFG(analysis.BuildCFG(comp.Code))
	}
	if *showFlow {
		df := analysis.AnalyzeDataflow(comp.Contract)
		fmt.Println("\nstate-variable dataflow:")
		for _, fn := range df.Funcs {
			fmt.Printf("  %-14s reads=%v writes=%v branch-reads=%v raw=%v\n",
				fn.Name, fn.Reads.Sorted(), fn.Writes.Sorted(), fn.BranchReads.Sorted(), fn.RAW.Sorted())
		}
		fmt.Printf("  dependency order: %v\n", df.DependencyOrder())
		fmt.Printf("  repeat candidates: %v\n", df.RepeatCandidates())
	}
}

// runBytecode is the source-free mode: everything printed is recovered from
// the code (plus the ABI, when given, for function names and selectors).
func runBytecode(path, abiFile string, showAsm, showCFG, showFlow bool) error {
	codeHex, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	abiJSON := []byte(`[]`)
	if abiFile != "" {
		if abiJSON, err = os.ReadFile(abiFile); err != nil {
			return err
		}
	}
	t, err := ingest.LoadHex(string(codeHex), abiJSON)
	if err != nil {
		return err
	}
	fmt.Printf("target %s — %d bytes (codehash %x)\n", t.Name(), len(t.Code()), t.CodeHash())
	fmt.Println("\nrecovered dispatcher arms:")
	nameBySel := map[[4]byte]string{}
	for _, fs := range t.Storage() {
		if fs.Found {
			nameBySel[fs.Selector] = fs.Name
		}
	}
	for _, arm := range t.DispatcherArms() {
		name := nameBySel[arm.Selector]
		if name == "" {
			name = "(not in ABI)"
		}
		fmt.Printf("  sel=%x @ %-5d %s\n", arm.Selector, arm.Entry, name)
	}
	for _, fs := range t.Storage() {
		if !fs.Found {
			fmt.Printf("  sel=%x        %s (not found in dispatcher)\n", fs.Selector, fs.Name)
		}
	}
	fmt.Println("\nbranch sites (depth recovered from CFG):")
	for _, b := range t.Branches() {
		fmt.Printf("  pc=%-5d depth=%d\n", b.PC, b.Depth)
	}

	if showAsm {
		printAsm(t.Code())
	}
	if showCFG {
		printCFG(t.CFG())
	}
	if showFlow {
		fmt.Println("\nrecovered storage dataflow (slot keys):")
		for _, fs := range t.Storage() {
			fmt.Printf("  %-14s reads=%v writes=%v branch-reads=%v raw=%v\n",
				fs.Name, fs.Reads.Sorted(), fs.Writes.Sorted(), fs.BranchReads.Sorted(), fs.RAW.Sorted())
		}
		fmt.Printf("  dependency order: %v\n", t.DependencyOrder())
		fmt.Printf("  repeat candidates: %v\n", t.RepeatCandidates())
	}
	return nil
}

func printAsm(code []byte) {
	fmt.Println("\ndisassembly:")
	// evm.Decode is the tree's single decoder: the interpreter's IR compiler,
	// analysis.Disassemble, and ingest's dispatcher recovery all read it.
	for _, ins := range evm.Decode(code) {
		if len(ins.Imm) > 0 {
			fmt.Printf("  %5d: %-8s 0x%x\n", ins.PC, ins.Op, ins.Imm)
		} else {
			fmt.Printf("  %5d: %s\n", ins.PC, ins.Op)
		}
	}
	p := evm.CompileProgram(code)
	dests := 0
	for _, d := range p.JumpDests() {
		if d {
			dests++
		}
	}
	fmt.Printf("\ninterpreter IR: %d instructions, %d basic blocks, %d fused superinstructions, %d jumpdests\n",
		p.NumInstrs(), p.NumBlocks(), p.NumFused(), dests)
}

func printCFG(cfg *analysis.CFG) {
	fmt.Printf("\ncontrol-flow graph: %d blocks, %d branch sites, %d vulnerable instructions\n",
		len(cfg.Order), cfg.CountBranches(), len(cfg.VulnPCs))
	for _, start := range cfg.Order {
		b := cfg.Blocks[start]
		vuln := ""
		if cfg.VulnReachableFrom(start) {
			vuln = " [vuln-reachable]"
		}
		fmt.Printf("  block %5d..%-5d succs=%v%s\n", b.Start, b.End, b.Succs, vuln)
	}
}
