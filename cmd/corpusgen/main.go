// Command corpusgen materializes the benchmark corpora to disk as MiniSol
// source files plus a labels manifest, so datasets can be inspected, diffed,
// or fed to external tools. With -fixtures it instead regenerates the
// bundled source-free fixtures (deployed bytecode hex + ABI JSON) the ingest
// pipeline fuzzes end to end.
//
// Usage:
//
//	corpusgen -out ./corpus-out [-seed 1] [-small 24] [-large 12] [-complex 12]
//	corpusgen -fixtures ./fixtures
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mufuzz/internal/corpus"
	"mufuzz/internal/minisol"
)

func main() {
	var (
		out      = flag.String("out", "corpus-out", "output directory")
		seed     = flag.Int64("seed", 1, "generator seed")
		nSmall   = flag.Int("small", 24, "number of D1-small contracts")
		nLarge   = flag.Int("large", 12, "number of D1-large contracts")
		nComplex = flag.Int("complex", 12, "number of D3 complex contracts")
		fixtures = flag.String("fixtures", "", "write the bundled bytecode+ABI fixtures to this directory instead")
	)
	flag.Parse()

	if *fixtures != "" {
		if err := writeFixtures(*fixtures); err != nil {
			fmt.Fprintln(os.Stderr, "corpusgen:", err)
			os.Exit(1)
		}
		fmt.Printf("fixtures written to %s\n", *fixtures)
		return
	}

	var manifest strings.Builder
	write := func(dir, name, src string, labels []string) {
		full := filepath.Join(*out, dir)
		if err := os.MkdirAll(full, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "corpusgen:", err)
			os.Exit(1)
		}
		path := filepath.Join(full, name+".sol")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "corpusgen:", err)
			os.Exit(1)
		}
		fmt.Fprintf(&manifest, "%s/%s.sol\t%s\n", dir, name, strings.Join(labels, ","))
	}

	toStrings := func(labels []string) []string { return labels }
	_ = toStrings

	for _, g := range corpus.GenerateSmall(*seed, *nSmall) {
		write("d1-small", g.Name, g.Source, classStrings(g.Labels))
	}
	for _, g := range corpus.GenerateLarge(*seed, *nLarge) {
		write("d1-large", g.Name, g.Source, classStrings(g.Labels))
	}
	for _, g := range corpus.GenerateComplex(*seed, *nComplex) {
		write("d3-complex", g.Name, g.Source, classStrings(g.Labels))
	}
	for _, l := range corpus.VulnSuite() {
		write("d2-vuln", l.Name, l.Source, classStrings(l.Labels))
	}
	for _, l := range corpus.SafeSuite() {
		write("d2-safe", l.Name, l.Source, nil)
	}
	for _, l := range corpus.Examples() {
		write("examples", strings.ReplaceAll(l.Name, "-", "_"), l.Source, classStrings(l.Labels))
	}

	if err := os.WriteFile(filepath.Join(*out, "MANIFEST.tsv"), []byte(manifest.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "corpusgen:", err)
		os.Exit(1)
	}
	fmt.Printf("corpus written to %s (see MANIFEST.tsv for labels)\n", *out)
}

func classStrings[T ~string](labels []T) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = string(l)
	}
	return out
}

// fixtureSources names the contracts bundled as source-free fixtures: the
// ERC20-style token and the seeded-bug crowdsale the CI ingest-smoke job
// fuzzes through `mufuzz -bytecode -abi`, plus the magic-constant gate that
// separates the comparison-feedback ablation (crackable only with the mined
// dictionary on).
var fixtureSources = map[string]string{
	"erc20":           corpus.Token(),
	"crowdsale-buggy": corpus.CrowdsaleBuggy(),
	"magic-gate":      corpus.MagicGate(),
	"bank-reentrant":  corpus.BankReentrant(),
	"proxy-delegate":  corpus.ProxyDelegate(),
}

// writeFixtures compiles each fixture contract and writes <name>.bin
// (0x-prefixed runtime bytecode hex) plus <name>.abi.json (standard ABI
// JSON) — the on-chain artifact pair the ingest pipeline consumes.
func writeFixtures(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, src := range fixtureSources {
		comp, err := minisol.Compile(src)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		bin := "0x" + hex.EncodeToString(comp.Code) + "\n"
		if err := os.WriteFile(filepath.Join(dir, name+".bin"), []byte(bin), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name+".abi.json"), comp.ABI.EncodeJSON(), 0o644); err != nil {
			return err
		}
	}
	return nil
}
