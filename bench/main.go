// Command bench is mufuzz's performance ledger: four workloads that stress
// different layers, end-to-end metrics measured with tracing off, per-layer
// metrics from a separate traced pass, and checks that the outputs are
// correct. See README.md for the workloads, the metrics and how a change is
// measured against its parent.
//
// Usage, from the root of a checkout:
//
//	bash bench/run.sh [-workload name] [-seed 1] [-seconds 30] [-trace 0|1] [-out runs.jsonl] [-spans spans.json]
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//	bash bench/run.sh -summary runs.jsonl
//
// Without -workload every workload runs, their trials alternating round
// robin. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is 1 when a check
// failed and 2 when the benchmark could not run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "workload to run (default: all, round robin)")
		seed         = fs.Int64("seed", calibrationSeed, "workload seed; campaign seeds start here (calibration 1, held-out 101)")
		seconds      = fs.Float64("seconds", 30, "trial time per workload, in seconds")
		trace        = fs.Int("trace", 1, "1 adds the traced pass and reports per-layer metrics, 0 reports end-to-end metrics only")
		outPath      = fs.String("out", "", "append each workload's result as a JSON line to this file")
		spansPath    = fs.String("spans", "", "write the traced pass's spans to this JSON file")
		compare      = fs.Bool("compare", false, "compare two -out files given as arguments: parent, then change")
		summary      = fs.String("summary", "", "print per-workload medians, quartiles and spreads of a -out file")
		repo         = fs.String("repo", ".", "root of the mufuzz checkout (fixtures/, BENCHMARK.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec := func() (*benchmarkSpec, error) { return loadSpec(*repo) }
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: parent.jsonl change.jsonl")
			return 2
		}
		s, err := spec()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return compareRuns(stdout, stderr, s, fs.Arg(0), fs.Arg(1))
	case *summary != "":
		s, err := spec()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return summarize(stdout, stderr, s, *summary)
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}

	ws, err := loadWorkloads(*repo)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *workloadName != "" {
		w, err := findWorkload(ws, *workloadName)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	started := time.Now()
	reports, err := runWorkloads(ws, *seed, *seconds, tr, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *spansPath != "" && tr != nil {
		if err := tr.write(*spansPath); err != nil {
			fmt.Fprintln(stderr, "bench: write spans:", err)
			return 2
		}
	}
	if *outPath != "" {
		if err := appendResults(*outPath, reports, *seed, *trace, started); err != nil {
			fmt.Fprintln(stderr, "bench: write results:", err)
			return 2
		}
	}
	line, correct, err := resultLine(reports, *trace == 1, len(ws) > 1)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// runWorkloads alternates the workloads' trials round robin until each has
// spent its time budget, then finishes each.
func runWorkloads(ws []*workload, seed int64, seconds float64, tr *tracer, log io.Writer) ([]*report, error) {
	fmt.Fprintf(log, "host: %s/%s %s, NumCPU=%d GOMAXPROCS=%d; seed %d, %gs of trials per workload, traced pass %v\n",
		runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, seconds, tr != nil)
	runners := make([]*runner, len(ws))
	for i, w := range ws {
		runners[i] = newRunner(w, seed, tr, log)
	}
	for more := true; more; {
		more = false
		for _, r := range runners {
			if r.wantTrial(seconds) {
				if err := r.trial(); err != nil {
					return nil, err
				}
				more = true
			}
		}
	}
	var reports []*report
	for _, r := range runners {
		rep, err := r.finish()
		if err != nil {
			return nil, err
		}
		for _, f := range rep.fails {
			fmt.Fprintf(log, "CHECK FAILED [%s]: %s\n", rep.workload, f)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// resultLine renders the final output line. A single workload reports its
// end-to-end metrics, or with the traced pass its per-layer metrics; a run
// of several prefixes each metric with its workload and reports both.
func resultLine(reports []*report, traced, prefixed bool) (string, bool, error) {
	type result struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	res := result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, rep := range reports {
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		if len(rep.fails) > 0 {
			res.Correct = false
		}
		prefix := ""
		if prefixed {
			prefix = rep.workload + "/"
		}
		var missing []string
		if !traced || prefixed {
			missing = append(missing, collect(endToEnd, rep.e2e, prefix, res.Metrics)...)
		}
		if traced {
			missing = append(missing, collect(perLayer, rep.layers, prefix, res.Metrics)...)
		}
		if len(missing) > 0 {
			return "", false, fmt.Errorf("%s: metrics not measured: %v", rep.workload, missing)
		}
	}
	data, err := json.Marshal(res)
	return string(data), res.Correct, err
}
