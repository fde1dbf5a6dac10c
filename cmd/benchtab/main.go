// Command benchtab regenerates every table and figure of the paper's
// evaluation section on the synthetic corpora, and measures what the
// campaign service and the fleet coordinator cost over bare engines.
//
// Usage:
//
//	benchtab -exp all
//	benchtab -exp fig5a|fig5b|fig6|table2|table3|fig7|table4|motivating|overhead
//	         [-n 24] [-iters 2500] [-seed 1]
//
// `-n 8 -iters 1200` runs the quick budgets. Engine throughput is not
// measured here: the performance ledger (`bash bench/run.sh`) is the one
// harness for it.
//
// Absolute numbers differ from the paper (different corpora, different
// hardware); the comparisons — who wins, by roughly what factor — are the
// reproduction target. README's Evaluation section lists the experiments.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"time"

	"mufuzz/internal/corpus"
	"mufuzz/internal/experiments"
	"mufuzz/internal/fleet"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/minisol"
	"mufuzz/internal/service"
)

// experiment is one named table, figure or measurement; -exp selects it.
type experiment struct {
	name string
	run  func() error
}

func main() {
	var (
		n     = flag.Int("n", 24, "contracts per generated dataset")
		iters = flag.Int("iters", 2500, "fuzzing budget (sequence executions) per contract")
		seed  = flag.Int64("seed", 1, "corpus + campaign seed")
	)
	exps := []experiment{
		{"table2", func() error {
			stats, err := experiments.Datasets(*seed, *n, *n/2, *n/2)
			if err != nil {
				return err
			}
			experiments.PrintDatasets(os.Stdout, stats)
			return nil
		}},
		{"motivating", func() error {
			rows, err := experiments.Motivating(*iters, *seed)
			if err != nil {
				return err
			}
			experiments.PrintMotivating(os.Stdout, rows)
			return nil
		}},
		{"fig5a", func() error {
			gens := corpus.GenerateSmall(*seed, *n)
			curves, err := experiments.CoverageOverTime(gens, experiments.StandardFuzzers(), *iters, *seed)
			if err != nil {
				return err
			}
			experiments.PrintCoverageCurves(os.Stdout,
				fmt.Sprintf("Fig. 5(a) analog — coverage over budget, %d small contracts", len(gens)), curves)
			return nil
		}},
		{"fig5b", func() error {
			gens := corpus.GenerateLarge(*seed, *n/2)
			curves, err := experiments.CoverageOverTime(gens, experiments.StandardFuzzers(), *iters*2, *seed)
			if err != nil {
				return err
			}
			experiments.PrintCoverageCurves(os.Stdout,
				fmt.Sprintf("Fig. 5(b) analog — coverage over budget, %d large contracts", len(gens)), curves)
			return nil
		}},
		{"fig6", func() error {
			small := corpus.GenerateSmall(*seed, *n)
			large := corpus.GenerateLarge(*seed, *n/2)
			bs, err := experiments.OverallCoverage(small, experiments.StandardFuzzers(), *iters, *seed)
			if err != nil {
				return err
			}
			experiments.PrintCoverageBars(os.Stdout, "Fig. 6 analog — overall coverage, small contracts", bs)
			bl, err := experiments.OverallCoverage(large, experiments.StandardFuzzers(), *iters*2, *seed)
			if err != nil {
				return err
			}
			experiments.PrintCoverageBars(os.Stdout, "Fig. 6 analog — overall coverage, large contracts", bl)
			return nil
		}},
		{"table3", func() error {
			results, err := experiments.BugDetection(
				corpus.VulnSuite(), corpus.SafeSuite(),
				experiments.StandardTools(), *iters, *seed)
			if err != nil {
				return err
			}
			experiments.PrintDetectionTable(os.Stdout, results)
			return nil
		}},
		{"fig7", func() error {
			small := corpus.GenerateSmall(*seed+100, *n)
			large := corpus.GenerateLarge(*seed+100, *n/2)
			rs, err := experiments.Ablation(small, *iters, *seed)
			if err != nil {
				return err
			}
			experiments.PrintAblation(os.Stdout, "Fig. 7 analog — ablation, small contracts (share of full MuFuzz)", rs)
			rl, err := experiments.Ablation(large, *iters*2, *seed)
			if err != nil {
				return err
			}
			experiments.PrintAblation(os.Stdout, "Fig. 7 analog — ablation, large contracts (share of full MuFuzz)", rl)
			return nil
		}},
		{"table4", func() error {
			gens := corpus.GenerateComplex(*seed+200, *n/2)
			res, err := experiments.CaseStudy(gens, *iters*2, *seed)
			if err != nil {
				return err
			}
			experiments.PrintCaseStudy(os.Stdout, res)
			return nil
		}},
		{"overhead", func() error {
			return overhead(*iters, *seed)
		}},
	}
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.name
	}
	exp := flag.String("exp", "all", "experiment: all | "+strings.Join(names, " | "))
	flag.Parse()
	if *exp != "all" && !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q; valid: all, %s\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}

	for _, e := range exps {
		if *exp != "all" && *exp != e.name {
			continue
		}
		start := time.Now()
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("  (%s finished in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}

// fleetGatePct is the acceptance ceiling on fleet coordination overhead:
// distributing over one worker must cost less than this versus the plain
// service (the coordination tax a real fleet amortizes across nodes).
const fleetGatePct = 5.0

// overhead measures what each campaign-lifecycle layer costs on the same
// campaigns: the service's slice scheduler over bare engines run back to
// back, and the fleet's HTTP-leased slices on one worker over the service.
// The fleet runs twice. Without conformance transcripts it is functionally
// equal to the service, so its overhead is pure coordination and is gated.
// With them it adds the per-execution transcript chunks that buy the
// byte-identical migration proof, reported but not gated. No side uses a
// store: the measurement is scheduling, not disk I/O.
func overhead(iterations int, seed int64) error {
	comp, err := minisol.Compile(corpus.Crowdsale())
	if err != nil {
		return err
	}
	const campaigns = 4
	const sliceRounds = 8
	spec := func(i int) service.CampaignSpec {
		return service.CampaignSpec{Source: corpus.Crowdsale(), Seed: seed + int64(i), Iterations: iterations}
	}

	runEngines := func() (float64, error) {
		start := time.Now()
		execs := 0
		for i := 0; i < campaigns; i++ {
			res := fuzz.Run(comp, fuzz.Options{
				Strategy: fuzz.MuFuzz(), Seed: seed + int64(i), Iterations: iterations,
			})
			execs += res.Executions
		}
		return float64(execs) / time.Since(start).Seconds(), nil
	}

	// The service multiplexes the campaigns over one slot, with
	// snapshot-capable slice boundaries and status publication.
	runService := func() (float64, error) {
		svc := service.New(service.Config{Slots: 1, SliceRounds: sliceRounds})
		if err := svc.Start(); err != nil {
			return 0, err
		}
		defer svc.Close()
		start := time.Now()
		for i := 0; i < campaigns; i++ {
			if _, err := svc.Submit(spec(i)); err != nil {
				return 0, err
			}
		}
		execs := 0
		for {
			done := 0
			execs = 0
			for _, st := range svc.Statuses() {
				execs += st.Executions
				if st.State == service.StateDone {
					done++
				}
			}
			if done == campaigns {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		return float64(execs) / time.Since(start).Seconds(), nil
	}

	runFleet := func(noTranscript bool) (float64, error) {
		co := fleet.NewCoordinator(fleet.CoordinatorConfig{Rounds: sliceRounds, DefaultIterations: iterations})
		srv := httptest.NewServer(co.Handler())
		defer srv.Close()
		client := fleet.NewClient(srv.URL, seed)
		ctx := context.Background()
		start := time.Now()
		var ids []string
		for i := 0; i < campaigns; i++ {
			st, err := client.Submit(ctx, fleet.SubmitRequest{NoTranscript: noTranscript, Spec: spec(i)})
			if err != nil {
				return 0, err
			}
			ids = append(ids, st.ID)
		}
		w := fleet.NewWorker("bench-worker", client)
		for {
			ran, err := w.RunOne(ctx)
			if err != nil {
				return 0, err
			}
			if ran {
				continue
			}
			// No lease granted: either all campaigns finished or a
			// transient lull — check, and only then idle.
			done := 0
			for _, id := range ids {
				st, err := client.Status(ctx, id)
				if err != nil {
					return 0, err
				}
				if st.State == "done" {
					done++
				}
			}
			if done == campaigns {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		execs := 0
		for _, id := range ids {
			st, err := client.Status(ctx, id)
			if err != nil {
				return 0, err
			}
			execs += st.Executions
		}
		return float64(execs) / time.Since(start).Seconds(), nil
	}

	// Every side runs the identical deterministic workload, so throughput
	// differences are pure scheduling/coordination cost plus machine noise.
	// Alternate the sides over several trials and keep each side's best
	// rate — best-of-N discards the noise (GC pauses, co-tenant CPU spikes)
	// that a single short trial on a shared machine cannot.
	sides := []func() (float64, error){
		runEngines,
		runService,
		func() (float64, error) { return runFleet(true) },
		func() (float64, error) { return runFleet(false) },
	}
	best := make([]float64, len(sides))
	const trials = 3
	for t := 0; t < trials; t++ {
		for i, run := range sides {
			r, err := run()
			if err != nil {
				return err
			}
			best[i] = math.Max(best[i], r)
		}
	}
	engineRate, svcRate, fleetRate, recordedRate := best[0], best[1], best[2], best[3]
	svcOverhead := 100 * (1 - svcRate/engineRate)
	fleetOverhead := 100 * (1 - fleetRate/svcRate)
	recordedOverhead := 100 * (1 - recordedRate/svcRate)

	fmt.Printf("Layer overhead — %d Crowdsale campaigns × %d executions, best of %d\n", campaigns, iterations, trials)
	fmt.Printf("  bare engines    %8.0f execs/s\n", engineRate)
	fmt.Printf("  service         %8.0f execs/s  %5.1f%% over bare engines\n", svcRate, svcOverhead)
	fmt.Printf("  fleet           %8.0f execs/s  %5.1f%% over the service (gate <%.0f%%)\n",
		fleetRate, fleetOverhead, fleetGatePct)
	fmt.Printf("  recorded fleet  %8.0f execs/s  %5.1f%% over the service (informational)\n",
		recordedRate, recordedOverhead)
	if fleetOverhead >= fleetGatePct {
		return fmt.Errorf("fleet coordination overhead %.1f%% breaches the %.0f%% gate", fleetOverhead, fleetGatePct)
	}
	return nil
}
