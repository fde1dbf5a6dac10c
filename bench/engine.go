package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"mufuzz/internal/fuzz"
	"mufuzz/internal/oracle"
	"mufuzz/internal/service"
)

// sliceRounds is the energy-round budget of one RunSlice call, the same
// slice a fleet lease carries by default.
const sliceRounds = 8

// resolved is a campaign spec resolved the way fleet workers resolve leased
// specs, so engine and fleet workloads build campaigns through one path.
type resolved struct {
	target fuzz.Target
	world  *fuzz.WorldOptions
	opts   fuzz.Options
}

func resolve(spec service.CampaignSpec) (resolved, error) {
	target, err := service.ResolveTarget(spec)
	if err != nil {
		return resolved{}, fmt.Errorf("resolve %s: %w", spec.Name, err)
	}
	world, _, err := service.ResolveWorld(spec, target)
	if err != nil {
		return resolved{}, fmt.Errorf("resolve %s world: %w", spec.Name, err)
	}
	opts, err := service.SpecOptions(spec, 0, 0)
	if err != nil {
		return resolved{}, fmt.Errorf("resolve %s options: %w", spec.Name, err)
	}
	opts.World = world
	return resolved{target: target, world: world, opts: opts}, nil
}

func (r resolved) start() *fuzz.Campaign { return fuzz.NewTargetCampaign(r.target, r.opts) }

// outcome is the deterministic result of one campaign. A seed must give the
// same outcome on every trial, traced or not, on the engine or the fleet.
type outcome struct {
	executions int
	covered    int
	total      int
	// coveredSum is the sum over executions of the covered-edge count after
	// each one: the area under the coverage step curve, in edge·executions.
	coveredSum int64
	classes    string // sorted, comma-separated
}

func (o outcome) coverage() float64 { return float64(o.covered) / float64(o.total) }

// auc is the area under the coverage curve divided by the budget.
func (o outcome) auc(budget int) float64 {
	return float64(o.coveredSum) / (float64(o.total) * float64(budget))
}

// engineOutcome reads an outcome off an engine result. Timeline holds a
// point at every execution that covered new edges, so coverage after
// execution i is the last point at or before i.
func engineOutcome(res *fuzz.Result) outcome {
	o := outcome{executions: res.Executions, covered: res.CoveredEdges, total: res.TotalEdges}
	for k, p := range res.Timeline {
		next := res.Executions + 1
		if k+1 < len(res.Timeline) {
			next = res.Timeline[k+1].Executions
		}
		covered := int64(math.Round(p.Coverage * float64(res.TotalEdges)))
		o.coveredSum += covered * int64(next-p.Executions)
	}
	classes := make([]string, 0, len(res.BugClasses))
	for c := range res.BugClasses {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	o.classes = strings.Join(classes, ",")
	return o
}

// trialResult is one trial: every campaign of the workload run once.
type trialResult struct {
	traced bool
	setups []time.Duration // cold set-ups this trial timed, in a fixed order
	// units times the trial's work piece by piece: each RunSlice of
	// sliceRounds rounds on the engine, each RunOne on the fleet. The pieces
	// fall at deterministic points, so the i-th unit is the same work in
	// every trial of a workload.
	units   []time.Duration
	execs   int
	bytes   uint64 // heap bytes allocated while running
	mallocs uint64
	// campBytes holds each campaign's heap bytes per execution; engine
	// trials only.
	campBytes []float64
	canary    time.Duration // fastest canary run between the units
	outcome   []outcome
	// first holds, per campaign, the execution index at which each bug class
	// first fired; recorded by traced engine trials and by every fleet trial.
	first []map[oracle.BugClass]int
}

// addUnit records one unit's time, then runs the canary, outside the unit.
func (t *trialResult) addUnit(d time.Duration) {
	t.units = append(t.units, d)
	if c := canary(); t.canary == 0 || c < t.canary {
		t.canary = c
	}
}

// rate is the trial's executions over the time its units took.
func (t *trialResult) rate() float64 {
	var sum time.Duration
	for _, d := range t.units {
		sum += d
	}
	return float64(t.execs) / sum.Seconds()
}

// engineTrial is the measured pass of an engine workload. Each campaign is
// set up cold (compile or ingest, the world, NewTargetCampaign) right before
// it runs, so the set-up samples spread over the trial as the runs do. It
// runs in slices of sliceRounds rounds, the way the service and fleet
// workers run campaigns, and each slice is timed, with the canary run after
// it. Nothing observes the runs; allocation is counted around each
// campaign's slices only.
func engineTrial(cs []campaign) (*trialResult, error) {
	t := &trialResult{outcome: make([]outcome, len(cs))}
	var m0, m1 runtime.MemStats
	runtime.GC()
	for i, c := range cs {
		start := time.Now()
		r, err := resolve(c.spec)
		if err != nil {
			return nil, err
		}
		camp := r.start()
		t.setups = append(t.setups, time.Since(start))

		runtime.ReadMemStats(&m0)
		var res *fuzz.Result
		for done := false; !done; {
			s0 := time.Now()
			res, done = camp.RunSlice(context.Background(), sliceRounds)
			t.addUnit(time.Since(s0))
		}
		runtime.ReadMemStats(&m1)
		t.bytes += m1.TotalAlloc - m0.TotalAlloc
		t.mallocs += m1.Mallocs - m0.Mallocs
		t.campBytes = append(t.campBytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(res.Executions))
		t.execs += res.Executions
		t.outcome[i] = engineOutcome(res)
	}
	return t, nil
}

// execObserver records, on the coordinator goroutine, when each bug class
// first fires and the interval between successive executions' folds.
type execObserver struct {
	first map[oracle.BugClass]int
	last  time.Time
	gaps  *[]time.Duration
}

func (o *execObserver) OnExec(r fuzz.ExecRecord) {
	now := time.Now()
	if !o.last.IsZero() {
		*o.gaps = append(*o.gaps, now.Sub(o.last))
	}
	o.last = now
	for _, c := range r.NewClasses {
		if _, ok := o.first[c]; !ok {
			o.first[c] = r.Index
		}
	}
}

// engineTrace is what a traced engine trial leaves for the per-layer
// metrics: its live campaigns, their resolved specs, and the samples taken
// around each RunSlice and each fold.
type engineTrace struct {
	camps    []*fuzz.Campaign
	resolved []resolved
	labels   []string
	slices   []time.Duration
	gaps     []time.Duration
	hits     int
	misses   int
	masks    int
	queue    int
	execs    int
}

// metrics derives the engine loop's per-layer metrics from a traced trial.
func (et *engineTrace) metrics(log io.Writer) map[string]float64 {
	gaps, slices := micros(et.gaps), millis(et.slices)
	fmt.Fprintf(log, "  fuzz.fold_gap         %s\n", describe(gaps, "us"))
	fmt.Fprintf(log, "  fuzz.RunSlice         %s\n", describe(slices, "ms"))
	return map[string]float64{
		"fuzz.fold_gap_us_p50":  percentile(gaps, 0.5),
		"fuzz.fold_gap_us_p99":  percentile(gaps, 0.99),
		"fuzz.slice_ms_p50":     percentile(slices, 0.5),
		"fuzz.slice_ms_p99":     percentile(slices, 0.99),
		"fuzz.prefix_hit_ratio": float64(et.hits) / float64(et.hits+et.misses),
		"fuzz.masks_per_kexec":  1000 * float64(et.masks) / float64(et.execs),
		"fuzz.queue_len":        float64(et.queue) / float64(len(et.camps)),
	}
}

// tracedEngineTrial runs every campaign in slices of sliceRounds rounds with
// an observer installed, recording a span for each campaign, its set-up and
// each slice.
func tracedEngineTrial(w *workload, cs []campaign, tr *tracer) (*trialResult, *engineTrace, error) {
	trialID, endTrial := tr.begin(0, "trial", w.name, "")
	defer endTrial()
	t := &trialResult{traced: true, outcome: make([]outcome, len(cs)), first: make([]map[oracle.BugClass]int, len(cs))}
	et := &engineTrace{}
	for i, c := range cs {
		label := campaignLabel(c.spec)
		cid, endCampaign := tr.begin(trialID, "campaign", w.name, label)
		_, endSetup := tr.begin(cid, "setup", w.name, label)
		r, err := resolve(c.spec)
		if err != nil {
			return nil, nil, err
		}
		camp := r.start()
		endSetup()
		obs := &execObserver{first: make(map[oracle.BugClass]int), gaps: &et.gaps}
		camp.SetObserver(obs)
		var res *fuzz.Result
		for done := false; !done; {
			_, endSlice := tr.begin(cid, "fuzz.RunSlice", w.name, label)
			s0 := time.Now()
			res, done = camp.RunSlice(context.Background(), sliceRounds)
			d := time.Since(s0)
			endSlice()
			et.slices = append(et.slices, d)
			t.units = append(t.units, d)
		}
		endCampaign()
		camp.SetObserver(nil)

		t.execs += res.Executions
		t.outcome[i] = engineOutcome(res)
		t.first[i] = obs.first
		h, m := camp.PrefixCacheStats()
		et.hits += h
		et.misses += m
		et.masks += res.MasksComputed
		et.queue += res.SeedQueueLen
		et.execs += res.Executions
		et.camps = append(et.camps, camp)
		et.resolved = append(et.resolved, r)
		et.labels = append(et.labels, label)
	}
	return t, et, nil
}

// campaignLabel names a campaign in spans: contract name and seed.
func campaignLabel(spec service.CampaignSpec) string {
	return fmt.Sprintf("%s#%d", spec.Name, spec.Seed)
}
