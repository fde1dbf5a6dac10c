package main

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strings"
	"time"

	"mufuzz/internal/oracle"
)

// calibrationSeed is the seed at which every labelled bug must be found.
const calibrationSeed = 1

// referenceCanary is the canary's fastest time on the reference host.
// The timings are reported at the reference host's clock speed: a run
// scales its times by referenceCanary over its own fastest canary, so that
// clock speed drift of the host cancels out.
const referenceCanary = 37500 * time.Nanosecond

// probeCampaigns caps the engine workloads' probe set (worker pool and
// recorder probes); the fleet workload's probe set is all its campaigns.
const probeCampaigns = 4

// runner drives one workload through its measured trials, its traced
// trials and probes, and the output checks.
type runner struct {
	w    *workload
	seed int64
	cs   []campaign
	tr   *tracer // nil when the run has no traced pass
	log  io.Writer

	setups   []time.Duration
	measured []*trialResult
	traced   []*trialResult
	spent    time.Duration // wall time of all trials so far
	fails    []string

	et *engineTrace // last traced engine trial, or the fleet workload's engine probe
	ft *fleetRun    // traced fleet trials pooled, or the engine workloads' fleet probe
	fr *fleetRun    // first fleet trial, the reference for later ones
}

func newRunner(w *workload, seed int64, tr *tracer, log io.Writer) *runner {
	return &runner{w: w, seed: seed, cs: w.campaigns(seed), tr: tr, log: log}
}

func (r *runner) fail(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// minTrials is how many trials run even when they overrun the time budget,
// so that each unit has a fastest time over more than one trial.
const minTrials = 2

// wantTrial reports whether another trial fits in the time budget: trials
// continue until the next one would overrun it, but at least minTrials run.
func (r *runner) wantTrial(seconds float64) bool {
	n := len(r.measured)
	if n < minTrials {
		return true
	}
	next := r.spent.Seconds() / float64(n)
	return r.spent.Seconds()+next <= seconds
}

// trial runs one measured trial and, when the run is traced, one traced
// trial after it, so host drift spreads over both kinds.
func (r *runner) trial() error {
	start := time.Now()
	defer func() { r.spent += time.Since(start) }()
	if err := r.oneTrial(false); err != nil {
		return err
	}
	if r.tr != nil {
		return r.oneTrial(true)
	}
	return nil
}

func (r *runner) oneTrial(traced bool) error {
	tr := r.tr
	if !traced {
		tr = nil
	}
	var t *trialResult
	var err error
	if r.w.fleet {
		var fr *fleetRun
		if t, fr, err = fleetTrial(r.w, r.cs, r.seed, tr); err != nil {
			return fmt.Errorf("%s fleet trial: %w", r.w.name, err)
		}
		r.checkFleet(fr, r.cs)
		if traced {
			if r.ft == nil {
				r.ft = &fleetRun{}
			}
			r.ft.add(fr)
		}
	} else if traced {
		t, r.et, err = tracedEngineTrial(r.w, r.cs, tr)
	} else {
		t, err = engineTrial(r.cs)
	}
	if err != nil {
		return fmt.Errorf("%s trial: %w", r.w.name, err)
	}
	kind := "measured"
	if traced {
		kind = "traced"
		r.traced = append(r.traced, t)
	} else {
		r.measured = append(r.measured, t)
		r.setups = append(r.setups, t.setups...)
	}
	if len(r.measured) > 0 && !slices.Equal(t.outcome, r.measured[0].outcome) {
		r.fail("%s trial outcome differs from the first measured trial (observing or re-running changed the campaigns)", kind)
	}
	extra := ""
	if !traced {
		extra = fmt.Sprintf("%7.0f B/exec  canary %.1f us", float64(t.bytes)/float64(t.execs), float64(t.canary)/float64(time.Microsecond))
	}
	fmt.Fprintf(r.log, "  %-18s %-8s trial %2d: %9.0f execs/s  %s\n", r.w.name, kind, len(r.measured), t.rate(), extra)
	return nil
}

// checkFleet checks a fleet run of the campaigns cs: nothing refused, and
// transcripts byte-equal to the single-node references (first run) or to
// the first run's (later runs).
func (r *runner) checkFleet(fr *fleetRun, cs []campaign) {
	if fr.refused > 0 {
		r.fail("fleet refused %d requests", fr.refused)
	}
	if r.fr == nil {
		r.fr = fr
		r.fails = append(r.fails, checkReferences(r.w, cs, fr)...)
		return
	}
	for i := range fr.transcripts {
		if !bytes.Equal(fr.transcripts[i], r.fr.transcripts[i]) {
			r.fail("fleet transcript of %s differs between trials", campaignLabel(cs[i].spec))
		}
	}
}

// allTrials lists the measured trials, then the traced ones.
func (r *runner) allTrials() []*trialResult {
	return append(append([]*trialResult(nil), r.measured...), r.traced...)
}

// rates lists the trials' execs/s.
func rates(ts []*trialResult) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.rate()
	}
	return out
}

// fastest returns, for each position i, the least of the trials' i-th
// duration, as picked by at; ok is false when the trials time different
// numbers of pieces, so that the i-th pieces are not the same work.
func fastest(ts []*trialResult, at func(*trialResult) []time.Duration) (best []time.Duration, ok bool) {
	for k, t := range ts {
		ds := at(t)
		if k == 0 {
			best = slices.Clone(ds)
			continue
		}
		if len(ds) != len(best) {
			return nil, false
		}
		for i, d := range ds {
			best[i] = min(best[i], d)
		}
	}
	return best, len(best) > 0
}

// bestRate is one trial's executions over the sum of the trials' fastest
// time for each unit. The host runs at two speeds that alternate every few
// hundred milliseconds, as other tenants come and go; a unit takes a few
// milliseconds, so its fastest time over the trials is its time at the
// host's full speed, and the sum is the run time of a trial with the host
// to itself.
func bestRate(ts []*trialResult) (float64, bool) {
	best, ok := fastest(ts, func(t *trialResult) []time.Duration { return t.units })
	if !ok {
		return math.NaN(), false
	}
	var sum time.Duration
	for _, d := range best {
		sum += d
	}
	return float64(ts[0].execs) / sum.Seconds(), true
}

// report is one finished workload run.
type report struct {
	workload  string
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	fails     []string
}

// finish checks the outputs, runs the traced pass's probes and computes the
// metrics.
func (r *runner) finish() (*report, error) {
	w, cs := r.w, r.cs
	rep := &report{workload: w.name}
	base := r.measured[0]

	// First-fire indexes come from every fleet trial's transcripts and from
	// every traced engine trial's observer; all of them must agree.
	var first []map[oracle.BugClass]int
	for _, t := range r.allTrials() {
		switch {
		case t.first == nil:
		case first == nil:
			first = t.first
		default:
			for i := range cs {
				if !maps.Equal(t.first[i], first[i]) {
					r.fail("first-fire indexes of %s differ between trials", campaignLabel(cs[i].spec))
				}
			}
		}
	}

	var firsts []float64
	found, falseAlarms, safe := 0, 0, 0
	var cov, auc float64
	for i, c := range cs {
		o := base.outcome[i]
		if o.executions != w.budget {
			r.fail("%s ran %d executions, budget %d", campaignLabel(c.spec), o.executions, w.budget)
		}
		cov += o.coverage()
		auc += o.auc(w.budget)
		classes := strings.Split(o.classes, ",")
		if c.safe {
			safe++
			if o.classes != "" {
				falseAlarms++
				r.fail("safe contract %s flagged %s", c.spec.Name, o.classes)
			}
		}
		for _, l := range c.labels {
			rep.attempted++
			hit := slices.Contains(classes, string(l))
			if hit {
				found++
			}
			// EF is a whole-campaign verdict reached at the end, with no
			// execution it fires at: it counts as found, not as a first index.
			if first == nil || l == oracle.EF {
				continue
			}
			idx := w.budget + 1
			if hit {
				if idx = first[i][l]; idx == 0 {
					r.fail("%s found %s but no execution recorded it firing", campaignLabel(c.spec), l)
				}
			}
			firsts = append(firsts, float64(idx))
		}
	}
	rep.failed = rep.attempted - found
	if r.seed == calibrationSeed && rep.failed > 0 {
		r.fail("%d of %d labelled bugs missed at the calibration seed", rep.failed, rep.attempted)
	}

	var allocs, mallocs, canaries []float64
	clock := time.Duration(math.MaxInt64)
	for _, t := range r.measured {
		allocs = append(allocs, float64(t.bytes)/float64(t.execs))
		mallocs = append(mallocs, float64(t.mallocs)/float64(t.execs))
		canaries = append(canaries, float64(t.canary)/float64(time.Millisecond))
		clock = min(clock, t.canary)
	}
	// scale converts a time on this host, at this run's clock speed, to the
	// reference host's.
	scale := float64(referenceCanary) / float64(clock)
	measured := rates(r.measured)
	raw, ok := bestRate(r.measured)
	if !ok {
		r.fail("measured trials timed different numbers of slices (the campaigns are not deterministic)")
	}
	rate := raw / scale
	setups, ok := fastest(r.measured, func(t *trialResult) []time.Duration { return t.setups })
	if !ok {
		r.fail("measured trials timed different numbers of set-ups")
	}
	// Engine workloads report the median campaign: a few bank-world seeds
	// allocate 2-4 times as much per execution as the rest, and a total
	// would follow which of them a run's seeds include.
	alloc := median(allocs)
	if base.campBytes != nil {
		perCampaign := make([]float64, len(cs))
		for i := range cs {
			var vs []float64
			for _, t := range r.measured {
				vs = append(vs, t.campBytes[i])
			}
			perCampaign[i] = median(vs)
		}
		alloc = median(perCampaign)
	}
	n := float64(len(cs))
	rep.e2e = map[string]float64{
		"execs_per_sec":        rate,
		"setup_s":              scale * median(micros(setups)) / 1e6,
		"coverage_final":       cov / n,
		"coverage_auc":         auc / n,
		"bug_found_ratio":      float64(found) / float64(rep.attempted),
		"alloc_bytes_per_exec": alloc,
	}
	fmt.Fprintf(r.log, "%s (seed %d): %d measured trials, %d traced\n", w.name, r.seed, len(r.measured), len(r.traced))
	fmt.Fprintf(r.log, "  host clock            canary %s us at fastest, %.4f of the reference host's time\n", fmtNum(float64(clock)/float64(time.Microsecond)), scale)
	fmt.Fprintf(r.log, "  execs_per_sec         %s at the reference clock, %s from each unit's fastest; per trial %s\n", fmtNum(rate), fmtNum(raw), describe(measured, "execs/s"))
	fmt.Fprintf(r.log, "  setup_s               each set-up's fastest %s; every set-up %s\n", describe(micros(setups), "us"), describe(micros(r.setups), "us"))
	if len(firsts) > 0 {
		fmt.Fprintf(r.log, "  execs_to_first_bug    %s\n", describe(firsts, "execs"))
	}
	fmt.Fprintf(r.log, "  host.canary_ms        %s\n", describe(canaries, "ms"))
	if safe > 0 {
		fmt.Fprintf(r.log, "  false_alarm_ratio     %g (%d of %d safe contracts flagged)\n", float64(falseAlarms)/float64(safe), falseAlarms, safe)
	}

	if r.tr != nil {
		layers, err := r.layerMetrics()
		if err != nil {
			return nil, err
		}
		layers["fuzz.allocs_per_exec"] = median(mallocs)
		layers["fuzz.execs_to_first_bug"] = median(firsts)
		layers["host.canary_ms"] = median(canaries)
		rep.layers = layers
	}
	rep.fails = r.fails
	return rep, nil
}

// layerMetrics runs the traced pass's probes and computes the per-layer
// metrics.
func (r *runner) layerMetrics() (map[string]float64, error) {
	w, cs := r.w, r.cs
	out, err := setupLayers(w, cs)
	if err != nil {
		return nil, err
	}
	probeSet := cs
	if w.fleet {
		// The fleet's engine-side layers are measured on the same specs run
		// directly on the engine, where they can be observed.
		t, et, err := tracedEngineTrial(w, cs, r.tr)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(t.outcome, r.measured[0].outcome) {
			r.fail("engine run of the fleet specs differs from the fleet's transcripts")
		}
		r.et = et
	} else {
		// The control plane is measured by pushing the first campaign
		// through a fleet of its own.
		t, fr, err := fleetTrial(w, cs[:1], r.seed, r.tr)
		if err != nil {
			return nil, fmt.Errorf("%s fleet probe: %w", w.name, err)
		}
		r.checkFleet(fr, cs[:1])
		if t.outcome[0] != r.measured[0].outcome[0] {
			r.fail("fleet run of %s differs from the engine run", campaignLabel(cs[0].spec))
		}
		r.ft = fr
		probeSet = cs[:min(probeCampaigns, len(cs))]
	}

	replay := replayProbe(w, r.et, r.tr)
	snap, err := snapshotProbe(w, r.et, r.tr)
	if err != nil {
		return nil, err
	}
	set, err := probeSetLayers(probeSet)
	if err != nil {
		return nil, err
	}
	control, err := r.ft.metrics(r.log)
	if err != nil {
		return nil, err
	}
	for _, m := range []map[string]float64{replay, snap, set, r.et.metrics(r.log), control} {
		maps.Copy(out, m)
	}
	traced, _ := bestRate(r.traced)
	measured, _ := bestRate(r.measured)
	out["bench.trace_overhead_pct"] = 100 * (1 - traced/measured)

	fmt.Fprintf(r.log, "  traced execs_per_sec  %s execs/s from each unit's fastest; per trial %s\n", fmtNum(traced), describe(rates(r.traced), "execs/s"))
	printSelfTimes(r.log, w.name, r.tr.snapshot())
	for k, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: per-layer metric %s is %v", w.name, k, v)
		}
	}
	return out, nil
}
