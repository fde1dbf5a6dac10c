package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// shrink cuts a workload down to the campaigns keep selects, at a smaller
// budget, so the smoke test runs every code path in a few seconds.
func shrink(w *workload, budget int, keep func(i int) bool) {
	all := w.campaigns
	w.budget = budget
	w.campaigns = func(seed int64) []campaign {
		var out []campaign
		for i, c := range all(seed) {
			if keep(i) {
				c.spec.Iterations = budget
				out = append(out, c)
			}
		}
		return out
	}
}

// TestSmokeAllWorkloads runs all four workloads at tiny budgets with the
// traced pass on and checks that the outputs pass every check and that
// every metric BENCHMARK.json names is emitted with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	ws, err := loadWorkloads("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.fleet {
			// Two contracts whose labels fall early at the calibration seed,
			// one with the whole-campaign EF verdict, and one safe contract.
			shrink(w, 600, func(i int) bool { return i == 0 || i == 6 || i == 24 })
			kept := w.campaigns(calibrationSeed)
			w.contracts = slices.DeleteFunc(slices.Clone(w.contracts), func(c contract) bool {
				return !slices.ContainsFunc(kept, func(k campaign) bool { return k.spec.Name == c.name })
			})
		} else {
			shrink(w, 2000, func(i int) bool { return i == 0 })
		}
	}
	tr := newTracer()
	var log bytes.Buffer
	reports, err := runWorkloads(ws, calibrationSeed, 0, tr, &log)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	line, correct, err := resultLine(reports, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if !correct {
		t.Fatalf("checks failed:\n%s", log.String())
	}

	var res struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, line)
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("attempted %d failed %d", res.Attempted, res.Failed)
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			got, ok := res.Metrics[w.name+"/"+m.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s not emitted", w.name, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("%s: %s = %v", w.name, m.Name, got.Value)
			}
		}
	}
	if len(res.Metrics) != len(ws)*(len(spec.EndToEnd)+len(spec.PerLayer)) {
		t.Errorf("%d metrics emitted, BENCHMARK.json names %d per workload", len(res.Metrics), len(spec.EndToEnd)+len(spec.PerLayer))
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, s := range spans {
		seen[s.Name] = true
		if s.EndNs < s.StartNs || s.Workload == "" {
			t.Errorf("malformed span %+v", s)
		}
	}
	for _, name := range []string{"setup", "fuzz.RunSlice", "fuzz.Replay", "fuzz.Snapshot", "fuzz.DecodeSnapshot", "fuzz.Resume", "fleet.RunOne", "fleet.lease", "fleet.commit"} {
		if !seen[name] {
			t.Errorf("no %s span recorded", name)
		}
	}
	if !strings.Contains(log.String(), "self time by span") {
		t.Error("no self-time table printed")
	}
}

// TestMetricDefsMatchBenchmarkJSON holds the program's metric names and
// units equal to the committed benchmark definition.
func TestMetricDefsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, spec []specMetric) {
		if len(defs) != len(spec) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(spec))
			return
		}
		for i := range defs {
			if defs[i].name != spec[i].Name || defs[i].unit != spec[i].Unit {
				t.Errorf("%s metric %d: program %s (%s), BENCHMARK.json %s (%s)", kind, i, defs[i].name, defs[i].unit, spec[i].Name, spec[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(data, n=4), the spread an outside checker computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 5, 5}, 5, 5},
		{[]float64{2, 9}, 0.25, 10.75},
	} {
		q1, q3 := quartiles(c.data)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}

// TestBestRate pins the throughput estimator: each unit's fastest time over
// the trials, summed, and no value when the trials' units do not line up.
func TestBestRate(t *testing.T) {
	ms := func(ds ...int) []time.Duration {
		out := make([]time.Duration, len(ds))
		for i, d := range ds {
			out[i] = time.Duration(d) * time.Millisecond
		}
		return out
	}
	ts := []*trialResult{
		{execs: 600, units: ms(100, 400, 300)},
		{execs: 600, units: ms(200, 200, 600)},
		{execs: 600, units: ms(300, 300, 100)},
	}
	if got, ok := bestRate(ts); !ok || got != 1500 {
		t.Errorf("bestRate = %v, %v; want 1500 execs/s (600 execs over 100+200+100 ms)", got, ok)
	}
	ts[2].units = ms(300, 300)
	if _, ok := bestRate(ts); ok {
		t.Error("bestRate accepted trials with different numbers of units")
	}
}

// TestVerdict covers the comparison rule's outcomes.
func TestVerdict(t *testing.T) {
	seq := func(start, step float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = start + step*float64(i%3)
		}
		return out
	}
	bound := 0.1
	parent := seq(100, 1, 10)
	for _, c := range []struct {
		name   string
		change []float64
		better string
		want   string
	}{
		{"clear gain", seq(120, 1, 10), "higher", "gain"},
		{"within bound", seq(97, 1, 10), "higher", "no worse"},
		{"regression", seq(80, 1, 10), "higher", "worse"},
		{"lower is better", seq(80, 1, 10), "lower", "gain"},
		{"too few pairs", seq(120, 1, 5), "higher", "better"},
	} {
		got, _ := verdict(parent[:len(c.change)], c.change, c.better, &bound)
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	noisy := []float64{50, 150, 100, 60, 140, 100, 55, 145, 100, 100}
	if got, _ := verdict(noisy, seq(101, 0, 10), "higher", &bound); got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %q, want unresolved", got)
	}
}
