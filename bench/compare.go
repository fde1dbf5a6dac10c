package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads: each
// metric's direction and, for end-to-end metrics, its regression bound.
type benchmarkSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(repo string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runRecord is one workload run as -out appends it.
type runRecord struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Trace       int                    `json:"trace"`
	StartUnixNs int64                  `json:"start_unix_ns"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
}

func appendResults(path string, reports []*report, seed int64, trace int, started time.Time) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rep := range reports {
		rec := runRecord{
			Workload: rep.workload, Seed: seed, Trace: trace, StartUnixNs: started.UnixNano(),
			Correct: len(rep.fails) == 0, Attempted: rep.attempted, Failed: rep.failed,
			EndToEnd: make(map[string]metricValue),
		}
		collect(endToEnd, rep.e2e, "", rec.EndToEnd)
		if rep.layers != nil {
			rec.PerLayer = make(map[string]metricValue)
			collect(perLayer, rep.layers, "", rec.PerLayer)
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// readRuns reads a -out file, grouping runs by workload in file order.
func readRuns(path string) (map[string][]runRecord, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	byWorkload := make(map[string][]runRecord)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if _, ok := byWorkload[rec.Workload]; !ok {
			order = append(order, rec.Workload)
		}
		byWorkload[rec.Workload] = append(byWorkload[rec.Workload], rec)
	}
	return byWorkload, order, sc.Err()
}

// values extracts one metric from runs that report it.
func values(runs []runRecord, name string, layer bool) []float64 {
	var out []float64
	for _, r := range runs {
		m := r.EndToEnd
		if layer {
			m = r.PerLayer
		}
		if v, ok := m[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

// verdict applies the comparison rule to paired runs of one metric. A gain
// needs at least minPairs pairs, the change winning at least nine in ten of
// them (ties count for neither) and medians further apart than the parent's
// interquartile range. Otherwise a metric with a bound is better, no worse
// (within its bound), worse, or unresolved when the runs spread wider than
// the bound and not every change run beats every parent run. Metrics
// without a bound are only described.
func verdict(parent, change []float64, better string, bound *float64) (string, int) {
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	wins := 0
	for i := range parent {
		if sign*(change[i]-parent[i]) > 0 {
			wins++
		}
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	gain := sign * (cm - pm)
	n := len(parent)
	if n >= minPairs && wins*10 >= 9*n && gain > q3-q1 {
		return "gain", wins
	}
	if bound == nil {
		switch {
		case gain > 0:
			return "better (info)", wins
		case gain < 0:
			return "worse (info)", wins
		}
		return "same (info)", wins
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) <= 0 {
				allBetter = false
			}
		}
	}
	if math.Max(relIQR(parent), relIQR(change)) > *bound {
		if allBetter {
			return "better", wins
		}
		return "unresolved", wins
	}
	if pm != 0 && -gain/math.Abs(pm) > *bound {
		return "worse", wins
	}
	if gain > 0 {
		return "better", wins
	}
	return "no worse", wins
}

// compareRuns pairs the i-th run of each workload in the parent file with
// the i-th in the change file and prints one row per workload and metric.
// It exits 1 when an end-to-end metric is worse than its bound allows.
func compareRuns(stdout, stderr io.Writer, spec *benchmarkSpec, parentPath, changePath string) int {
	parent, order, err := readRuns(parentPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	change, _, err := readRuns(changePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	worse := false
	fmt.Fprintf(stdout, "%-20s %-32s %16s %16s %8s %7s  %s\n", "workload", "metric", "parent median", "change median", "delta", "wins", "verdict")
	for _, wl := range order {
		p, c := parent[wl], change[wl]
		n := min(len(p), len(c))
		if n == 0 {
			fmt.Fprintf(stdout, "%-20s no runs in the change file\n", wl)
			continue
		}
		p, c = p[:n], c[:n]
		alternating := true
		for i := 0; i < n; i++ {
			if p[i].Seed != c[i].Seed || p[i].Trace != c[i].Trace {
				fmt.Fprintf(stderr, "bench: %s pair %d: parent seed %d trace %d, change seed %d trace %d\n", wl, i+1, p[i].Seed, p[i].Trace, c[i].Seed, c[i].Trace)
				return 2
			}
			if i > 0 && (p[i].StartUnixNs < c[i].StartUnixNs) == (p[i-1].StartUnixNs < c[i-1].StartUnixNs) {
				alternating = false
			}
		}
		if !alternating {
			fmt.Fprintf(stdout, "%-20s note: pairs do not alternate which side runs first\n", wl)
		}
		if n < minPairs {
			fmt.Fprintf(stdout, "%-20s note: %d pairs; a gain needs %d\n", wl, n, minPairs)
		}
		rows := func(defs []specMetric, layer bool) {
			for _, d := range defs {
				pv, cv := values(p, d.Name, layer), values(c, d.Name, layer)
				if len(pv) == 0 || len(pv) != len(cv) {
					continue
				}
				v, wins := verdict(pv, cv, d.Better, d.Bound)
				if v == "worse" {
					worse = true
				}
				pm, cm := median(pv), median(cv)
				delta := "n/a"
				if pm != 0 {
					delta = fmt.Sprintf("%+.1f%%", 100*(cm-pm)/math.Abs(pm))
				}
				fmt.Fprintf(stdout, "%-20s %-32s %16s %16s %8s %3d/%-3d  %s\n", wl, d.Name+" ("+d.Unit+")", fmtNum(pm), fmtNum(cm), delta, wins, len(pv), v)
			}
		}
		rows(spec.EndToEnd, false)
		rows(spec.PerLayer, true)
	}
	if worse {
		return 1
	}
	return 0
}

// metricSummary is one metric's spread over a file's runs of a workload.
type metricSummary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	IQRRel float64 `json:"iqr_rel"`
	N      int     `json:"n"`
	// Bound and WideSpread are set for end-to-end metrics: WideSpread marks
	// a spread above a third of the bound, too wide to resolve a regression
	// at the bound.
	Bound      *float64 `json:"bound,omitempty"`
	WideSpread bool     `json:"wide_spread,omitempty"`
}

// summarize prints, per workload, every metric's median, quartiles, relative
// IQR and sample count over the runs of a -out file, as JSON.
func summarize(stdout, stderr io.Writer, spec *benchmarkSpec, path string) int {
	runs, order, err := readRuns(path)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	type workloadSummary struct {
		Runs     int                      `json:"runs"`
		Seeds    []int64                  `json:"seeds"`
		Correct  bool                     `json:"correct"`
		EndToEnd map[string]metricSummary `json:"end_to_end"`
		PerLayer map[string]metricSummary `json:"per_layer,omitempty"`
	}
	out := make(map[string]workloadSummary)
	for _, wl := range order {
		rs := runs[wl]
		ws := workloadSummary{Runs: len(rs), Correct: true, EndToEnd: make(map[string]metricSummary)}
		for _, r := range rs {
			ws.Seeds = append(ws.Seeds, r.Seed)
			ws.Correct = ws.Correct && r.Correct
		}
		sort.Slice(ws.Seeds, func(i, j int) bool { return ws.Seeds[i] < ws.Seeds[j] })
		add := func(defs []specMetric, layer bool, into map[string]metricSummary) {
			for _, d := range defs {
				vs := values(rs, d.Name, layer)
				if len(vs) == 0 {
					continue
				}
				q1, q3 := quartiles(vs)
				s := metricSummary{Unit: d.Unit, Median: median(vs), Q1: q1, Q3: q3, IQRRel: relIQR(vs), N: len(vs), Bound: d.Bound}
				if d.Bound != nil && d.Name != "setup_s" {
					s.WideSpread = s.IQRRel > *d.Bound/3
				}
				into[d.Name] = s
			}
		}
		add(spec.EndToEnd, false, ws.EndToEnd)
		ws.PerLayer = make(map[string]metricSummary)
		add(spec.PerLayer, true, ws.PerLayer)
		if len(ws.PerLayer) == 0 {
			ws.PerLayer = nil
		}
		out[wl] = ws
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return 0
}
