package main

// metricDef names one metric and its unit. BENCHMARK.json at the checkout
// root lists the same names and units (the smoke test holds them equal) and
// adds each metric's direction and regression bound.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of mufuzz sees, measured with tracing off.
var endToEnd = []metricDef{
	{"execs_per_sec", "execs/s"},
	{"setup_s", "s"},
	{"coverage_final", "fraction"},
	{"coverage_auc", "fraction"},
	{"bug_found_ratio", "fraction"},
	{"alloc_bytes_per_exec", "B/exec"},
}

// perLayer are the traced pass's metrics, named by the module they measure.
var perLayer = []metricDef{
	{"minisol.compile_us", "us"},
	{"ingest.load_us", "us"},
	{"analysis.cfg_us", "us"},
	{"evm.ir_compile_us", "us"},
	{"fuzz.new_campaign_us", "us"},
	{"fuzz.replay_us_per_seq", "us/seq"},
	{"fuzz.replay_noir_us_per_seq", "us/seq"},
	{"evm.ir_speedup", "ratio"},
	{"fuzz.w2_over_w1", "ratio"},
	{"fuzz.fold_gap_us_p50", "us"},
	{"fuzz.fold_gap_us_p99", "us"},
	{"fuzz.prefix_hit_ratio", "fraction"},
	{"fuzz.masks_per_kexec", "masks/kexec"},
	{"fuzz.queue_len", "seeds"},
	{"fuzz.allocs_per_exec", "allocs/exec"},
	{"fuzz.execs_to_first_bug", "execs"},
	{"fuzz.slice_ms_p50", "ms"},
	{"fuzz.slice_ms_p99", "ms"},
	{"fuzz.snapshot_encode_us", "us"},
	{"fuzz.snapshot_bytes", "B"},
	{"fuzz.snapshot_decode_us", "us"},
	{"fuzz.resume_us", "us"},
	{"conformance.record_overhead_pct", "%"},
	{"conformance.bytes_per_exec", "B/exec"},
	{"conformance.encode_us_per_exec", "us/exec"},
	{"fleet.submit_us_p50", "us"},
	{"fleet.lease_us_p50", "us"},
	{"fleet.lease_us_p90", "us"},
	{"fleet.commit_us_p50", "us"},
	{"fleet.commit_us_p90", "us"},
	{"fleet.commit_bytes_mean", "B"},
	{"fleet.runone_ms_p50", "ms"},
	{"fleet.runone_ms_p90", "ms"},
	{"fleet.exec_share", "fraction"},
	{"fleet.refused", "count"},
	{"fleet.slices_per_campaign", "count"},
	{"store.put_us_p50", "us"},
	{"bench.trace_overhead_pct", "%"},
	{"host.canary_ms", "ms"},
}

// metricValue is one reported metric, in the shape the last output line
// carries.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect picks defs out of values, failing on any missing one.
func collect(defs []metricDef, values map[string]float64, prefix string, out map[string]metricValue) []string {
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[prefix+d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return missing
}
