package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"time"

	"mufuzz/internal/analysis"
	"mufuzz/internal/conformance"
	"mufuzz/internal/evm"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/ingest"
	"mufuzz/internal/minisol"
	"mufuzz/internal/store"
)

// setupReps is how many repetitions each per-layer set-up timing and the
// store probe take their median over.
const setupReps = 21

// repeatMedian runs fn reps times and returns the median time in
// microseconds.
func repeatMedian(reps int, fn func() error) (float64, error) {
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	return median(micros(ds)), nil
}

// setupLayers times each set-up layer on all of the workload's contracts:
// the two front ends (MiniSol compile, bytecode ingest), CFG recovery with
// branch indexing, IR compilation, and NewTargetCampaign for each distinct
// campaign of the workload.
func setupLayers(w *workload, cs []campaign) (map[string]float64, error) {
	out := make(map[string]float64)
	layers := []struct {
		name string
		fn   func(c contract) error
	}{
		{"minisol.compile_us", func(c contract) error { _, err := minisol.Compile(c.source); return err }},
		{"ingest.load_us", func(c contract) error { _, err := ingest.LoadHex(c.bin, c.abi); return err }},
		{"analysis.cfg_us", func(c contract) error {
			analysis.NewBranchIndex(analysis.BuildCFG(c.code))
			return nil
		}},
		{"evm.ir_compile_us", func(c contract) error { evm.CompileProgram(c.code); return nil }},
	}
	for _, l := range layers {
		us, err := repeatMedian(setupReps, func() error {
			for _, c := range w.contracts {
				if err := l.fn(c); err != nil {
					return fmt.Errorf("%s on %s: %w", l.name, c.name, err)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out[l.name] = us
	}

	distinct := cs[:1]
	if w.fleet {
		distinct = cs
	}
	rs := make([]resolved, len(distinct))
	for i, c := range distinct {
		r, err := resolve(c.spec)
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}
	us, err := repeatMedian(setupReps, func() error {
		for _, r := range rs {
			r.start()
		}
		return nil
	})
	out["fuzz.new_campaign_us"] = us
	return out, err
}

// replayProbe replays every campaign's final queue on the campaign itself
// (compiled IR) and on a fresh NoIR campaign of the same spec (the
// reference switch-loop interpreter), alternating per campaign.
func replayProbe(w *workload, et *engineTrace, tr *tracer) map[string]float64 {
	var ir, noIR time.Duration
	seqs := 0
	for i, c := range et.camps {
		queue := c.QueueSequences()
		r := et.resolved[i]
		opts := r.opts
		opts.NoIR = true
		ref := fuzz.NewTargetCampaign(r.target, opts)

		_, end := tr.begin(0, "fuzz.Replay", w.name, et.labels[i])
		start := time.Now()
		for _, seq := range queue {
			c.Replay(seq)
		}
		ir += time.Since(start)
		end()

		_, end = tr.begin(0, "fuzz.Replay.noir", w.name, et.labels[i])
		start = time.Now()
		for _, seq := range queue {
			ref.Replay(seq)
		}
		noIR += time.Since(start)
		end()
		seqs += len(queue)
	}
	perSeq := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(seqs) }
	return map[string]float64{
		"fuzz.replay_us_per_seq":      perSeq(ir),
		"fuzz.replay_noir_us_per_seq": perSeq(noIR),
		"evm.ir_speedup":              float64(noIR) / float64(ir),
	}
}

// snapshotProbe snapshots, decodes and resumes every campaign of the traced
// trial, reporting the median per campaign.
func snapshotProbe(w *workload, et *engineTrace, tr *tracer) (map[string]float64, error) {
	var enc, dec, res []time.Duration
	var size float64
	for i, c := range et.camps {
		label := et.labels[i]
		_, end := tr.begin(0, "fuzz.Snapshot", w.name, label)
		start := time.Now()
		data := c.Snapshot().EncodeBytes()
		enc = append(enc, time.Since(start))
		end()
		size += float64(len(data))

		_, end = tr.begin(0, "fuzz.DecodeSnapshot", w.name, label)
		start = time.Now()
		snap, err := fuzz.DecodeSnapshot(bytes.NewReader(data))
		dec = append(dec, time.Since(start))
		end()
		if err != nil {
			return nil, fmt.Errorf("decode snapshot of %s: %w", label, err)
		}

		r := et.resolved[i]
		_, end = tr.begin(0, "fuzz.Resume", w.name, label)
		start = time.Now()
		if r.world != nil {
			_, err = fuzz.ResumeWorldCampaign(r.target, r.world, snap)
		} else {
			_, err = fuzz.ResumeTargetCampaign(r.target, snap)
		}
		res = append(res, time.Since(start))
		end()
		if err != nil {
			return nil, fmt.Errorf("resume %s: %w", label, err)
		}
	}
	return map[string]float64{
		"fuzz.snapshot_encode_us": median(micros(enc)),
		"fuzz.snapshot_bytes":     size / float64(len(et.camps)),
		"fuzz.snapshot_decode_us": median(micros(dec)),
		"fuzz.resume_us":          median(micros(res)),
	}, nil
}

// setRun is one untraced run of the probe campaigns.
type setRun struct {
	rate     float64
	execs    int
	encBytes int
	encTime  time.Duration
}

// runProbeSet runs the probe campaigns at the given worker count, with or
// without a conformance Recorder installed. Campaigns are built before the
// clock starts; with a recorder, each campaign's records are encoded after
// the clock stops.
func runProbeSet(cs []campaign, workers int, record bool) (setRun, error) {
	camps := make([]*fuzz.Campaign, len(cs))
	recs := make([]*conformance.Recorder, len(cs))
	for i, c := range cs {
		r, err := resolve(c.spec)
		if err != nil {
			return setRun{}, err
		}
		r.opts.Workers = workers
		if record {
			recs[i] = &conformance.Recorder{}
			r.opts.Observer = recs[i]
		}
		camps[i] = r.start()
	}
	var out setRun
	start := time.Now()
	for _, c := range camps {
		out.execs += c.Run().Executions
	}
	out.rate = float64(out.execs) / time.Since(start).Seconds()
	if record {
		for _, rec := range recs {
			s := time.Now()
			out.encBytes += len(conformance.EncodeRecords(rec.Records()))
			out.encTime += time.Since(s)
		}
	}
	return out, nil
}

// probeSetLayers measures the worker pool and the conformance recorder on
// the probe campaigns: at the workload's own worker count with and without
// a recorder, and at the other of workers 1 and 2.
func probeSetLayers(cs []campaign) (map[string]float64, error) {
	own := cs[0].spec.Workers
	other := 2
	if own == 2 {
		other = 1
	}
	plain, err := runProbeSet(cs, own, false)
	if err != nil {
		return nil, err
	}
	recorded, err := runProbeSet(cs, own, true)
	if err != nil {
		return nil, err
	}
	alt, err := runProbeSet(cs, other, false)
	if err != nil {
		return nil, err
	}
	w1, w2 := plain.rate, alt.rate
	if own == 2 {
		w1, w2 = alt.rate, plain.rate
	}
	return map[string]float64{
		"fuzz.w2_over_w1":                 w2 / w1,
		"conformance.record_overhead_pct": 100 * (1 - recorded.rate/plain.rate),
		"conformance.bytes_per_exec":      float64(recorded.encBytes) / float64(recorded.execs),
		"conformance.encode_us_per_exec":  float64(recorded.encTime) / float64(time.Microsecond) / float64(recorded.execs),
	}, nil
}

// storeProbe times Put of the median-size commit body into a fresh store.
func storeProbe(bodies [][]byte) (float64, error) {
	if len(bodies) == 0 {
		return 0, fmt.Errorf("store probe: no commit bodies recorded")
	}
	sorted := append([][]byte(nil), bodies...)
	sort.Slice(sorted, func(i, j int) bool { return len(sorted[i]) < len(sorted[j]) })
	payload := sorted[len(sorted)/2]
	dir, err := os.MkdirTemp("", "mufuzz-bench-put-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	i := 0
	return repeatMedian(setupReps, func() error {
		i++
		return st.Put(store.KindSnapshot, "bench", fmt.Sprintf("commit-%d", i), payload)
	})
}

// canaryRounds is the length of the canary loop, about 40 us.
const canaryRounds = 20000

// canarySink keeps the canary loop's result alive.
var canarySink uint64

// canary times a fixed chain of dependent integer operations. It is the
// benchmark's own code, so no change to mufuzz can speed it up, and it
// touches no memory, so its fastest time over a run follows the host's
// clock speed only.
func canary() time.Duration {
	x := canarySink | 1
	start := time.Now()
	for i := 0; i < canaryRounds; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	d := time.Since(start)
	canarySink += x
	return d
}
