package conformance

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"

	"mufuzz/internal/evm"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/minisol"
)

// Recorder implements fuzz.ExecObserver by accumulating the engine's records.
// The coordinator calls OnExec on one goroutine in fold order, so no locking
// is needed. Fleet workers install one per leased slice and ship the
// accumulated chunk (EncodeRecords) back with the slice commit.
type Recorder struct {
	records []fuzz.ExecRecord
}

// Records returns the accumulated records in execution order.
func (r *Recorder) Records() []fuzz.ExecRecord { return r.records }

// OnExec keeps rec as is, which fuzz.ExecRecord allows.
func (r *Recorder) OnExec(rec fuzz.ExecRecord) { r.records = append(r.records, rec) }

// Run is one recorded campaign: the live campaign (kept for replay and
// minimization), its result, and the transcript.
type Run struct {
	Name       string
	Campaign   *fuzz.Campaign
	Result     *fuzz.Result
	Transcript *Transcript
}

// RecordCampaign runs one campaign with a transcript recorder attached and
// returns the completed run. The passed Options' Observer field is
// overwritten, and the options are normalized (defaults applied) before
// recording so the transcript pins the exact configuration the engine ran
// under — not whatever the engine's defaults happen to be at replay time.
// Campaigns with a wall-clock TimeBudget are rejected: their stopping point
// is not a function of the seed, so they cannot replay deterministically.
func RecordCampaign(name string, comp *minisol.Compiled, opts fuzz.Options) *Run {
	return RecordTargetCampaign(name, fuzz.MinisolTarget(comp), opts)
}

// RecordTargetCampaign is RecordCampaign over any fuzz.Target — the entry
// point source-free (bytecode-ingested) campaigns are recorded through. The
// engine behind both entry points is one and the same coordinator, which is
// exactly what TestTargetAdapterConformance pins.
func RecordTargetCampaign(name string, target fuzz.Target, opts fuzz.Options) *Run {
	if opts.TimeBudget != 0 {
		panic("conformance: campaigns with a TimeBudget are not deterministically replayable; use Iterations")
	}
	opts = opts.Normalized()
	rec := &Recorder{}
	opts.Observer = rec
	c := fuzz.NewTargetCampaign(target, opts)
	res := c.Run()
	t := &Transcript{
		Version:  Version,
		Contract: name,
		Options:  SummarizeOptions(opts),
		Records:  rec.records,
		Final:    Summarize(c, res),
	}
	return &Run{Name: name, Campaign: c, Result: res, Transcript: t}
}

// RecordInterrupted is RecordCampaign under maximal interruption: the
// campaign is paused after every pauseRounds energy rounds, snapshotted
// through the full encode→decode round trip, torn down, and resumed from the
// decoded snapshot — the lifecycle a draining campaign service puts
// long-running campaigns through. The transcript spans all resumptions; by
// the snapshot/resume conformance guarantee it must be byte-identical to the
// uninterrupted RecordCampaign transcript of the same options.
func RecordInterrupted(name string, comp *minisol.Compiled, opts fuzz.Options, pauseRounds int) (*Run, error) {
	if opts.TimeBudget != 0 {
		panic("conformance: campaigns with a TimeBudget are not deterministically replayable; use Iterations")
	}
	opts = opts.Normalized()
	rec := &Recorder{}
	opts.Observer = rec
	c := fuzz.NewCampaign(comp, opts)
	var res *fuzz.Result
	for {
		var done bool
		res, done = c.RunSlice(context.Background(), pauseRounds)
		if done {
			break
		}
		snap, err := fuzz.DecodeSnapshot(bytes.NewReader(c.Snapshot().EncodeBytes()))
		if err != nil {
			return nil, fmt.Errorf("conformance: snapshot round trip: %w", err)
		}
		if c, err = fuzz.ResumeCampaign(comp, snap); err != nil {
			return nil, fmt.Errorf("conformance: resume: %w", err)
		}
		c.SetObserver(rec)
	}
	t := &Transcript{
		Version:  Version,
		Contract: name,
		Options:  SummarizeOptions(opts),
		Records:  rec.records,
		Final:    Summarize(c, res),
	}
	return &Run{Name: name, Campaign: c, Result: res, Transcript: t}, nil
}

// Summarize projects the deterministic portion of a completed campaign's
// result into the transcript's final summary, including the final
// covered-edge set in canonical order. A fleet worker finishing the last
// slice of a distributed campaign hands the coordinator exactly the summary
// an uninterrupted single-node recording would carry.
func Summarize(c *fuzz.Campaign, res *fuzz.Result) Summary {
	s := Summary{
		CoveredEdges:     res.CoveredEdges,
		TotalEdges:       res.TotalEdges,
		Executions:       res.Executions,
		SeedQueueLen:     res.SeedQueueLen,
		MasksComputed:    res.MasksComputed,
		SequencesMutated: res.SequencesMutated,
	}
	for class := range res.BugClasses {
		s.Classes = append(s.Classes, string(class))
	}
	sort.Strings(s.Classes)
	for _, f := range res.Findings {
		s.Findings = append(s.Findings, fmt.Sprintf("%s|%d|%s", f.Class, f.PC, f.Description))
	}
	sort.Strings(s.Findings)
	for class, seq := range res.Repro {
		s.Repro = append(s.Repro, fmt.Sprintf("%s %s", class, callOrder(seq)))
	}
	sort.Strings(s.Repro)
	for key := range c.Covered() {
		s.Edges = append(s.Edges, fuzz.BranchEdge{PC: key.PC, Taken: key.Taken})
	}
	sortEdges(s.Edges)
	return s
}

// callOrder renders a sequence as its function call order.
func callOrder(seq fuzz.Sequence) string { return strings.Join(seq.Funcs(), ">") }

// ReplayCheck re-runs a recorded campaign from its options on target, in
// world w (nil for a plain campaign), and compares the fresh transcript byte
// for byte against the recording. A nil Divergence means the replay
// reproduced the campaign exactly — every seed pick, every executed
// sequence, every coverage delta, every oracle report. The transcript's
// world token only pins the world's shape, so the caller resupplies the live
// members and attacker model; a world whose token differs from the
// recording's is reported as a "world" divergence without replaying.
func ReplayCheck(target fuzz.Target, w *fuzz.WorldOptions, want *Transcript) (*Run, *Divergence) {
	if got := worldToken(w); got != want.Options.World {
		return nil, &Divergence{Kind: "world", A: fmt.Sprintf("world=%q", want.Options.World), B: fmt.Sprintf("world=%q", got)}
	}
	opts := optionsFrom(want.Options)
	opts.World = w
	run := RecordTargetCampaign(want.Contract, target, opts)
	return run, Diff(want, run.Transcript)
}

// optionsFrom rebuilds engine options from a transcript's options summary.
// Strategy presets are resolved by name.
func optionsFrom(o OptionsSummary) fuzz.Options {
	return fuzz.Options{
		Strategy:      StrategyByName(o.Strategy),
		Seed:          o.Seed,
		Iterations:    o.Iterations,
		NoPrefixCache: o.NoPrefixCache,
	}
}

// lookupStrategy resolves a preset or ablation variant by Name. Decode
// validates transcript strategy names through it, so untrusted transcript
// files fail with a decode error instead of reaching the panicking resolver.
func lookupStrategy(name string) (fuzz.Strategy, bool) {
	for _, s := range allStrategies() {
		if s.Name == name {
			return s, true
		}
	}
	return fuzz.Strategy{}, false
}

// StrategyByName resolves the five strategy presets plus the ablation
// variants by their Name field. Unknown names panic: a transcript recorded
// under an unknown strategy cannot be replayed meaningfully (file input is
// pre-validated by Decode, which reports a clean error instead).
func StrategyByName(name string) fuzz.Strategy {
	s, ok := lookupStrategy(name)
	if !ok {
		panic("conformance: unknown strategy " + name)
	}
	return s
}

func allStrategies() []fuzz.Strategy {
	out := []fuzz.Strategy{fuzz.MuFuzz(), fuzz.SFuzz(), fuzz.ConFuzzius(), fuzz.IRFuzz(), fuzz.Smartian()}
	return append(out, fuzz.Ablations()...)
}

// VerifySequences re-executes every recorded sequence through a detached
// engine (fresh world, fresh detector, no prefix cache) and checks the
// transcript's claims against the independent re-execution:
//
//   - every edge recorded as newly covered is covered by a standalone replay
//     of that record's sequence;
//   - every bug class recorded as newly discovered is triggered by the
//     standalone replay;
//   - the per-record coverage accounting (CoveredAfter = previous +
//     len(NewEdges)) and the final summary are internally consistent.
//
// This is the semantic half of replay: ReplayCheck proves the engine
// re-derives the same transcript, VerifySequences proves the transcript's
// individual claims hold outside the campaign that produced them.
func VerifySequences(c *fuzz.Campaign, t *Transcript) error {
	covered := 0
	addr := c.ContractAddr()
	for i := range t.Records {
		r := &t.Records[i]
		if r.Index != i+1 {
			return fmt.Errorf("record %d: index %d out of order", i, r.Index)
		}
		if want := covered + len(r.NewEdges); r.CoveredAfter != want {
			return fmt.Errorf("record %d: covered %d, accounting says %d", r.Index, r.CoveredAfter, want)
		}
		covered = r.CoveredAfter
		if len(r.NewEdges) == 0 && len(r.NewClasses) == 0 {
			continue // nothing to re-verify; skip the replay cost
		}
		rr := c.Replay(r.Seq)
		for _, e := range r.NewEdges {
			if !rr.Edges[evm.BranchKey{Addr: addr, PC: e.PC, Taken: e.Taken}] {
				return fmt.Errorf("record %d: edge (pc=%d taken=%v) not covered by standalone replay", r.Index, e.PC, e.Taken)
			}
		}
		for _, cl := range r.NewClasses {
			if !rr.BugClasses[cl] {
				return fmt.Errorf("record %d: class %s not triggered by standalone replay", r.Index, cl)
			}
		}
	}
	if covered != t.Final.CoveredEdges {
		return fmt.Errorf("final covered %d, records account for %d", t.Final.CoveredEdges, covered)
	}
	if len(t.Records) != t.Final.Executions {
		return fmt.Errorf("final execs %d, transcript has %d records", t.Final.Executions, len(t.Records))
	}
	if len(t.Final.Edges) != t.Final.CoveredEdges {
		return fmt.Errorf("final edge set has %d entries, covered says %d", len(t.Final.Edges), t.Final.CoveredEdges)
	}
	return nil
}
