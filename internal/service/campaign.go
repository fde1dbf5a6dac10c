package service

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"mufuzz/internal/corpus"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/ingest"
	"mufuzz/internal/minisol"
	"mufuzz/internal/store"
	"mufuzz/internal/world"
)

// Resolved is a campaign spec resolved to everything a campaign needs.
type Resolved struct {
	// Spec is the canonical spec: strategy, seed and iterations filled in,
	// so whoever resolves it again derives identical engine options without
	// sharing configuration. Fleet leases carry it in this form.
	Spec   CampaignSpec
	Target fuzz.Target
	// World is the spec's world half; nil for a plain campaign.
	World *fuzz.WorldOptions
	// Bucket is the seed-sharing bucket (see ResolveWorld).
	Bucket string
	// Name is the spec's name, else the target's.
	Name string
	// Options are the campaign's engine options, World included.
	Options fuzz.Options
}

// Resolve turns a spec into a Resolved campaign, filling an omitted budget
// from defaultIterations. A bad spec fails here, before any campaign runs.
func Resolve(spec CampaignSpec, defaultIterations int) (*Resolved, error) {
	opts, err := SpecOptions(spec, defaultIterations, 0)
	if err != nil {
		return nil, err
	}
	spec.Strategy = opts.Strategy.Name
	spec.Seed = opts.Seed
	spec.Iterations = opts.Iterations
	target, err := ResolveTarget(spec)
	if err != nil {
		return nil, err
	}
	w, bucket, err := ResolveWorld(spec, target)
	if err != nil {
		return nil, err
	}
	opts.World = w
	name := spec.Name
	if name == "" {
		name = target.Name()
	}
	return &Resolved{Spec: spec, Target: target, World: w, Bucket: bucket, Name: name, Options: opts}, nil
}

// Open starts the campaign fresh when snapshot is empty, and otherwise
// resumes it from the encoded snapshot.
func (r *Resolved) Open(snapshot []byte) (*fuzz.Campaign, error) {
	if len(snapshot) == 0 {
		return fuzz.NewTargetCampaign(r.Target, r.Options), nil
	}
	snap, err := fuzz.DecodeSnapshot(bytes.NewReader(snapshot))
	if err != nil {
		return nil, err
	}
	if r.World != nil {
		return fuzz.ResumeWorldCampaign(r.Target, r.World, snap)
	}
	return fuzz.ResumeTargetCampaign(r.Target, snap)
}

// ResolveTarget maps a spec to a fuzzable target: compiled MiniSol source
// (inline or a built-in example) or source-free bytecode + ABI. Resolve is
// its only caller outside the benchmark harness in bench/.
func ResolveTarget(spec CampaignSpec) (fuzz.Target, error) {
	set := 0
	for _, s := range []bool{spec.Source != "", spec.Example != "", spec.Bytecode != ""} {
		if s {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("spec needs exactly one of source, example, or bytecode")
	}

	if spec.Bytecode != "" {
		if len(spec.ABI) == 0 {
			return nil, fmt.Errorf("bytecode campaigns need an abi")
		}
		return ingest.LoadHex(spec.Bytecode, spec.ABI)
	}

	src := spec.Source
	if spec.Example != "" {
		var ok bool
		if src, ok = corpus.Example(spec.Example); !ok {
			return nil, fmt.Errorf("unknown example %q", spec.Example)
		}
	}
	comp, err := minisol.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return fuzz.MinisolTarget(comp), nil
}

// ResolveWorld maps a spec's world half (members + attacker) to engine
// WorldOptions and the campaign's seed-sharing bucket. Plain specs get nil
// options and the primary target's name; specs with members get the
// order-independent world bucket so campaigns on the same contract set
// share a corpus no matter how their specs list the members. Resolve is its
// only caller outside bench/.
func ResolveWorld(spec CampaignSpec, primary fuzz.Target) (*fuzz.WorldOptions, string, error) {
	if len(spec.Members) == 0 && !spec.Attacker {
		return nil, primary.Name(), nil
	}
	w := &fuzz.WorldOptions{}
	seen := map[string]bool{}
	for _, m := range spec.Members {
		if m.Name == "" || seen[m.Name] {
			return nil, "", fmt.Errorf("world member needs a unique non-empty name (got %q)", m.Name)
		}
		seen[m.Name] = true
		if m.Bytecode == "" || len(m.ABI) == 0 {
			return nil, "", fmt.Errorf("world member %s needs bytecode and abi", m.Name)
		}
		t, err := ingest.LoadHex(m.Bytecode, m.ABI)
		if err != nil {
			return nil, "", fmt.Errorf("world member %s: %w", m.Name, err)
		}
		w.Members = append(w.Members, fuzz.WorldMember{Name: m.Name, Target: t})
	}
	if spec.Attacker {
		w.Attacker = world.NewModel(primary.Methods())
	}
	bucket := primary.Name()
	if len(w.Members) > 0 {
		all := []fuzz.Target{primary}
		for _, m := range w.Members {
			all = append(all, m.Target)
		}
		bucket = world.BucketID(all...)
	}
	return w, bucket, nil
}

// SpecOptions maps a spec to engine options, filling an omitted budget from
// defaultIterations. Resolve is its only caller outside bench/.
//
// Deprecated: defaultWorkers is ignored, like CampaignSpec.Workers; the
// parameter stays only because the benchmark harness in bench/ passes it.
func SpecOptions(spec CampaignSpec, defaultIterations, defaultWorkers int) (fuzz.Options, error) {
	strat, ok := fuzz.PresetByName(spec.Strategy)
	if !ok {
		return fuzz.Options{}, fmt.Errorf("unknown strategy %q", spec.Strategy)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	iters := spec.Iterations
	if iters == 0 {
		iters = defaultIterations
	}
	return fuzz.Options{Strategy: strat, Seed: seed, Iterations: iters}, nil
}

// Progress is a campaign's progress as of its last slice: the part of a
// status a slice result decides.
type Progress struct {
	Executions   int      `json:"executions"`
	Coverage     float64  `json:"coverage"`
	CoveredEdges int      `json:"covered_edges"`
	TotalEdges   int      `json:"total_edges"`
	SeedQueueLen int      `json:"seed_queue_len"`
	Findings     int      `json:"findings"`
	Classes      []string `json:"classes,omitempty"`
}

// ProgressOf projects a slice result into Progress; Classes is sorted.
func ProgressOf(res *fuzz.Result) Progress {
	classes := make([]string, 0, len(res.BugClasses))
	for c := range res.BugClasses {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	return Progress{
		Executions:   res.Executions,
		Coverage:     res.Coverage,
		CoveredEdges: res.CoveredEdges,
		TotalEdges:   res.TotalEdges,
		SeedQueueLen: res.SeedQueueLen,
		Findings:     len(res.Findings),
		Classes:      classes,
	}
}

// FindingsOf lists a result's findings, each with the call order of its bug
// class's proof of concept.
func FindingsOf(res *fuzz.Result) []Finding {
	out := make([]Finding, 0, len(res.Findings))
	for _, f := range res.Findings {
		fo := Finding{Class: string(f.Class), PC: f.PC, Description: f.Description}
		if seq, ok := res.Repro[f.Class]; ok {
			fo.PoC = seq.Funcs()
		}
		out = append(out, fo)
	}
	return out
}

// SeedObject is one corpus seed in flight: an encoded transaction sequence
// addressed by the fingerprint of the branch-edge set it covers. The
// fingerprint makes every transfer idempotent — stores deduplicate by it.
type SeedObject struct {
	Fingerprint string `json:"fingerprint"`
	Payload     []byte `json:"payload"`
}

// SeedLedger is one campaign's record of the seed fingerprints it absorbed
// and shared, so the seeds offered to it never echo its own back at it.
type SeedLedger struct {
	imported, exported map[string]bool
}

// Offers picks up to limit seeds of the store's bucket that the campaign
// has neither absorbed nor shared; none without a store.
func (l *SeedLedger) Offers(st *store.Store, bucket string, limit int) []SeedObject {
	if st == nil {
		return nil
	}
	entries, err := st.Seeds(bucket)
	if err != nil {
		return nil
	}
	var out []SeedObject
	for _, e := range entries {
		if len(out) >= limit {
			break
		}
		if l.imported[e.Name] || l.exported[e.Name] {
			continue
		}
		out = append(out, SeedObject{Fingerprint: e.Name, Payload: e.Payload})
	}
	return out
}

// Absorb records the fingerprints of injected offers and returns how many
// were new.
func (l *SeedLedger) Absorb(fingerprints []string) int {
	if l.imported == nil {
		l.imported = make(map[string]bool)
	}
	n := 0
	for _, fp := range fingerprints {
		if !l.imported[fp] {
			l.imported[fp] = true
			n++
		}
	}
	return n
}

// Share writes the exports the campaign has neither absorbed nor shared to
// the store's bucket. It returns how many the store did not hold yet, or,
// without a store, how many were new. Exports are content-addressed, so a
// replayed commit shares nothing twice.
func (l *SeedLedger) Share(st *store.Store, bucket string, exports []SeedObject) int {
	if l.exported == nil {
		l.exported = make(map[string]bool)
	}
	n := 0
	for _, e := range exports {
		if l.exported[e.Fingerprint] || l.imported[e.Fingerprint] {
			continue
		}
		l.exported[e.Fingerprint] = true
		if st == nil {
			n++
		} else if wrote, err := st.PutSeed(bucket, e.Fingerprint, e.Payload); err == nil && wrote {
			n++
		}
	}
	return n
}

// StepResult is what one Step produced.
type StepResult struct {
	Result *fuzz.Result
	// Done reports the campaign finished during the slice.
	Done bool
	// Injected counts the offered sequences the campaign executed.
	Injected int
	// Imported lists the fingerprints of the offers that decoded.
	Imported []string
	// Exports are the queued sequences the slice appended, fingerprinted;
	// nil unless asked for.
	Exports []SeedObject
}

// Step runs one slice of a campaign: it injects the offered seeds, then
// installs obs (after the injection, so injected executions never reach the
// slice's observer; nil clears any observer a warm campaign kept), runs up
// to rounds energy rounds, and, when export is set, exports the seeds the
// slice appended to the queue. The service's slot loop and the fleet's
// workers both run their slices through it.
func Step(ctx context.Context, c *fuzz.Campaign, rounds int, offers []SeedObject, obs fuzz.ExecObserver, export bool) StepResult {
	var out StepResult
	out.Injected, out.Imported = InjectSeeds(c, offers)
	c.SetObserver(obs)
	mark := c.Appended()
	out.Result, out.Done = c.RunSlice(ctx, rounds)
	if export {
		out.Exports = NewSeeds(c, c.NewestSequences(c.Appended()-mark))
	}
	return out
}

// InjectSeeds executes the offers that decode through the campaign. It
// returns how many the campaign executed and the fingerprints of those that
// decoded.
func InjectSeeds(c *fuzz.Campaign, offers []SeedObject) (int, []string) {
	var batch []fuzz.Sequence
	var decoded []string
	for _, o := range offers {
		seq, err := fuzz.DecodeSequence(o.Payload)
		if err != nil {
			continue
		}
		batch = append(batch, seq)
		decoded = append(decoded, o.Fingerprint)
	}
	return c.InjectSequences(batch), decoded
}

// NewSeeds fingerprints each distinct sequence of seqs (sequences of the
// campaign's queue) by the coverage a detached replay observes. The service,
// the fleet and the CLI's corpus directory share this one content
// addressing, so their seeds share one namespace.
func NewSeeds(c *fuzz.Campaign, seqs []fuzz.Sequence) []SeedObject {
	var out []SeedObject
	seen := make(map[string]bool)
	for _, seq := range seqs {
		enc := fuzz.EncodeSequence(seq)
		if seen[string(enc)] {
			continue
		}
		seen[string(enc)] = true
		fp := store.Fingerprint(c.ReplayCoverageEdges(seq))
		out = append(out, SeedObject{Fingerprint: fp, Payload: enc})
	}
	return out
}
