// Package service is the campaign service: a multi-tenant scheduler that
// time-slices any number of concurrent fuzzing campaigns over a bounded pool
// of executor slots, shares corpus seeds between campaigns through the
// persistent store, and snapshots every in-flight campaign on drain so a
// restarted service resumes exactly where it stopped — no findings, corpus,
// or schedule position lost.
//
// The scheduling unit is one slice step (Step): a bounded number of energy
// rounds at a deterministic boundary of the campaign schedule. Each step
// imports seeds sibling campaigns discovered and exports the slice's new
// queue seeds to the store (deduplicated by coverage fingerprint), so
// campaigns on the same contract cross-pollinate interesting sequences the
// way OSS-Fuzz-style fleets share corpora.
//
// The package is also the campaign model the fleet shares: one spec
// resolution (Resolve, Resolved.Open), one slice step with its seed ledger,
// and one status and findings model (Status, Progress, Finding).
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mufuzz/internal/fuzz"
	"mufuzz/internal/store"
)

// Config tunes one service instance.
type Config struct {
	// Store persists snapshots, metadata, PoCs, and the shared seed corpus.
	// nil runs the service fully in memory: no persistence, no seed sharing
	// (used by benchmarks and overhead measurements).
	Store *store.Store
	// SliceRounds is the number of energy rounds one scheduling slice runs
	// before the campaign yields its slot. Default 8.
	SliceRounds int
	// Slots is the number of campaign slices allowed to run concurrently —
	// the bounded executor pool. Default 1.
	Slots int
	// DefaultIterations is the campaign budget when a spec omits one.
	// Default 20000.
	DefaultIterations int
}

// importPerSlice caps how many foreign seeds one slice imports, bounding the
// injection cost a popular contract imposes on its campaigns.
const importPerSlice = 64

// persistEverySlices is the snapshot cadence of a healthy mid-flight
// campaign (snapshots also happen on new findings, terminal states, and
// drain).
const persistEverySlices = 8

func (c Config) withDefaults() Config {
	if c.SliceRounds == 0 {
		c.SliceRounds = 8
	}
	if c.Slots == 0 {
		c.Slots = 1
	}
	if c.DefaultIterations == 0 {
		c.DefaultIterations = 20000
	}
	return c
}

// CampaignSpec is the submission payload: what to fuzz and how hard.
type CampaignSpec struct {
	// Name is a human label; defaults to the contract name.
	Name string `json:"name,omitempty"`
	// Source is MiniSol source text. Exactly one of Source/Example/Bytecode
	// is set.
	Source string `json:"source,omitempty"`
	// Example names a built-in corpus example (corpus.Examples: crowdsale,
	// crowdsale-buggy, game).
	Example string `json:"example,omitempty"`
	// Bytecode is hex-encoded deployed EVM bytecode (runtime or creation;
	// 0x prefix optional) for a source-free target. Requires ABI. Seeds for
	// bytecode targets are bucketed by codehash, so campaigns fuzzing the
	// same deployed code cross-pollinate regardless of who submitted them.
	Bytecode string `json:"bytecode,omitempty"`
	// ABI is the contract's standard Solidity ABI JSON (the array form),
	// required alongside Bytecode.
	ABI json.RawMessage `json:"abi,omitempty"`
	// Members declares secondary contracts deployed into the campaign's
	// world alongside the primary target; their functions enter sequences
	// qualified by member name. Campaigns with members are bucketed by the
	// world's sorted-codehash ID, so any campaign on the same contract set
	// cross-pollinates seeds.
	Members []WorldMemberSpec `json:"members,omitempty"`
	// Attacker synthesizes a fuzzer-controlled attacker contract into the
	// world, arming the witnessed reentrancy/delegatecall oracles.
	Attacker bool `json:"attacker,omitempty"`
	// Strategy is a preset name (mufuzz, sfuzz, confuzzius, irfuzz,
	// smartian); default mufuzz.
	Strategy string `json:"strategy,omitempty"`
	// Seed is the campaign rng seed; default 1.
	Seed int64 `json:"seed,omitempty"`
	// Iterations is the execution budget; default Config.DefaultIterations.
	Iterations int `json:"iterations,omitempty"`
	// Workers is ignored: each campaign runs on one goroutine.
	//
	// Deprecated: kept because the benchmark harness in bench/ and existing
	// clients still send the "workers" field.
	Workers int `json:"workers,omitempty"`
}

// WorldMemberSpec is one world member in a campaign spec: a source-free
// bytecode + ABI pair deployed next to the primary target.
type WorldMemberSpec struct {
	// Name qualifies the member's functions in sequences; unique, non-empty,
	// no whitespace.
	Name string `json:"name"`
	// Bytecode is the member's hex EVM bytecode (same format as
	// CampaignSpec.Bytecode).
	Bytecode string `json:"bytecode"`
	// ABI is the member's Solidity ABI JSON.
	ABI json.RawMessage `json:"abi"`
}

// Campaign states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateCancelled = "cancelled"
	StateDrained   = "drained"
	StateFailed    = "failed"
)

// Status is the externally visible campaign state, served as JSON. The
// fleet's campaign status embeds it; its State then takes the fleet's
// values.
type Status struct {
	ID         string `json:"id"`
	Name       string `json:"name"`
	Contract   string `json:"contract"`
	State      string `json:"state"`
	Error      string `json:"error,omitempty"`
	Iterations int    `json:"iterations"`
	Progress
	SeedsImported int `json:"seeds_imported"`
	SeedsExported int `json:"seeds_exported"`
	Slices        int `json:"slices"`
}

// Finding is one reported vulnerability with its proof-of-concept call
// orders, served as JSON.
type Finding struct {
	Class       string   `json:"class"`
	PC          uint64   `json:"pc"`
	Description string   `json:"description"`
	PoC         []string `json:"poc,omitempty"`
	PoCMin      []string `json:"poc_minimized,omitempty"`
}

// job is one managed campaign.
type job struct {
	id       string
	spec     CampaignSpec
	contract string // seed-sharing bucket (contract name or codehash label)

	// execMu serializes campaign engine access: the scheduler slice, the
	// findings/minimize handlers, and drain snapshotting.
	execMu   sync.Mutex
	campaign *fuzz.Campaign
	result   *fuzz.Result
	seeds    SeedLedger
	// slicesSincePersist and persistedClasses drive the mid-campaign
	// persistence cadence (owned by the single worker running the job's
	// slices).
	slicesSincePersist int
	persistedClasses   int

	cancelled atomic.Bool
	// sliceCancel, when non-nil, aborts the slice currently running.
	sliceCancelMu sync.Mutex
	sliceCancel   context.CancelFunc

	mu     sync.Mutex
	status Status
	subs   map[chan Status]struct{}
}

// jobMeta is the store's per-campaign metadata record.
type jobMeta struct {
	ID     string       `json:"id"`
	Spec   CampaignSpec `json:"spec"`
	Status Status       `json:"status"`
}

// Service is one campaign-service instance.
type Service struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string
	nextID  int
	drained bool
	started bool

	runq chan *job
}

// New builds a service; call Start to launch the scheduler.
func New(cfg Config) *Service {
	ctx, cancel := context.WithCancel(context.Background())
	return &Service{
		cfg:    cfg.withDefaults(),
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*job),
		runq:   make(chan *job, 4096),
	}
}

// Start restores persisted campaigns from the store (drained and running
// ones re-enter the schedule; completed ones become queryable again) and
// launches the scheduler slots.
func (s *Service) Start() error {
	if err := s.restore(); err != nil {
		return err
	}
	for i := 0; i < s.cfg.Slots; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	return nil
}

// Ready reports whether the service can accept and schedule campaigns: the
// store (if any) was opened and restored, the scheduler slots are running,
// and the service has not drained. The /readyz endpoint — what fleet
// heartbeats and CI smoke jobs poll instead of sleep-and-retry loops —
// serves this; the empty reason means ready.
func (s *Service) Ready() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case !s.started:
		return false, "scheduler not started"
	case s.drained:
		return false, "service drained"
	}
	return true, ""
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.runq:
			s.runSlice(j)
		}
	}
}

// Submit resolves and enqueues a new campaign.
func (s *Service) Submit(spec CampaignSpec) (Status, error) {
	r, err := Resolve(spec, s.cfg.DefaultIterations)
	if err != nil {
		return Status{}, err
	}
	c, err := r.Open(nil)
	if err != nil {
		return Status{}, err
	}

	s.mu.Lock()
	if s.drained {
		s.mu.Unlock()
		return Status{}, fmt.Errorf("service is drained")
	}
	s.nextID++
	id := fmt.Sprintf("c%04d", s.nextID)
	j := &job{
		id:       id,
		spec:     spec,
		contract: r.Bucket,
		campaign: c,
		subs:     make(map[chan Status]struct{}),
	}
	j.status = Status{
		ID: id, Name: r.Name, Contract: r.Bucket,
		State: StateQueued, Iterations: r.Options.Iterations,
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	s.persist(j)
	s.enqueue(j)
	return j.Status(), nil
}

func (s *Service) enqueue(j *job) {
	select {
	case s.runq <- j:
	default:
		// The queue is bounded far above any plausible job count; if it is
		// somehow full, fail the job loudly rather than block a slot.
		j.fail(fmt.Errorf("scheduler queue overflow"))
	}
}

// runSlice runs one scheduling slice of one campaign: import shared seeds,
// run SliceRounds energy rounds, export new seeds and PoCs, publish status,
// and requeue (or finalize).
func (s *Service) runSlice(j *job) {
	if j.cancelled.Load() {
		j.setState(StateCancelled, nil)
		s.persist(j)
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	j.setSliceCancel(cancel)
	defer func() {
		j.setSliceCancel(nil)
		cancel() // release the child context; one leaks per slice otherwise
	}()

	j.execMu.Lock()
	j.setState(StateRunning, nil)
	// Own exports are never offered back, so a lone campaign never
	// re-executes its own corpus.
	offers := j.seeds.Offers(s.cfg.Store, j.contract, importPerSlice)
	step := Step(ctx, j.campaign, s.cfg.SliceRounds, offers, nil, s.cfg.Store != nil)
	res, done := step.Result, step.Done
	j.result = res
	j.seeds.Absorb(step.Imported)
	exported := j.seeds.Share(s.cfg.Store, j.contract, step.Exports)
	s.persistPoCs(j, res)
	j.execMu.Unlock()

	j.publish(func(st *Status) {
		st.Progress = ProgressOf(res)
		st.SeedsImported += step.Injected
		st.SeedsExported += exported
		st.Slices++
	})

	switch {
	case j.cancelled.Load():
		j.setState(StateCancelled, nil)
		s.persist(j)
	case done:
		j.setState(StateDone, nil)
		s.persist(j)
	case s.ctx.Err() != nil:
		// Service is draining; Drain persists the snapshot once all slots
		// have stopped.
	default:
		// Mid-campaign persistence is a durability/throughput trade: a full
		// snapshot costs a deep state copy plus fsynced writes, so it runs
		// when a new bug class appeared (findings must survive a crash) or
		// every persistEverySlices slices, not after every slice. A crash
		// loses at most that many slices of schedule progress — the seed
		// corpus and PoCs are persisted on their own cadence above.
		j.slicesSincePersist++
		if len(res.BugClasses) > j.persistedClasses || j.slicesSincePersist >= persistEverySlices {
			s.persist(j)
			j.slicesSincePersist = 0
			j.persistedClasses = len(res.BugClasses)
		}
		s.enqueue(j)
	}
}

// persistPoCs writes each bug class's first triggering sequence — the
// crash-safe record a findings consumer can replay even if the service dies
// before drain.
func (s *Service) persistPoCs(j *job, res *fuzz.Result) {
	if s.cfg.Store == nil {
		return
	}
	for class, seq := range res.Repro {
		name := j.id + "-" + string(class)
		_, _ = s.cfg.Store.PutIfAbsent(store.KindPoC, j.contract, name, fuzz.EncodeSequence(seq))
	}
}

// persist writes the job's snapshot and metadata. Callers must not hold
// j.execMu.
func (s *Service) persist(j *job) {
	if s.cfg.Store == nil {
		return
	}
	j.execMu.Lock()
	var snap []byte
	if j.campaign != nil {
		snap = j.campaign.Snapshot().EncodeBytes()
	}
	j.execMu.Unlock()
	if snap != nil {
		_ = s.cfg.Store.Put(store.KindSnapshot, "", j.id+".snap", snap)
	}
	meta, _ := json.Marshal(jobMeta{ID: j.id, Spec: j.spec, Status: j.Status()})
	_ = s.cfg.Store.Put(store.KindMeta, "", j.id+".json", meta)
}

// restore loads persisted campaigns on startup. Unfinished campaigns
// (drained, running, queued) resume scheduling; finished ones are restored
// for queries only.
func (s *Service) restore() error {
	if s.cfg.Store == nil {
		return nil
	}
	metas, err := s.cfg.Store.List(store.KindMeta, "")
	if err != nil {
		return err
	}
	var requeue []*job
	s.mu.Lock()
	for _, e := range metas {
		var m jobMeta
		if err := json.Unmarshal(e.Payload, &m); err != nil || m.ID == "" {
			continue
		}
		j := &job{
			id:     m.ID,
			spec:   m.Spec,
			subs:   make(map[chan Status]struct{}),
			status: m.Status,
		}
		var n int
		if _, err := fmt.Sscanf(m.ID, "c%d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
		if err := s.rebuild(j); err != nil {
			j.status.State = StateFailed
			j.status.Error = err.Error()
		} else {
			switch j.status.State {
			case StateQueued, StateRunning, StateDrained:
				j.status.State = StateQueued
				requeue = append(requeue, j)
			}
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		j.contract = j.status.Contract
	}
	sort.Strings(s.order)
	s.mu.Unlock()
	for _, j := range requeue {
		s.enqueue(j)
	}
	return nil
}

// rebuild re-resolves a restored job's target and resumes its campaign from
// the stored snapshot.
func (s *Service) rebuild(j *job) error {
	r, err := Resolve(j.spec, s.cfg.DefaultIterations)
	if err != nil {
		return err
	}
	data, err := s.cfg.Store.Get(store.KindSnapshot, "", j.id+".snap")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	j.campaign, err = r.Open(data)
	return err
}

// Drain stops the scheduler, snapshots every live campaign to the store,
// and marks them drained. Idempotent; the service accepts no new campaigns
// afterwards. Returns how many campaigns were snapshotted.
func (s *Service) Drain() int {
	s.mu.Lock()
	if s.drained {
		s.mu.Unlock()
		return 0
	}
	s.drained = true
	s.mu.Unlock()

	s.cancel()
	s.wg.Wait()

	n := 0
	for _, j := range s.jobList() {
		st := j.Status()
		if st.State == StateQueued || st.State == StateRunning {
			j.setState(StateDrained, nil)
			n++
		}
		if j.campaign != nil {
			s.persist(j)
		}
	}
	return n
}

// Close is Drain for defer use.
func (s *Service) Close() { s.Drain() }

// Cancel stops a campaign: its current slice is aborted and it leaves the
// schedule.
func (s *Service) Cancel(id string) error {
	j, ok := s.job(id)
	if !ok {
		return fmt.Errorf("no campaign %s", id)
	}
	j.cancelled.Store(true)
	j.sliceCancelMu.Lock()
	if j.sliceCancel != nil {
		j.sliceCancel()
	}
	j.sliceCancelMu.Unlock()
	// A queued (not running) job flips state immediately; a running one is
	// finalized by its worker.
	if st := j.Status(); st.State == StateQueued {
		j.setState(StateCancelled, nil)
		s.persist(j)
	}
	return nil
}

// Statuses lists every campaign in submission order.
func (s *Service) Statuses() []Status {
	jobs := s.jobList()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Status returns one campaign's status.
func (s *Service) Status(id string) (Status, bool) {
	j, ok := s.job(id)
	if !ok {
		return Status{}, false
	}
	return j.Status(), true
}

// Findings returns a campaign's findings with proof-of-concept call orders;
// minimize additionally ddmin-shrinks each PoC (replays run on a detached
// engine and do not perturb the campaign).
func (s *Service) Findings(id string, minimize bool) ([]Finding, error) {
	j, ok := s.job(id)
	if !ok {
		return nil, fmt.Errorf("no campaign %s", id)
	}
	j.execMu.Lock()
	defer j.execMu.Unlock()
	if j.campaign == nil {
		return nil, fmt.Errorf("campaign %s has no engine state (%s)", id, j.Status().State)
	}
	res := j.result
	if res == nil {
		res = j.campaign.ResultSoFar()
	}
	out := FindingsOf(res)
	if minimize {
		for i, f := range res.Findings {
			if seq, ok := res.Repro[f.Class]; ok {
				out[i].PoCMin = j.campaign.MinimizeForBug(seq, f.Class).Funcs()
			}
		}
	}
	return out, nil
}

func (s *Service) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Service) jobList() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// --- job helpers ---

// Status returns a copy of the job's current status.
func (j *job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

func (j *job) setState(state string, err error) {
	j.publish(func(st *Status) {
		st.State = state
		if err != nil {
			st.Error = err.Error()
		}
	})
}

func (j *job) fail(err error) { j.setState(StateFailed, err) }

// publish mutates the status under the job lock and broadcasts the new
// value to subscribers (non-blocking: a slow subscriber misses updates, not
// the stream's liveness).
func (j *job) publish(mut func(*Status)) {
	j.mu.Lock()
	mut(&j.status)
	st := j.status
	for ch := range j.subs {
		select {
		case ch <- st:
		default:
		}
	}
	j.mu.Unlock()
}

// subscribe registers a status listener; the returned cancel unregisters.
func (j *job) subscribe() (<-chan Status, func()) {
	ch := make(chan Status, 8)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	ch <- j.status
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

func (j *job) setSliceCancel(f context.CancelFunc) {
	j.sliceCancelMu.Lock()
	j.sliceCancel = f
	j.sliceCancelMu.Unlock()
}
