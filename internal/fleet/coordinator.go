package fleet

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"mufuzz/internal/conformance"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/service"
	"mufuzz/internal/store"
)

// CoordinatorConfig configures a fleet coordinator.
type CoordinatorConfig struct {
	// Store persists pollination seeds and transcripts, each transcript a
	// log its campaign's commits append to. nil runs fully in memory: no
	// cross-node pollination, and each recorded campaign keeps its
	// transcript in memory (tests and overhead benchmarks).
	Store *store.Store
	// Rounds is the energy-round budget of each leased slice. Default 8.
	Rounds int
	// LeaseTTL is how long a granted lease lives without a heartbeat.
	// Default 10s.
	LeaseTTL time.Duration
	// DefaultIterations fills omitted spec iteration budgets. Default 20000.
	DefaultIterations int
	// TenantMaxActive caps a tenant's non-terminal campaigns; submissions
	// beyond it are refused with 429 and a Retry-After hint. Default 16.
	TenantMaxActive int
}

const (
	// importPerLease caps pollination seeds shipped with one lease.
	importPerLease = 64
	// tenantMaxInFlight caps concurrently leased slices per tenant.
	tenantMaxInFlight = 2
	// retryAfterHint is the Retry-After back-off hint, in seconds, on 429
	// and empty lease polls.
	retryAfterHint = "1"
)

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.DefaultIterations == 0 {
		c.DefaultIterations = 20000
	}
	if c.TenantMaxActive == 0 {
		c.TenantMaxActive = 16
	}
	return c
}

// Campaign states.
const (
	stateQueued = "queued"
	stateLeased = "leased"
	stateDone   = "done"
	stateFailed = "failed"
)

// campaign is the coordinator's record of one distributed campaign. All
// engine state lives in the snapshot chain; the coordinator never runs the
// engine.
type campaign struct {
	id     string
	tenant string
	bucket string
	spec   service.CampaignSpec // canonicalized at submit
	// record is whether this campaign carries a conformance transcript
	// (off for NoTranscript submissions); opts is the transcript's options
	// line, resolved once at submit.
	record bool
	opts   conformance.OptionsSummary

	state string
	seq   int // next slice number

	// snapshot is the last committed snapshot (empty before slice 0
	// commits); the only state a re-granted lease resumes from.
	snapshot []byte
	// log is the end of the campaign's transcript log in the store
	// (KindTranscript, bucket, id). The first commit that carries records
	// creates it with the transcript header, each commit appends its record
	// chunk verbatim, the finishing commit appends the final summary, and
	// seal seals it. Without a store, mem holds the same bytes instead.
	// lastIndex is the index of the last committed record, for
	// chunk-continuity validation.
	log       store.LogEnd
	mem       []byte
	lastIndex int
	// sealed is made by the finishing commit of a recorded campaign and
	// closed once seal is through; Transcript waits for it.
	sealed chan struct{}

	// lastLeaseID / lastResp make commits idempotent: a retried commit of
	// the just-committed lease is acknowledged from here without
	// reapplying, renewal lease included.
	lastLeaseID string
	lastResp    CompleteResponse

	// seeds tracks the pollination fingerprints this campaign consumed or
	// produced.
	seeds service.SeedLedger

	status   CampaignStatus
	findings []service.Finding
}

// lease is one outstanding grant.
type lease struct {
	id         string
	campaignID string
	worker     string
	expires    time.Time
}

// tenantState is per-tenant fair-share accounting.
type tenantState struct {
	inFlight  int
	lastGrant int64 // grant sequence number; least wins the next grant
}

// Coordinator owns campaign lifecycles and leases slices to workers. It is
// an HTTP-facing control plane only: all fuzzing happens on workers, and
// all campaign state the coordinator holds is the deterministic commit
// chain (the last snapshot, seeds, findings); record chunks go to the
// campaign's transcript log as they commit.
type Coordinator struct {
	cfg CoordinatorConfig

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string
	leases    map[string]*lease
	tenants   map[string]*tenantState
	nextID    int
	nextLease int
	grantSeq  int64
}

// NewCoordinator creates a coordinator.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	return &Coordinator{
		cfg:       cfg.withDefaults(),
		campaigns: make(map[string]*campaign),
		leases:    make(map[string]*lease),
		tenants:   make(map[string]*tenantState),
	}
}

// Ready reports readiness: the coordinator is a passive control plane, so
// it is ready as soon as it is constructed (its store, if any, was opened
// by the caller).
func (co *Coordinator) Ready() (bool, string) { return true, "" }

// Submit canonicalizes, validates, and enqueues one campaign. A tenant
// over its active-campaign budget gets errBusy (mapped to 429 upstream).
func (co *Coordinator) Submit(req SubmitRequest) (CampaignStatus, error) {
	// Resolve eagerly so a bad spec fails at submit, not on a worker.
	r, err := service.Resolve(req.Spec, co.cfg.DefaultIterations)
	if err != nil {
		return CampaignStatus{}, err
	}

	co.mu.Lock()
	defer co.mu.Unlock()
	if co.activeLocked(req.Tenant) >= co.cfg.TenantMaxActive {
		return CampaignStatus{}, errBusy{fmt.Errorf("tenant %q at active campaign cap (%d)", tenantLabel(req.Tenant), co.cfg.TenantMaxActive)}
	}
	co.nextID++
	id := fmt.Sprintf("f%04d", co.nextID)
	c := &campaign{
		id:     id,
		tenant: req.Tenant,
		bucket: r.Bucket,
		spec:   r.Spec,
		record: !req.NoTranscript,
		opts:   conformance.SummarizeOptions(r.Options.Normalized()),
		state:  stateQueued,
	}
	c.status = CampaignStatus{
		Status: service.Status{
			ID: id, Name: r.Name, Contract: r.Bucket,
			State: stateQueued, Iterations: r.Spec.Iterations,
		},
		Tenant: req.Tenant,
	}
	co.campaigns[id] = c
	co.order = append(co.order, id)
	if _, ok := co.tenants[req.Tenant]; !ok {
		co.tenants[req.Tenant] = &tenantState{}
	}
	return c.status, nil
}

// errBusy marks back-pressure refusals; the HTTP layer maps it to 429.
type errBusy struct{ error }

func tenantLabel(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// activeLocked counts a tenant's non-terminal campaigns.
func (co *Coordinator) activeLocked(tenant string) int {
	n := 0
	for _, c := range co.campaigns {
		if c.tenant == tenant && c.state != stateDone && c.state != stateFailed {
			n++
		}
	}
	return n
}

// expireLocked lapses overdue leases, returning their campaigns to the
// queue. Expiry is lazy — every scheduling entry point calls it — so a
// dead worker's slice is re-granted the next time any worker asks for
// work, with no background timer to race against.
func (co *Coordinator) expireLocked(now time.Time) {
	for id, l := range co.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(co.leases, id)
		if t := co.tenants[co.campaigns[l.campaignID].tenant]; t != nil && t.inFlight > 0 {
			t.inFlight--
		}
		c := co.campaigns[l.campaignID]
		if c.state == stateLeased {
			c.state = stateQueued
			c.status.State = stateQueued
			c.status.Worker = ""
		}
	}
}

// Acquire grants one lease to a worker, or returns nil when nothing is
// runnable (the worker should retry after retryAfterHint). Grants are
// fair-share: among tenants under their in-flight cap with queued
// campaigns, the least-recently-granted tenant wins; within a tenant,
// campaigns run in submission order.
func (co *Coordinator) Acquire(req LeaseRequest) (*Lease, error) {
	now := time.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	co.expireLocked(now)
	return co.acquireLocked(now, req), nil
}

// acquireLocked is the one grant rule, shared by Acquire and by commits
// that ask for their next lease. The caller has expired overdue leases.
func (co *Coordinator) acquireLocked(now time.Time, req LeaseRequest) *Lease {
	var best *campaign
	var bestTenant *tenantState
	for _, id := range co.order {
		c := co.campaigns[id]
		if c.state != stateQueued {
			continue
		}
		t := co.tenants[c.tenant]
		if t.inFlight >= tenantMaxInFlight {
			continue
		}
		if best == nil || t.lastGrant < bestTenant.lastGrant {
			best, bestTenant = c, t
		}
	}
	if best == nil {
		return nil
	}

	co.nextLease++
	co.grantSeq++
	l := &lease{
		id:         fmt.Sprintf("l%06d", co.nextLease),
		campaignID: best.id,
		worker:     req.Worker,
		expires:    now.Add(co.cfg.LeaseTTL),
	}
	co.leases[l.id] = l
	bestTenant.inFlight++
	bestTenant.lastGrant = co.grantSeq
	best.state = stateLeased
	best.status.State = stateLeased
	best.status.Worker = req.Worker

	out := &Lease{
		ID:         l.id,
		CampaignID: best.id,
		Seq:        best.seq,
		Spec:       best.spec,
		Snapshot:   best.snapshot,
		Rounds:     co.cfg.Rounds,
		TTLMillis:  co.cfg.LeaseTTL.Milliseconds(),
		Bucket:     best.bucket,
		Imports:    best.seeds.Offers(co.cfg.Store, best.bucket, importPerLease),
		Pollinate:  co.cfg.Store != nil,
		Record:     best.record,
	}
	// Snapshot elision: if the worker still holds exactly this (campaign,
	// seq) live from its own last commit, skip shipping the snapshot — the
	// commit chain is deterministic, so seq identity implies byte identity.
	if req.WarmCampaign == best.id && req.WarmSeq == best.seq && best.seq > 0 {
		out.Snapshot = nil
		out.SnapshotElided = true
	}
	return out
}

// Heartbeat extends a lease's TTL. Unknown leases (expired, committed, or
// never granted) report false: the worker must abandon the slice.
func (co *Coordinator) Heartbeat(leaseID string) (time.Duration, bool) {
	now := time.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	co.expireLocked(now)
	l, ok := co.leases[leaseID]
	if !ok {
		return 0, false
	}
	l.expires = now.Add(co.cfg.LeaseTTL)
	return co.cfg.LeaseTTL, true
}

// Complete commits one finished slice under a lease. Commits are
// idempotent (a retry of the last committed lease acknowledges without
// reapplying, and answers with the same next lease) and stale commits — an
// expired lease whose slice was re-granted — are refused with errStale so
// the worker discards its work. A commit whose Next is set also renews: the
// response carries the lease an Acquire with Next would get right after the
// commit, granted under the same lock. A refused commit grants nothing.
func (co *Coordinator) Complete(leaseID string, req CompleteRequest) (CompleteResponse, error) {
	now := time.Now()
	co.mu.Lock()
	resp, done, err := co.completeLocked(now, leaseID, req)
	co.mu.Unlock()
	if done != nil {
		co.seal(done)
	}
	return resp, err
}

// seal seals a finished campaign's transcript log. It runs after co.mu is
// released, so no other lease, heartbeat or commit waits for its fsync; the
// finishing commit's own response does, and so does Transcript. A log that
// cannot be sealed fails the campaign.
func (co *Coordinator) seal(c *campaign) {
	if co.cfg.Store != nil {
		// The finishing commit wrote c.log last, on this goroutine, and no
		// commit follows it.
		if err := co.cfg.Store.SealLog(store.KindTranscript, c.bucket, c.id, c.log); err != nil {
			co.mu.Lock()
			c.fail(err)
			co.mu.Unlock()
		}
	}
	close(c.sealed)
}

// fail ends a campaign failed because its transcript cannot be written: a
// campaign without its proof has not run as the fleet promises. The caller
// holds co.mu.
func (c *campaign) fail(err error) {
	c.state = stateFailed
	c.status.State = stateFailed
	c.status.Error = fmt.Sprintf("transcript: %v", err)
}

// completeLocked applies one commit under co.mu. It returns the campaign
// when this commit finished it and its transcript log awaits the seal.
func (co *Coordinator) completeLocked(now time.Time, leaseID string, req CompleteRequest) (CompleteResponse, *campaign, error) {
	co.expireLocked(now)

	l, ok := co.leases[leaseID]
	if !ok {
		// Idempotent retry of an already-committed lease?
		for _, c := range co.campaigns {
			if c.lastLeaseID == leaseID {
				resp := c.lastResp
				resp.Duplicate = true
				return resp, nil, nil
			}
		}
		return CompleteResponse{}, nil, errStale{fmt.Errorf("lease %s is not current (expired or never granted)", leaseID)}
	}
	c := co.campaigns[l.campaignID]

	// Validate the record chunk before touching any state. The shallow
	// scan checks grammar and extracts indexes without the full semantic
	// parse — the chunk bytes go to the transcript log verbatim, so
	// nothing downstream needs the parsed form.
	chunk, err := conformance.ScanRecordChunk(req.Records)
	if err != nil {
		return CompleteResponse{}, nil, fmt.Errorf("lease %s: bad record chunk: %w", leaseID, err)
	}
	if chunk.Count > 0 && chunk.First <= c.lastIndex {
		return CompleteResponse{}, nil, fmt.Errorf("lease %s: record chunk rewinds transcript (chunk starts at %d, committed through %d)", leaseID, chunk.First, c.lastIndex)
	}
	if !req.Done && len(req.Snapshot) == 0 {
		return CompleteResponse{}, nil, fmt.Errorf("lease %s: mid-campaign commit without snapshot", leaseID)
	}
	if req.Done && req.Final == nil {
		return CompleteResponse{}, nil, fmt.Errorf("lease %s: final commit without summary", leaseID)
	}
	// The transcript append comes before any state changes.
	logErr := co.appendTranscriptLocked(c, chunk.Count > 0, req)

	// Commit, unless the append failed: then nothing of the slice commits,
	// and the campaign ends failed.
	delete(co.leases, leaseID)
	if t := co.tenants[c.tenant]; t != nil && t.inFlight > 0 {
		t.inFlight--
	}
	st := &c.status
	st.Worker = ""
	var resp CompleteResponse
	var done *campaign
	if logErr != nil {
		c.fail(logErr)
		resp.CampaignDone = true
	} else {
		c.seq++
		c.snapshot = req.Snapshot
		if c.record && chunk.Count > 0 {
			c.lastIndex = chunk.Last
		}
		st.Slices++
		st.Progress = req.Progress
		st.SeedsImported += c.seeds.Absorb(req.Imported)
		st.SeedsExported += c.seeds.Share(co.cfg.Store, c.bucket, req.Exports)
		resp.Committed = true
		if req.Done {
			c.state = stateDone
			st.State = stateDone
			c.findings = req.Findings
			resp.CampaignDone = true
			if c.record {
				c.sealed = make(chan struct{})
				done = c
			}
		} else {
			c.state = stateQueued
			st.State = stateQueued
		}
	}
	if req.Next != nil {
		resp.Lease = co.acquireLocked(now, *req.Next)
	}
	c.lastLeaseID = leaseID
	c.lastResp = resp
	return resp, done, nil
}

// errStale marks commits under a lapsed lease; the HTTP layer maps it to
// 409 so the worker discards the slice instead of retrying.
type errStale struct{ error }

// errBadSeed marks a seed sync carrying a payload that does not decode; the
// HTTP layer maps it to 400.
type errBadSeed struct{ error }

// appendTranscriptLocked appends what a commit adds to its recorded
// campaign's transcript, in one append: the header if the log does not
// exist yet, the commit's record chunk if it carries records, and the
// final summary if it finishes the campaign. The header carries the options
// line resolved at submit, exactly as a single-node recording of the
// canonical spec derives it, so the transcript is the byte-identical
// migration proof. Without a store the same bytes go to the campaign's
// in-memory copy.
func (co *Coordinator) appendTranscriptLocked(c *campaign, records bool, req CompleteRequest) error {
	if !c.record || (!records && !req.Done) {
		return nil
	}
	parts := make([][]byte, 0, 3)
	if c.log == (store.LogEnd{}) && len(c.mem) == 0 {
		parts = append(parts, conformance.AppendHeader(nil, c.status.Name, c.opts))
	}
	if records {
		parts = append(parts, req.Records)
	}
	if req.Done {
		parts = append(parts, conformance.AppendFinal(nil, req.Final))
	}
	if co.cfg.Store == nil {
		for _, p := range parts {
			c.mem = append(c.mem, p...)
		}
		return nil
	}
	end, err := co.cfg.Store.AppendLog(store.KindTranscript, c.bucket, c.id, c.log, parts...)
	if err != nil {
		return err
	}
	c.log = end
	return nil
}

// SyncSeeds stores pushed seeds into a bucket — the idempotent cross-node
// pollination entry point. Every payload must decode as a sequence: one
// that does not fails the whole request with errBadSeed before anything is
// stored, since a stored seed is offered to every campaign on its bucket.
// Without a store it reports zero stored.
func (co *Coordinator) SyncSeeds(bucket string, seeds []service.SeedObject) (int, error) {
	for _, s := range seeds {
		if _, err := fuzz.DecodeSequence(s.Payload); err != nil {
			return 0, errBadSeed{fmt.Errorf("seed %s: %w", s.Fingerprint, err)}
		}
	}
	if co.cfg.Store == nil {
		return 0, nil
	}
	n := 0
	for _, s := range seeds {
		wrote, err := co.cfg.Store.PutSeed(bucket, s.Fingerprint, s.Payload)
		if err != nil {
			return n, err
		}
		if wrote {
			n++
		}
	}
	return n, nil
}

// Statuses lists campaigns in submission order.
func (co *Coordinator) Statuses() []CampaignStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.expireLocked(time.Now())
	out := make([]CampaignStatus, 0, len(co.order))
	for _, id := range co.order {
		out = append(out, co.campaigns[id].status)
	}
	return out
}

// Status returns one campaign's status.
func (co *Coordinator) Status(id string) (CampaignStatus, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.expireLocked(time.Now())
	c, ok := co.campaigns[id]
	if !ok {
		return CampaignStatus{}, false
	}
	return c.status, true
}

// Findings returns a finished campaign's findings.
func (co *Coordinator) Findings(id string) ([]service.Finding, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c, ok := co.campaigns[id]
	if !ok {
		return nil, fmt.Errorf("no campaign %s", id)
	}
	out := make([]service.Finding, len(c.findings))
	copy(out, c.findings)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].PC < out[j].PC
	})
	return out, nil
}

// Transcript returns a finished campaign's conformance transcript, read
// back from its log, or ok=false while the campaign is still running, when
// it records no transcript or failed, and when its log does not read back.
func (co *Coordinator) Transcript(id string) ([]byte, bool) {
	var buf bytes.Buffer
	if ok, err := co.copyTranscript(id, &buf); !ok || err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// copyTranscript writes a finished campaign's transcript to w once the
// finishing commit has sealed its log, so a done status never comes before
// a readable transcript. It reports false, having written nothing, when the
// campaign is unknown, records no transcript, has not finished, or failed.
// An error is the log's; w then holds at most the records before the bad
// one.
func (co *Coordinator) copyTranscript(id string, w io.Writer) (bool, error) {
	co.mu.Lock()
	c, ok := co.campaigns[id]
	var sealed chan struct{}
	if ok {
		sealed = c.sealed
	}
	co.mu.Unlock()
	if sealed == nil {
		return false, nil
	}
	<-sealed
	co.mu.Lock()
	failed, mem := c.state == stateFailed, c.mem
	co.mu.Unlock()
	if failed {
		return false, nil
	}
	if co.cfg.Store == nil {
		_, err := w.Write(mem)
		return true, err
	}
	return true, co.cfg.Store.ReadLog(store.KindTranscript, c.bucket, c.id, w)
}
