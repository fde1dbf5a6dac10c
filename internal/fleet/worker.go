package fleet

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"mufuzz/internal/conformance"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/service"
	"mufuzz/internal/store"
)

// Worker executes leased campaign slices with the ordinary single-node
// engine. A worker holds no durable state: everything it needs arrives in
// the lease (canonical spec, snapshot, round budget, pollination imports)
// and everything it produces leaves in the commit. Killing a worker at any
// point therefore loses at most one slice of work, never correctness —
// the coordinator re-grants the slice from the last committed snapshot.
type Worker struct {
	name   string
	client *Client
	// warm is the campaign of the last committed (not-done) slice, kept
	// live so a follow-on lease for the same campaign resumes in memory
	// instead of recompiling the target and decoding the snapshot. Safe
	// because the in-memory state at a natural slice boundary is exactly
	// what the committed snapshot encodes — the lease's snapshot bytes are
	// compared against the committed bytes before reuse, and any mismatch
	// (re-granted elsewhere, lost commit) falls back to a cold resume.
	warm *warmCampaign
}

// warmCampaign pairs a live campaign with the identity of the slice it is
// positioned to run next.
type warmCampaign struct {
	campaignID string
	seq        int
	snapshot   []byte
	c          *fuzz.Campaign
}

// workerPoll is the idle wait between lease polls when the coordinator has
// no work (jittered by up to half again).
const workerPoll = 500 * time.Millisecond

// NewWorker creates a worker that pulls slices from the client's
// coordinator under the given node name.
func NewWorker(name string, client *Client) *Worker {
	return &Worker{name: name, client: client}
}

// Run pulls and executes leases until ctx is cancelled. Errors on
// individual leases are absorbed (the lease lapses and is re-granted);
// only ctx cancellation ends the loop.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ran, err := w.RunOne(ctx)
		if err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		if !ran {
			if err := sleep(ctx, workerPoll+w.client.jitter(workerPoll/2)); err != nil {
				return err
			}
		}
	}
}

// RunOne acquires and executes at most one lease; it reports whether a
// lease was executed. A nil error with ran=false means the coordinator
// had no work.
func (w *Worker) RunOne(ctx context.Context) (bool, error) {
	req := LeaseRequest{Worker: w.name}
	if w.warm != nil {
		req.WarmCampaign = w.warm.campaignID
		req.WarmSeq = w.warm.seq
	}
	lease, err := w.client.Acquire(ctx, req)
	if err != nil {
		return false, err
	}
	if lease == nil {
		return false, nil
	}
	return true, w.runLease(ctx, lease)
}

// runLease executes one leased slice end to end. The cardinal rule: a
// commit happens only when the engine finished the slice at its natural
// schedule boundary. A slice cut short — shutdown, lost lease — is
// abandoned without a commit, because a snapshot taken mid-slice is not a
// deterministic resume point and would break the migrated campaign's
// byte-identity with a single-node run.
func (w *Worker) runLease(ctx context.Context, lease *Lease) error {
	c := w.takeWarm(lease)
	if c == nil {
		if lease.SnapshotElided {
			// The coordinator elided the snapshot against our advertised
			// warm state, but we no longer hold it — never start fresh at
			// seq > 0; let the lease lapse and be re-granted with bytes.
			return fmt.Errorf("worker %s: lease %s: elided snapshot without warm campaign", w.name, lease.ID)
		}
		var err error
		c, err = w.buildCampaign(lease)
		if err != nil {
			// An unresolvable lease (bad spec should have been caught at
			// submit) cannot be executed by anyone; let it lapse.
			return fmt.Errorf("worker %s: lease %s: %w", w.name, lease.ID, err)
		}
	}

	// Pollination imports run before the recorder is installed: injected
	// sequences execute through the engine (their discoveries count), but
	// they are not part of the campaign's own schedule, so they must not
	// enter the transcript chunk.
	var imported []string
	if len(lease.Imports) > 0 {
		var batch []fuzz.Sequence
		for _, obj := range lease.Imports {
			seq, err := fuzz.DecodeSequence(obj.Payload)
			if err != nil {
				continue
			}
			batch = append(batch, seq)
			imported = append(imported, obj.Fingerprint)
		}
		c.InjectSequences(batch)
	}

	// Snapshot the pre-slice queue for the export diff (skipped when the
	// coordinator has nowhere to keep exports).
	var preQueue map[string]bool
	if lease.Pollinate {
		preQueue = make(map[string]bool)
		for _, seq := range c.QueueSequences() {
			preQueue[string(fuzz.EncodeSequence(seq))] = true
		}
	}

	// Install the slice recorder, or explicitly clear any observer a warm
	// campaign kept from its previous slice. The untyped nil matters: a
	// typed nil *Recorder would read as a non-nil observer to the engine.
	var rec *conformance.Recorder
	if lease.Record {
		rec = &conformance.Recorder{}
		c.SetObserver(rec)
	} else {
		c.SetObserver(nil)
	}

	// Heartbeat for the duration of the slice. Losing the lease cancels
	// the slice context, which makes RunSlice return early — detected
	// below as a non-natural boundary and abandoned.
	sliceCtx, cancelSlice := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		ttl := time.Duration(lease.TTLMillis) * time.Millisecond
		interval := ttl / 3
		if interval <= 0 {
			interval = time.Second
		}
		for {
			if err := sleep(sliceCtx, interval); err != nil {
				return
			}
			if err := w.client.Heartbeat(sliceCtx, lease.ID); err != nil {
				if IsStale(err) || sliceCtx.Err() != nil {
					cancelSlice()
					return
				}
				// Transient failure already exhausted the client's retry
				// budget; the lease is almost certainly lost. Abandon.
				cancelSlice()
				return
			}
		}
	}()

	res, done := c.RunSlice(sliceCtx, lease.Rounds)
	interrupted := sliceCtx.Err() != nil // read before our own cancel below
	cancelSlice()
	<-hbDone

	// Interrupted mid-slice (shutdown or lost lease): abandon without a
	// commit. The one exception is a slice that finished the campaign —
	// RunSlice reports done only from a natural boundary, so committing
	// it is safe even if cancellation arrived just after.
	if !done && interrupted {
		return fmt.Errorf("worker %s: lease %s abandoned (slice interrupted)", w.name, lease.ID)
	}

	req := CompleteRequest{
		Worker:   w.name,
		Done:     done,
		Imported: imported,
		Progress: progress(res),
	}
	if rec != nil {
		req.Records = conformance.EncodeRecords(rec.Records())
	}
	if lease.Pollinate {
		req.Exports = exportSeeds(c, preQueue)
	}
	if !done {
		req.Snapshot = c.Snapshot().EncodeBytes()
	} else {
		final := conformance.Summarize(c, res)
		req.Final = &final
		req.Findings = findings(res)
	}

	// Commit retries ride on the coordinator's idempotency; a stale
	// refusal means the lease lapsed first and the slice will be re-run.
	if _, err := w.client.Complete(ctx, lease.ID, req); err != nil {
		return fmt.Errorf("worker %s: lease %s: commit: %w", w.name, lease.ID, err)
	}
	if !done {
		// The campaign is parked at the exact boundary the committed
		// snapshot encodes; keep it live for the likely follow-on lease.
		w.warm = &warmCampaign{
			campaignID: lease.CampaignID,
			seq:        lease.Seq + 1,
			snapshot:   req.Snapshot,
			c:          c,
		}
	}
	return nil
}

// takeWarm consumes the warm campaign if it matches the lease: same
// campaign, the immediately following slice, and a lease snapshot
// byte-identical to the one this worker committed (or elided by the
// coordinator against this worker's advertisement, which asserts the same
// identity). Any mismatch discards the cache and forces a cold resume from
// the lease's own snapshot.
func (w *Worker) takeWarm(lease *Lease) *fuzz.Campaign {
	warm := w.warm
	w.warm = nil
	if warm == nil ||
		warm.campaignID != lease.CampaignID ||
		warm.seq != lease.Seq {
		return nil
	}
	if !lease.SnapshotElided && !bytes.Equal(warm.snapshot, lease.Snapshot) {
		return nil
	}
	return warm.c
}

// buildCampaign resolves the lease's canonical spec and either starts a
// fresh campaign (slice 0) or resumes the committed snapshot.
func (w *Worker) buildCampaign(lease *Lease) (*fuzz.Campaign, error) {
	target, err := service.ResolveTarget(lease.Spec)
	if err != nil {
		return nil, err
	}
	worldOpts, _, err := service.ResolveWorld(lease.Spec, target)
	if err != nil {
		return nil, err
	}
	if len(lease.Snapshot) == 0 {
		opts, err := service.SpecOptions(lease.Spec, 0, 0)
		if err != nil {
			return nil, err
		}
		opts.World = worldOpts
		return fuzz.NewTargetCampaign(target, opts), nil
	}
	snap, err := fuzz.DecodeSnapshot(bytes.NewReader(lease.Snapshot))
	if err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	if worldOpts != nil {
		return fuzz.ResumeWorldCampaign(target, worldOpts, snap)
	}
	return fuzz.ResumeTargetCampaign(target, snap)
}

// exportSeeds diffs the post-slice queue against the pre-slice queue and
// fingerprints each new sequence by the coverage a detached replay
// observes — the same content addressing the single-node service uses, so
// fleet seeds and service seeds share one namespace.
func exportSeeds(c *fuzz.Campaign, preQueue map[string]bool) []SeedObject {
	var out []SeedObject
	seen := make(map[string]bool)
	for _, seq := range c.QueueSequences() {
		enc := fuzz.EncodeSequence(seq)
		key := string(enc)
		if preQueue[key] || seen[key] {
			continue
		}
		seen[key] = true
		fp := store.Fingerprint(c.ReplayCoverageEdges(seq))
		out = append(out, SeedObject{Fingerprint: fp, Payload: enc})
	}
	return out
}

// progress projects a slice result into the commit's status update.
func progress(res *fuzz.Result) SliceProgress {
	classes := make([]string, 0, len(res.BugClasses))
	for cl := range res.BugClasses {
		classes = append(classes, string(cl))
	}
	sort.Strings(classes)
	return SliceProgress{
		Executions:   res.Executions,
		Coverage:     res.Coverage,
		CoveredEdges: res.CoveredEdges,
		TotalEdges:   res.TotalEdges,
		SeedQueueLen: res.SeedQueueLen,
		Findings:     len(res.Findings),
		Classes:      classes,
	}
}

// findings projects final results into the service's findings shape, with
// PoC call orders from the repro map.
func findings(res *fuzz.Result) []service.Finding {
	poc := make(map[string][]string)
	for class, seq := range res.Repro {
		calls := make([]string, len(seq))
		for i, tx := range seq {
			calls[i] = tx.Func
		}
		poc[string(class)] = calls
	}
	out := make([]service.Finding, 0, len(res.Findings))
	for _, f := range res.Findings {
		out = append(out, service.Finding{
			Class:       string(f.Class),
			PC:          f.PC,
			Description: f.Description,
			PoC:         poc[string(f.Class)],
		})
	}
	return out
}
