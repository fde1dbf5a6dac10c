package fleet

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"mufuzz/internal/conformance"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/service"
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
	// held is the lease the last commit renewed, which the next RunOne runs
	// without asking. A worker that stops holding one lets it lapse after
	// its TTL, as a killed worker does.
	held *Lease
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

// RunOne executes at most one lease: the one its last commit renewed, or
// else one it acquires. It reports whether a lease was executed. A nil
// error with ran=false means the coordinator had no work.
func (w *Worker) RunOne(ctx context.Context) (bool, error) {
	lease := w.held
	w.held = nil
	if lease == nil {
		req := LeaseRequest{Worker: w.name}
		if w.warm != nil {
			req.WarmCampaign = w.warm.campaignID
			req.WarmSeq = w.warm.seq
		}
		var err error
		if lease, err = w.client.Acquire(ctx, req); err != nil {
			return false, err
		}
		if lease == nil {
			return false, nil
		}
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
		// The lease's spec is canonical, so it needs no default budget.
		r, err := service.Resolve(lease.Spec, 0)
		if err == nil {
			c, err = r.Open(lease.Snapshot)
		}
		if err != nil {
			// An unresolvable lease (bad spec should have been caught at
			// submit) cannot be executed by anyone; let it lapse.
			return fmt.Errorf("worker %s: lease %s: %w", w.name, lease.ID, err)
		}
	}

	// The slice recorder, when asked for. The step installs it after the
	// pollination imports, so injected sequences (not part of the
	// campaign's own schedule) never enter the transcript chunk. The untyped
	// nil matters: a typed nil *Recorder would read as a non-nil observer
	// to the engine.
	var rec *conformance.Recorder
	var obs fuzz.ExecObserver
	if lease.Record {
		rec = &conformance.Recorder{}
		obs = rec
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
				// A stale lease, a cancelled slice, or a transient failure
				// that exhausted the client's retry budget: the lease is
				// lost (or as good as lost). Abandon.
				cancelSlice()
				return
			}
		}
	}()

	// Exports are fingerprinted only when the coordinator has somewhere to
	// keep them.
	step := service.Step(sliceCtx, c, lease.Rounds, lease.Imports, obs, lease.Pollinate)
	res, done := step.Result, step.Done
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
		Imported: step.Imported,
		Exports:  step.Exports,
		Progress: service.ProgressOf(res),
	}
	if rec != nil {
		req.Records = conformance.EncodeRecords(rec.Records())
	}
	if !done {
		req.Snapshot = c.Snapshot().EncodeBytes()
	} else {
		final := conformance.Summarize(c, res)
		req.Final = &final
		req.Findings = service.FindingsOf(res)
	}
	// Renew in the same round trip, advertising the state this commit
	// leaves warm, unless the worker is stopping.
	if ctx.Err() == nil {
		req.Next = &LeaseRequest{Worker: w.name}
		if !done {
			req.Next.WarmCampaign, req.Next.WarmSeq = lease.CampaignID, lease.Seq+1
		}
	}

	// Commit retries ride on the coordinator's idempotency; a stale
	// refusal means the lease lapsed first and the slice will be re-run.
	resp, err := w.client.Complete(ctx, lease.ID, req)
	if err != nil {
		return fmt.Errorf("worker %s: lease %s: commit: %w", w.name, lease.ID, err)
	}
	w.held = resp.Lease
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
