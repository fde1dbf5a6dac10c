// Package fleet is the distributed fuzzing subsystem: a coordinator that
// owns campaign lifecycles and leases bounded slices of work to worker
// nodes over HTTP, and the worker agent that executes leased slices with
// the ordinary single-node engine.
//
// The unit of distribution is the engine's own scheduling slice
// (Campaign.RunSlice): a lease carries the campaign spec, the last
// committed snapshot, and a round budget; the worker resumes the campaign,
// runs exactly that slice, and commits the successor snapshot plus the
// slice's conformance record chunk, coverage-fingerprinted seeds, and
// findings; the commit's response carries the worker's next lease, so a
// slice costs one round trip. Because slice boundaries are deterministic
// schedule points and snapshots resume byte-identically, a campaign that
// migrates between workers — including through a worker killed mid-slice,
// whose lease expires and is re-granted from the last committed snapshot —
// produces a conformance transcript byte-identical to an uninterrupted
// single-node run. The coordinator appends each commit's record chunk to the
// campaign's transcript log in the store as it commits, seals the log with
// the finishing commit, and serves it as the campaign's proof of
// equivalence.
//
// Fault tolerance is lease-based: every grant carries a TTL, workers
// heartbeat to keep it alive, and a silent worker's lease lapses back into
// the queue. Workers never commit a slice the engine did not finish at a
// natural boundary (a cancelled slice is abandoned, not committed), so the
// committed snapshot chain only ever contains deterministic states.
// Commits are idempotent — a retried commit of the already-committed lease
// acknowledges without reapplying — and cross-node seed pollination rides
// the content-addressed store, keyed by coverage fingerprint, so retries
// and duplicate syncs are free.
//
// Multi-tenancy is fair-share: campaigns belong to tenants, each tenant
// has an in-flight lease cap, grants rotate to the least-recently-served
// tenant, and a tenant over its queued-campaign budget is refused with
// 429 and a Retry-After hint.
package fleet

import (
	"mufuzz/internal/conformance"
	"mufuzz/internal/service"
)

// SubmitRequest submits one campaign on behalf of a tenant.
type SubmitRequest struct {
	// Tenant is the fair-share scheduling identity; empty means the
	// anonymous default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Spec is the campaign specification, exactly as the single-node
	// service accepts it.
	Spec service.CampaignSpec `json:"spec"`
	// NoTranscript disables conformance recording for this campaign:
	// workers skip the per-execution recorder and the coordinator writes
	// no transcript. Default off — the byte-identical migration proof is
	// the fleet's core guarantee — but campaigns that don't need the proof
	// (e.g. throughput benchmarks) can shed the recording cost.
	NoTranscript bool `json:"no_transcript,omitempty"`
}

// CampaignStatus is the coordinator's view of one campaign: the service's
// status, whose State is one of queued, leased, done, failed here, plus the
// campaign's tenant and the node holding its current lease, if any.
type CampaignStatus struct {
	service.Status
	Tenant string `json:"tenant,omitempty"`
	Worker string `json:"worker,omitempty"`
}

// LeaseRequest asks the coordinator for one slice of work.
type LeaseRequest struct {
	// Worker names the requesting node (heartbeats and commits echo the
	// lease ID, so the name is informational: status display and logs).
	Worker string `json:"worker"`
	// WarmCampaign/WarmSeq advertise the campaign state the worker still
	// holds live from its last commit. If the coordinator grants exactly
	// that (campaign, seq), it elides the snapshot from the lease: the
	// snapshot chain is deterministic, so seq identity implies byte
	// identity, and the worker resumes in memory.
	WarmCampaign string `json:"warm_campaign,omitempty"`
	WarmSeq      int    `json:"warm_seq,omitempty"`
}

// Lease is one granted slice of one campaign. The worker must finish the
// slice and commit before the TTL lapses (extending it via heartbeats), or
// the coordinator re-grants the same slice — same snapshot, same budget —
// to the next worker.
type Lease struct {
	ID         string `json:"id"`
	CampaignID string `json:"campaign_id"`
	// Seq is the slice number (0-based); slice 0 starts from a fresh
	// campaign, later slices resume Snapshot.
	Seq int `json:"seq"`
	// Spec is the canonicalized campaign spec: strategy, seed, and
	// iterations are all filled in, so the worker derives engine options
	// without sharing configuration with the coordinator.
	Spec service.CampaignSpec `json:"spec"`
	// Snapshot is the last committed campaign snapshot (encoded), empty
	// for slice 0 and when elided (SnapshotElided).
	Snapshot []byte `json:"snapshot,omitempty"`
	// SnapshotElided marks a lease granted against the worker's advertised
	// warm state: the snapshot bytes are omitted because the worker already
	// holds the identical campaign state in memory.
	SnapshotElided bool `json:"snapshot_elided,omitempty"`
	// Rounds is the energy-round budget of this slice.
	Rounds int `json:"rounds"`
	// TTLMillis is the lease lifetime; heartbeats reset it.
	TTLMillis int64 `json:"ttl_millis"`
	// Bucket is the campaign's seed-sharing bucket.
	Bucket string `json:"bucket"`
	// Imports are pollination seeds from sibling campaigns of the same
	// bucket that this campaign has not seen. The worker injects them
	// before recording begins and echoes the injected fingerprints in its
	// commit.
	Imports []service.SeedObject `json:"imports,omitempty"`
	// Pollinate asks the worker to fingerprint and export the slice's new
	// queue sequences. False when the coordinator has no store — the
	// exports would be dropped, so the worker skips the detached
	// fingerprinting replays entirely.
	Pollinate bool `json:"pollinate,omitempty"`
	// Record asks the worker to record the slice's conformance chunk.
	// False for campaigns submitted with NoTranscript.
	Record bool `json:"record,omitempty"`
}

// CompleteRequest commits one finished slice. The worker only sends it for
// slices the engine finished at its natural boundary; a slice interrupted
// by shutdown or a lost lease is abandoned instead (the coordinator
// re-grants from the last committed snapshot, preserving determinism).
//
// On the wire a commit is one commitContentType body: the request as one
// JSON line, then its snapshot and record chunk as raw bytes (encodeCommit,
// decodeCommit). The two payloads never travel inside the JSON.
type CompleteRequest struct {
	Worker string `json:"worker"`
	// Snapshot is the successor snapshot (encoded); required unless Done.
	Snapshot []byte `json:"-"`
	// SnapshotLen and RecordsLen are the lengths of the raw Snapshot and
	// Records bytes that follow the JSON line. encodeCommit sets them, and
	// decodeCommit checks them against the body.
	SnapshotLen int `json:"snapshot_len"`
	RecordsLen  int `json:"records_len"`
	// Done reports the campaign finished during this slice.
	Done bool `json:"done"`
	// Records is the slice's conformance record chunk
	// (conformance.EncodeRecords), appended to the campaign transcript.
	Records []byte `json:"-"`
	// Imported echoes the fingerprints of lease imports actually injected,
	// so the coordinator stops re-offering them.
	Imported []string `json:"imported,omitempty"`
	// Exports are novel seeds the slice discovered, fingerprinted by a
	// detached coverage replay.
	Exports []service.SeedObject `json:"exports,omitempty"`
	// Progress updates the campaign status.
	Progress service.Progress `json:"progress"`
	// Findings carries the full findings with PoC call orders once Done.
	Findings []service.Finding `json:"findings,omitempty"`
	// Final is the transcript's final summary, required when Done.
	Final *conformance.Summary `json:"final,omitempty"`
	// Next asks for the worker's next lease in the same round trip: once
	// the commit is applied, the coordinator grants exactly what an
	// Acquire with this request would get right after it.
	Next *LeaseRequest `json:"next,omitempty"`
}

// CompleteResponse acknowledges a commit.
type CompleteResponse struct {
	// Committed reports the slice was applied. It is false, with
	// CampaignDone set, when the coordinator could not append the slice's
	// records to the campaign's transcript and ended the campaign failed.
	Committed bool `json:"committed"`
	// Duplicate reports the lease was already committed (idempotent
	// retry); the commit was acknowledged without reapplying.
	Duplicate bool `json:"duplicate,omitempty"`
	// CampaignDone reports the campaign reached a terminal state.
	CampaignDone bool `json:"campaign_done,omitempty"`
	// Lease is the grant the commit's Next asked for, nil when nothing is
	// runnable. A duplicate commit answers with the same lease.
	Lease *Lease `json:"lease,omitempty"`
}

// SyncRequest pushes seeds into a bucket of the coordinator's store —
// cross-fleet pollination. Idempotent: seeds are content-addressed.
type SyncRequest struct {
	Seeds []service.SeedObject `json:"seeds"`
}

// SyncResponse reports how many pushed seeds were new.
type SyncResponse struct {
	Stored int `json:"stored"`
}
