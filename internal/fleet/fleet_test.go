package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mufuzz/internal/conformance"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/service"
	"mufuzz/internal/store"
)

// buggySpec is the shared test campaign: the seeded-bug example, small
// budget, fixed seed — deterministic and fast, with real findings.
func buggySpec(iters int) service.CampaignSpec {
	return service.CampaignSpec{Example: "crowdsale-buggy", Seed: 7, Iterations: iters}
}

// referenceTranscript records the uninterrupted single-node run a fleet
// campaign must be byte-identical to.
func referenceTranscript(t *testing.T, spec service.CampaignSpec, defaultIters int) []byte {
	t.Helper()
	run, err := ReferenceTranscript(spec, defaultIters, 0)
	if err != nil {
		t.Fatal(err)
	}
	return run.Transcript.EncodeBytes()
}

// TestFleetMigrationEquivalence is the subsystem's cardinal property: a
// campaign executed as leased slices across two workers — including a
// lease held by a worker that dies before running it, which lapses —
// produces a conformance transcript byte-identical to an uninterrupted
// single-node run of the same spec.
func TestFleetMigrationEquivalence(t *testing.T) {
	// The live workers hold a TTL no slice outlasts, even race-instrumented
	// on a loaded host; only the doomed lease gets the short one.
	const liveTTL, doomedTTL = 30 * time.Second, 80 * time.Millisecond
	co := NewCoordinator(CoordinatorConfig{
		Rounds:            4,
		LeaseTTL:          liveTTL,
		DefaultIterations: 2000,
	})
	setTTL := func(d time.Duration) {
		co.mu.Lock()
		co.cfg.LeaseTTL = d
		co.mu.Unlock()
	}
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, 42)
	ctx := context.Background()

	spec := buggySpec(1200)
	st, err := client.Submit(ctx, SubmitRequest{Tenant: "acme", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}

	// Worker one executes the first two slices normally. Its first commit
	// renews the lease for the second slice; the second commit renews one
	// for the third under the short TTL, and worker one dies holding it:
	// the lease is never run, heartbeat or committed, so it lapses after
	// the TTL and the same slice is re-granted from the last committed
	// snapshot.
	w1 := NewWorker("w1", client)
	for i := 0; i < 2; i++ {
		if i == 1 {
			setTTL(doomedTTL)
		}
		ran, err := w1.RunOne(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatalf("slice %d: no lease granted", i)
		}
	}
	setTTL(liveTTL)
	mid, err := client.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.State == stateDone {
		t.Fatalf("campaign finished in 2 slices; budget too small to exercise migration")
	}
	dead := w1.held
	if dead == nil || dead.Seq != 2 || !dead.SnapshotElided {
		t.Fatalf("worker one holds %+v, want the renewed, snapshot-elided lease for slice 2", dead)
	}
	committed := w1.warm.snapshot
	time.Sleep(doomedTTL + 20*time.Millisecond)

	// Worker two drives the campaign to completion, starting with the
	// re-granted slice: the same slice number the dead worker held, with
	// the snapshot worker one last committed.
	w2 := NewWorker("w2", client)
	if regrant, err := client.Acquire(ctx, LeaseRequest{Worker: "w2"}); err != nil || regrant == nil {
		t.Fatalf("lapsed lease not re-granted: %v %v", regrant, err)
	} else if regrant.Seq != dead.Seq || regrant.SnapshotElided || !bytes.Equal(regrant.Snapshot, committed) {
		t.Fatalf("re-grant is slice %d, want the lapsed slice %d from the last committed snapshot", regrant.Seq, dead.Seq)
	} else if err := w2.runLease(ctx, regrant); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, err := client.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == stateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not finish; last status %+v", cur)
		}
		ran, err := w2.RunOne(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			time.Sleep(10 * time.Millisecond)
		}
	}

	got, err := client.Transcript(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceTranscript(t, spec, 2000)
	if !bytes.Equal(got, want) {
		t.Fatalf("migrated fleet transcript diverges from single-node reference (%d vs %d bytes)", len(got), len(want))
	}

	// The re-granted slice means more grants than commits: the doomed
	// lease's work was discarded, not merged.
	final, _ := client.Status(ctx, st.ID)
	if final.Findings == 0 {
		t.Fatal("buggy example produced no findings through the fleet")
	}
	findings, err := client.Findings(ctx, st.ID)
	if err != nil || len(findings) == 0 {
		t.Fatalf("findings endpoint: %v (%d findings)", err, len(findings))
	}
}

// TestFleetCompleteIdempotent exercises commit idempotency and staleness
// directly at the coordinator: a retried commit of the just-committed
// lease acknowledges as a duplicate without advancing the campaign, and a
// commit under a lapsed lease is refused stale.
func TestFleetCompleteIdempotent(t *testing.T) {
	co := NewCoordinator(CoordinatorConfig{LeaseTTL: 50 * time.Millisecond})
	if _, err := co.Submit(SubmitRequest{Spec: service.CampaignSpec{Example: "crowdsale", Seed: 3}}); err != nil {
		t.Fatal(err)
	}
	l, err := co.Acquire(LeaseRequest{Worker: "w"})
	if err != nil || l == nil {
		t.Fatalf("acquire: %v %v", l, err)
	}
	req := CompleteRequest{Worker: "w", Snapshot: []byte("opaque-snapshot")}
	r1, err := co.Complete(l.ID, req)
	if err != nil || !r1.Committed || r1.Duplicate {
		t.Fatalf("first commit: %+v %v", r1, err)
	}
	r2, err := co.Complete(l.ID, req)
	if err != nil || !r2.Committed || !r2.Duplicate {
		t.Fatalf("retried commit should acknowledge as duplicate: %+v %v", r2, err)
	}
	st, _ := co.Status("f0001")
	if st.Slices != 1 {
		t.Fatalf("duplicate commit advanced the campaign: %d slices", st.Slices)
	}

	// Next lease lapses before its commit: refused stale, slice re-granted
	// with the same sequence number.
	l2, err := co.Acquire(LeaseRequest{Worker: "w"})
	if err != nil || l2 == nil {
		t.Fatalf("acquire 2: %v %v", l2, err)
	}
	time.Sleep(70 * time.Millisecond)
	if _, err := co.Complete(l2.ID, req); err == nil {
		t.Fatal("commit under a lapsed lease must be refused")
	} else if _, ok := err.(errStale); !ok {
		t.Fatalf("want errStale, got %T %v", err, err)
	}
	l3, err := co.Acquire(LeaseRequest{Worker: "w2"})
	if err != nil || l3 == nil {
		t.Fatalf("re-grant after lapse: %v %v", l3, err)
	}
	if l3.Seq != l2.Seq {
		t.Fatalf("re-granted slice must resume the uncommitted sequence: got %d want %d", l3.Seq, l2.Seq)
	}
	if !bytes.Equal(l3.Snapshot, []byte("opaque-snapshot")) {
		t.Fatal("re-granted slice must carry the last committed snapshot")
	}
}

// TestFleetSeedSyncIdempotent pins pollination idempotency end to end:
// pushing the same fingerprinted seeds twice stores them once, and the
// store holds exactly the pushed objects.
func TestFleetSeedSyncIdempotent(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(CoordinatorConfig{Store: st})
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, 7)
	ctx := context.Background()

	seeds := []service.SeedObject{
		{Fingerprint: "aaaa", Payload: fuzz.EncodeSequence(fuzz.Sequence{{Func: "__ctor"}, {Func: "invest", Sender: 1}})},
		{Fingerprint: "bbbb", Payload: fuzz.EncodeSequence(fuzz.Sequence{{Func: "__ctor"}, {Func: "refund", Sender: 2}})},
	}
	n, err := client.SyncSeeds(ctx, "CrowdsaleBuggy", seeds)
	if err != nil || n != 2 {
		t.Fatalf("first sync: stored %d, %v", n, err)
	}
	n, err = client.SyncSeeds(ctx, "CrowdsaleBuggy", seeds)
	if err != nil || n != 0 {
		t.Fatalf("retried sync must store nothing: stored %d, %v", n, err)
	}
	entries, err := st.Seeds("CrowdsaleBuggy")
	if err != nil || len(entries) != 2 {
		t.Fatalf("store holds %d seeds, %v", len(entries), err)
	}
}

// TestFleetSeedSyncRefusesUndecodable pins that a sync carrying one payload
// that does not decode as a sequence is refused whole, with 400 naming its
// fingerprint, and stores nothing — not even its decodable companions.
func TestFleetSeedSyncRefusesUndecodable(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(CoordinatorConfig{Store: st})
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	body, _ := json.Marshal(SyncRequest{Seeds: []service.SeedObject{
		{Fingerprint: "good", Payload: fuzz.EncodeSequence(fuzz.Sequence{{Func: "__ctor"}})},
		{Fingerprint: "bad1", Payload: []byte("not a sequence")},
	}})
	resp, err := http.Post(srv.URL+"/v1/fleet/seeds/CrowdsaleBuggy/sync", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "bad1") {
		t.Fatalf("sync with an undecodable seed: %d %s, want 400 naming bad1", resp.StatusCode, msg)
	}
	if entries, err := st.Seeds("CrowdsaleBuggy"); err != nil || len(entries) != 0 {
		t.Fatalf("refused sync left %d seeds in the bucket, %v", len(entries), err)
	}
}

// TestFleetBackPressure pins tenant budgets: a tenant at its active cap is
// refused with 429 and a Retry-After hint, while other tenants proceed.
func TestFleetBackPressure(t *testing.T) {
	co := NewCoordinator(CoordinatorConfig{TenantMaxActive: 1})
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, 7)
	ctx := context.Background()

	if _, err := client.SubmitOnce(ctx, SubmitRequest{Tenant: "acme", Spec: buggySpec(500)}); err != nil {
		t.Fatal(err)
	}
	_, err := client.SubmitOnce(ctx, SubmitRequest{Tenant: "acme", Spec: buggySpec(500)})
	if !IsBusy(err) {
		t.Fatalf("over-budget submit should be refused busy, got %v", err)
	}
	if _, err := client.SubmitOnce(ctx, SubmitRequest{Tenant: "umbrella", Spec: buggySpec(500)}); err != nil {
		t.Fatalf("other tenant must not be throttled: %v", err)
	}

	// The raw response carries the Retry-After pacing hint.
	body, _ := json.Marshal(SubmitRequest{Tenant: "acme", Spec: buggySpec(500)})
	resp, err := http.Post(srv.URL+"/v1/fleet/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("want Retry-After: 1, got %q", ra)
	}
}

// TestFleetFairShare pins grant rotation: with per-tenant in-flight caps,
// grants alternate to the least-recently-served tenant instead of draining
// one tenant's queue first.
func TestFleetFairShare(t *testing.T) {
	co := NewCoordinator(CoordinatorConfig{})
	for _, tenant := range []string{"acme", "acme", "acme", "umbrella", "umbrella"} {
		if _, err := co.Submit(SubmitRequest{Tenant: tenant, Spec: service.CampaignSpec{Example: "crowdsale", Seed: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	// Submission order alone would grant acme's f0001..f0003 first;
	// fairness alternates the tenants until each holds its cap of 2.
	var grants []string
	for i := 0; i < tenantMaxInFlight*2; i++ {
		l, err := co.Acquire(LeaseRequest{Worker: "w"})
		if err != nil || l == nil {
			t.Fatalf("grant %d: %v %v", i+1, l, err)
		}
		grants = append(grants, l.CampaignID)
	}
	if want := []string{"f0001", "f0004", "f0002", "f0005"}; !reflect.DeepEqual(grants, want) {
		t.Fatalf("grants %v, want %v (tenant rotation)", grants, want)
	}
	// Both tenants at their in-flight cap: no further grant even though
	// acme has a queued campaign.
	l, err := co.Acquire(LeaseRequest{Worker: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if l != nil {
		t.Fatalf("grant %d should be refused (caps), got %s", tenantMaxInFlight*2+1, l.CampaignID)
	}
}

// TestFleetLeasePollEmpty pins the idle protocol: no campaigns means 204
// with a Retry-After hint, which the client surfaces as a nil lease.
func TestFleetLeasePollEmpty(t *testing.T) {
	co := NewCoordinator(CoordinatorConfig{})
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/fleet/leases", "application/json", strings.NewReader(`{"worker":"w"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("want 204, got %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("want Retry-After: 1, got %q", ra)
	}
	l, err := NewClient(srv.URL, 1).Acquire(context.Background(), LeaseRequest{Worker: "w"})
	if err != nil || l != nil {
		t.Fatalf("client should surface 204 as no work: %v %v", l, err)
	}
}

// TestFleetPollination runs two campaigns on the same contract bucket
// through one worker with a shared store and checks seeds cross over: the
// second campaign imports seeds the first exported.
func TestFleetPollination(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(CoordinatorConfig{Store: st, Rounds: 4, DefaultIterations: 600})
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, 9)
	ctx := context.Background()

	a, err := client.Submit(ctx, SubmitRequest{Tenant: "acme", Spec: buggySpec(600)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Submit(ctx, SubmitRequest{Tenant: "acme", Spec: service.CampaignSpec{Example: "crowdsale-buggy", Seed: 11, Iterations: 600}})
	if err != nil {
		t.Fatal(err)
	}

	w := NewWorker("w1", client)
	deadline := time.Now().Add(60 * time.Second)
	for {
		sa, _ := client.Status(ctx, a.ID)
		sb, _ := client.Status(ctx, b.ID)
		if sa.State == stateDone && sb.State == stateDone {
			if sa.SeedsExported+sb.SeedsExported == 0 {
				t.Fatal("no seeds exported by either campaign")
			}
			if sa.SeedsImported+sb.SeedsImported == 0 {
				t.Fatal("no cross-campaign seed imports despite a shared bucket")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaigns did not finish: %+v %+v", sa, sb)
		}
		if ran, err := w.RunOne(ctx); err != nil {
			t.Fatal(err)
		} else if !ran {
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestFleetCommitRenewsLease pins renewal on commit: the lease a commit's
// Next brings back equals the grant an Acquire with the same request gets
// right after the same commit. Two coordinators see the same calls, one
// renewing in the commit and one acquiring after it. That is the same
// campaign with its snapshot elided for a warm worker, the next campaign by
// fair share after a done commit, and none when idle. A duplicate commit
// answers with the same lease; a stale or malformed commit grants none and
// leaves the tenant's in-flight count as it was.
func TestFleetCommitRenewsLease(t *testing.T) {
	newCo := func() *Coordinator {
		co := NewCoordinator(CoordinatorConfig{})
		for _, tenant := range []string{"acme", "acme", "umbrella", "umbrella"} {
			spec := service.CampaignSpec{Example: "crowdsale", Seed: 3}
			if _, err := co.Submit(SubmitRequest{Tenant: tenant, Spec: spec, NoTranscript: true}); err != nil {
				t.Fatal(err)
			}
		}
		return co
	}
	renewing, acquiring := newCo(), newCo()
	acquire := func(worker string) *Lease {
		t.Helper()
		got, err := renewing.Acquire(LeaseRequest{Worker: worker})
		if err != nil {
			t.Fatal(err)
		}
		want, err := acquiring.Acquire(LeaseRequest{Worker: worker})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("the coordinators diverged: %+v, %+v %v", got, want, err)
		}
		return got
	}
	mid := CompleteRequest{Worker: "w", Snapshot: []byte("opaque-snapshot")}
	final := CompleteRequest{Worker: "w", Done: true, Final: &conformance.Summary{}}
	// commit commits lease on both coordinators and checks the renewal
	// against the Acquire.
	commit := func(l *Lease, req CompleteRequest, next LeaseRequest) *Lease {
		t.Helper()
		req.Next = &next
		got, err := renewing.Complete(l.ID, req)
		if err != nil || !got.Committed {
			t.Fatalf("commit %s: %+v %v", l.ID, got, err)
		}
		req.Next = nil
		if _, err := acquiring.Complete(l.ID, req); err != nil {
			t.Fatal(err)
		}
		want, err := acquiring.Acquire(next)
		if err != nil || !reflect.DeepEqual(got.Lease, want) {
			t.Fatalf("commit %s renewed %+v, Acquire right after it grants %+v %v", l.ID, got.Lease, want, err)
		}
		return got.Lease
	}
	inFlight := func() map[string]int {
		renewing.mu.Lock()
		defer renewing.mu.Unlock()
		return map[string]int{"acme": renewing.tenants["acme"].inFlight, "umbrella": renewing.tenants["umbrella"].inFlight}
	}

	a := acquire("w1") // f0001, acme
	u := acquire("w2") // f0003, umbrella
	if a.CampaignID != "f0001" || u.CampaignID != "f0003" {
		t.Fatalf("first grants %s and %s, want f0001 and f0003", a.CampaignID, u.CampaignID)
	}

	// A warm worker's mid-campaign commit renews its own campaign, acme
	// being the least recently served tenant, with the snapshot elided.
	a = commit(a, mid, LeaseRequest{Worker: "w1", WarmCampaign: "f0001", WarmSeq: 1})
	if a == nil || a.CampaignID != "f0001" || a.Seq != 1 || !a.SnapshotElided || a.Snapshot != nil {
		t.Fatalf("warm renewal %+v, want f0001 slice 1 with the snapshot elided", a)
	}

	// Finishing f0001 renews into umbrella's queued f0004, not acme's f0002,
	// which submission order alone would pick.
	done := a
	a = commit(a, final, LeaseRequest{Worker: "w1"})
	if a == nil || a.CampaignID != "f0004" || a.Seq != 0 {
		t.Fatalf("renewal after a done commit %+v, want f0004 by fair share", a)
	}

	// A duplicate commit answers with the same lease and grants no other.
	before := inFlight()
	dup, err := renewing.Complete(done.ID, final)
	if err != nil || !dup.Duplicate || !reflect.DeepEqual(dup.Lease, a) {
		t.Fatalf("duplicate commit: %+v %v, want the lease %+v", dup, err, a)
	}

	// A stale commit (409) and a malformed one (400) grant nothing.
	next := &LeaseRequest{Worker: "w2"}
	stale := mid
	stale.Next = next
	if resp, err := renewing.Complete("l999999", stale); !errors.As(err, new(errStale)) || resp.Lease != nil {
		t.Fatalf("stale commit: %+v %v, want errStale and no lease", resp, err)
	}
	bad := mid
	bad.Records, bad.Next = []byte("not a record chunk\n"), next
	if resp, err := renewing.Complete(u.ID, bad); err == nil || errors.As(err, new(errStale)) || resp.Lease != nil {
		t.Fatalf("malformed commit: %+v %v, want a refusal and no lease", resp, err)
	}
	if after := inFlight(); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused commits moved the in-flight counts from %v to %v", before, after)
	}

	// Finishing f0003 renews into acme's f0002; after that nothing is queued,
	// so the last two commits renew nothing.
	u = commit(u, final, LeaseRequest{Worker: "w2"})
	if u == nil || u.CampaignID != "f0002" {
		t.Fatalf("renewal after f0003 finished: %+v, want f0002", u)
	}
	if l := commit(a, final, LeaseRequest{Worker: "w1"}); l != nil {
		t.Fatalf("renewal with nothing queued: %+v", l)
	}
	if l := commit(u, final, LeaseRequest{Worker: "w2"}); l != nil {
		t.Fatalf("renewal on an idle fleet: %+v", l)
	}
}

// lastCommit wraps a coordinator's handler and keeps the path and body of
// the last commit, and nothing before it.
type lastCommit struct {
	next http.Handler

	mu   sync.Mutex
	path string
	body []byte
}

func (m *lastCommit) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/complete") {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		m.mu.Lock()
		m.path, m.body = r.URL.Path, body
		m.mu.Unlock()
	}
	m.next.ServeHTTP(w, r)
}

// heapGateBudget is what a store-backed coordinator may keep on its heap
// after one finished recorded campaign of heapGateExecs executions.
const (
	heapGateBudget = 2 << 20
	heapGateExecs  = 50000
)

// TestCoordinatorHeapGate is the coordinator's retained-heap gate. One
// recorded crowdsale-buggy campaign (seed 7, 50,000 executions, about
// 13 MB of transcript) drains through a store-backed coordinator over
// httptest and one worker. After a GC the heap may have grown by at most
// heapGateBudget: the record chunks went to the campaign's log as they
// committed, and the coordinator keeps neither them nor an assembled copy.
// The transcript endpoint, which reads the log back, then serves the
// single-node reference's bytes, and a duplicate of the finishing commit
// leaves the log's length as it was.
func TestCoordinatorHeapGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap accounting")
	}
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(CoordinatorConfig{Store: st})
	last := &lastCommit{next: co.Handler()}
	srv := httptest.NewServer(last)
	defer srv.Close()
	client := NewClient(srv.URL, 1)
	ctx := context.Background()
	spec := buggySpec(heapGateExecs)
	sub, err := client.Submit(ctx, SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker("w", client)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	drain(t, w)
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap %+.1f MiB after a %d-execution recorded campaign (budget %d MiB)",
		float64(growth)/(1<<20), heapGateExecs, heapGateBudget>>20)
	if growth > heapGateBudget {
		t.Errorf("the coordinator keeps %.1f MiB after the campaign, more than %d MiB", float64(growth)/(1<<20), heapGateBudget>>20)
	}
	if cur, _ := co.Status(sub.ID); cur.State != stateDone {
		t.Fatalf("campaign ended %s (%s)", cur.State, cur.Error)
	}

	got, err := client.Transcript(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceTranscript(t, spec, 0); !bytes.Equal(got, want) {
		t.Fatalf("transcript endpoint serves %d bytes that differ from the %d-byte reference", len(got), len(want))
	}

	logPath := filepath.Join(dir, string(store.KindTranscript), sub.Contract, sub.ID)
	size := func() int64 {
		t.Helper()
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	sealed := size()
	last.mu.Lock()
	path, body := last.path, last.body
	last.mu.Unlock()
	resp, err := http.Post(srv.URL+path, commitContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var dup CompleteResponse
	if err := json.NewDecoder(resp.Body).Decode(&dup); err != nil || !dup.Duplicate {
		t.Fatalf("resent finishing commit: %d %+v %v, want a duplicate", resp.StatusCode, dup, err)
	}
	resp.Body.Close()
	if now := size(); now != sealed {
		t.Fatalf("a duplicate commit moved the log from %d to %d bytes", sealed, now)
	}
}

// holdFinal wraps a coordinator's handler and keeps a campaign's finishing
// commit from it: the commit is decoded and kept, and the worker is told
// its lease is stale, so the test can apply the commit itself.
type holdFinal struct {
	next http.Handler

	mu    sync.Mutex
	lease string
	req   *CompleteRequest
}

func (h *holdFinal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if id, ok := strings.CutSuffix(strings.TrimPrefix(r.URL.Path, "/v1/fleet/leases/"), "/complete"); ok {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req, err := decodeCommit(bytes.NewReader(body), int64(len(body))); err == nil && req.Done {
			h.mu.Lock()
			h.lease, h.req = id, &req
			h.mu.Unlock()
			http.Error(w, "held", http.StatusConflict)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	h.next.ServeHTTP(w, r)
}

// finishUnsealed drains a recorded campaign of spec through a store-backed
// coordinator and applies its finishing commit under co.mu, as Complete
// does, but does not seal the log. It returns the coordinator, the store's
// directory, the campaign's status, and the campaign awaiting its seal.
func finishUnsealed(t *testing.T, spec service.CampaignSpec) (*Coordinator, string, CampaignStatus, *campaign) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(CoordinatorConfig{Store: st})
	hold := &holdFinal{next: co.Handler()}
	srv := httptest.NewServer(hold)
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, 1)
	ctx := context.Background()
	sub, err := client.Submit(ctx, SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker("w", client)
	for {
		_, err := w.RunOne(ctx)
		hold.mu.Lock()
		lease, req := hold.lease, hold.req
		hold.mu.Unlock()
		if req == nil {
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		co.mu.Lock()
		_, done, err := co.completeLocked(time.Now(), lease, *req)
		co.mu.Unlock()
		if err != nil || done == nil {
			t.Fatalf("finishing commit: %v, campaign %v", err, done)
		}
		if cur, _ := co.Status(sub.ID); cur.State != stateDone {
			t.Fatalf("campaign is %s after its finishing commit", cur.State)
		}
		return co, dir, sub, done
	}
}

// TestTranscriptWaitsForSeal pins that a done status never comes before a
// readable transcript. Readers ask for the transcript of a campaign whose
// finishing commit is applied but whose log is not yet sealed: each must
// wait for the seal and then read the single-node reference's bytes.
func TestTranscriptWaitsForSeal(t *testing.T) {
	spec := buggySpec(600)
	co, _, sub, done := finishUnsealed(t, spec)
	const readers = 4
	got := make(chan []byte, readers) // one send per reader
	for range readers {
		go func() {
			data, _ := co.Transcript(sub.ID)
			got <- data
		}()
	}
	select {
	case data := <-got:
		t.Fatalf("a transcript read returned %d bytes before the seal", len(data))
	case <-time.After(20 * time.Millisecond):
	}
	co.seal(done)
	want := referenceTranscript(t, spec, 0)
	for range readers {
		if data := <-got; !bytes.Equal(data, want) {
			t.Errorf("a reader waiting for the seal read %d bytes that differ from the %d-byte reference", len(data), len(want))
		}
	}
}

// TestUnsealableTranscriptFailsCampaign pins that a log the finishing
// commit cannot seal fails its campaign: a directory stands where the log
// was, so the seal cannot open it.
func TestUnsealableTranscriptFailsCampaign(t *testing.T) {
	co, dir, sub, done := finishUnsealed(t, buggySpec(600))
	logPath := filepath.Join(dir, string(store.KindTranscript), sub.Contract, sub.ID)
	if err := os.Remove(logPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(logPath, 0o755); err != nil {
		t.Fatal(err)
	}
	co.seal(done)
	if cur, _ := co.Status(sub.ID); cur.State != stateFailed || !strings.Contains(cur.Error, "transcript") {
		t.Fatalf("campaign whose log cannot be sealed ended %s (%q), want failed naming the transcript", cur.State, cur.Error)
	}
	if data, ok := co.Transcript(sub.ID); ok {
		t.Fatalf("a failed campaign serves %d transcript bytes", len(data))
	}
}

// TestUnwritableTranscriptFailsCampaign pins that a campaign whose
// transcript cannot be written ends failed, with the cause in its status,
// instead of reporting done. A regular file stands where the first
// campaign's transcripts bucket directory goes, which stops its log from
// being created even for root, so its first commit fails and commits
// nothing; the second campaign, on another bucket, still finishes with its
// reference transcript.
func TestUnwritableTranscriptFailsCampaign(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(CoordinatorConfig{Store: st})
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, 1)
	ctx := context.Background()
	specA := buggySpec(600)
	specB := service.CampaignSpec{Example: "game", Seed: 11, Iterations: 600}
	a, err := client.Submit(ctx, SubmitRequest{Spec: specA})
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Submit(ctx, SubmitRequest{Spec: specB})
	if err != nil {
		t.Fatal(err)
	}
	if a.Contract == b.Contract {
		t.Fatalf("both campaigns share bucket %s", a.Contract)
	}
	if err := os.WriteFile(filepath.Join(dir, string(store.KindTranscript), a.Contract), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	drain(t, NewWorker("w", client))

	sa, _ := client.Status(ctx, a.ID)
	if sa.State != stateFailed || !strings.Contains(sa.Error, "transcript") {
		t.Fatalf("campaign with an unwritable transcript ended %s (%q), want failed naming the transcript", sa.State, sa.Error)
	}
	if sa.Slices != 0 {
		t.Fatalf("the commit whose transcript append failed committed: %d slices", sa.Slices)
	}
	if _, err := client.Transcript(ctx, a.ID); err == nil {
		t.Fatal("a failed campaign serves a transcript")
	}
	sb, _ := client.Status(ctx, b.ID)
	if sb.State != stateDone {
		t.Fatalf("campaign on another bucket ended %s (%q)", sb.State, sb.Error)
	}
	got, err := client.Transcript(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceTranscript(t, specB, 0); !bytes.Equal(got, want) {
		t.Fatalf("transcript of the campaign on another bucket differs from its reference")
	}
}

// TestTranscriptEndpointRefusesBadLog pins that the transcript endpoint
// serves only a log that reads back whole. A log whose trailer is gone is
// answered 500 before any byte, and a log with a corrupt record is aborted
// mid-stream; the client reports both as errors, and Transcript as absent.
func TestTranscriptEndpointRefusesBadLog(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(CoordinatorConfig{Store: st})
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, 1)
	ctx := context.Background()
	sub, err := client.Submit(ctx, SubmitRequest{Spec: buggySpec(600)})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, NewWorker("w", client))
	good, err := client.Transcript(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, string(store.KindTranscript), sub.Contract, sub.ID)
	sealed, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), sealed...)
	corrupt[len(corrupt)-100] ^= 1 // in the final summary's record
	for _, tc := range []struct {
		name string
		log  []byte
		code int // the status, when the endpoint answers before streaming
	}{
		{"unsealed", sealed[:len(sealed)-16], http.StatusInternalServerError},
		{"corrupt record", corrupt, 0},
	} {
		if err := os.WriteFile(logPath, tc.log, 0o644); err != nil {
			t.Fatal(err)
		}
		if data, ok := co.Transcript(sub.ID); ok {
			t.Errorf("%s: Transcript returns %d bytes", tc.name, len(data))
		}
		got, err := client.Transcript(ctx, sub.ID)
		if err == nil {
			t.Errorf("%s: the endpoint served %d of the transcript's %d bytes without an error", tc.name, len(got), len(good))
		}
		var ae *apiError
		if tc.code != 0 && (!errors.As(err, &ae) || ae.Status != tc.code) {
			t.Errorf("%s: %v, want status %d", tc.name, err, tc.code)
		}
	}
}

// TestClientTranscriptReadsWholeBody pins that Client.Transcript returns a
// transcript longer than the commit body cap whole, and that a response
// the coordinator aborts part way is an error, not a short transcript.
func TestClientTranscriptReadsWholeBody(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector shadows a 64 MiB body many times over")
	}
	const size = maxCompleteBody + 1
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		block := bytes.Repeat([]byte("rec 1\n"), 1<<13)
		for n := 0; n < size; {
			m := min(len(block), size-n)
			if r.URL.Path == "/v1/fleet/campaigns/aborted/transcript" && n > 0 {
				panic(http.ErrAbortHandler)
			}
			if _, err := w.Write(block[:m]); err != nil {
				return
			}
			n += m
		}
	}))
	defer srv.Close()
	client := NewClient(srv.URL, 1)
	got, err := client.Transcript(context.Background(), "whole")
	if err != nil || len(got) != size {
		t.Fatalf("Client.Transcript read %d of %d bytes, %v", len(got), size, err)
	}
	if got, err := client.Transcript(context.Background(), "aborted"); err == nil {
		t.Fatalf("an aborted response read as a %d-byte transcript", len(got))
	}
}
