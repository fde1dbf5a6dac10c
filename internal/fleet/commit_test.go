package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mufuzz/internal/service"
)

// wireCounter wraps a coordinator's handler and keeps what crosses the
// wire: the number of Acquire calls, and every commit body.
type wireCounter struct {
	next http.Handler

	mu       sync.Mutex
	acquires int
	bodies   [][]byte
}

func (m *wireCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		switch {
		case r.URL.Path == "/v1/fleet/leases":
			m.mu.Lock()
			m.acquires++
			m.mu.Unlock()
		case strings.HasSuffix(r.URL.Path, "/complete"):
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			m.mu.Lock()
			m.bodies = append(m.bodies, body)
			m.mu.Unlock()
		}
	}
	m.next.ServeHTTP(w, r)
}

// drainRecorded runs one recorded campaign to completion through an
// in-process coordinator (no store) and a single worker, and returns the
// coordinator, the campaign's ID and what crossed the wire.
func drainRecorded(t testing.TB, spec service.CampaignSpec) (*Coordinator, string, *wireCounter) {
	t.Helper()
	co := NewCoordinator(CoordinatorConfig{})
	wc := &wireCounter{next: co.Handler()}
	srv := httptest.NewServer(wc)
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, 1)
	ctx := context.Background()
	st, err := client.Submit(ctx, SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, NewWorker("w", client))
	if cur, _ := co.Status(st.ID); cur.State != stateDone {
		t.Fatalf("campaign %s ended the drain %s (%s)", st.ID, cur.State, cur.Error)
	}
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return co, st.ID, wc
}

// drain runs leases on w until the coordinator has none left.
func drain(t testing.TB, w *Worker) {
	t.Helper()
	for {
		ran, err := w.RunOne(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			return
		}
	}
}

// commitHeaderAllowance is what the JSON line of one commit may add to its
// raw snapshot and record bytes, over a whole campaign: progress, lengths,
// the renewal request, and once per campaign the findings and final
// summary.
const commitHeaderAllowance = 1024

// TestFleetCommitCounts is the commit path's count gate. One recorded
// crowdsale-buggy campaign at a fixed seed and budget goes through an
// in-process coordinator and one worker. Its commit bodies may carry no more
// than their raw snapshot and record bytes plus commitHeaderAllowance per
// commit (base64 inside JSON adds a third), and Acquire may run at most once
// per campaign plus once to find the fleet idle (a lease per slice is what
// renewal on commit removes). The commit, Acquire, record and header counts
// repeat exactly from run to run; the snapshot bytes move by a few, since a
// snapshot carries the campaign's elapsed wall time.
func TestFleetCommitCounts(t *testing.T) {
	const campaigns = 1
	_, _, wc := drainRecorded(t, service.CampaignSpec{Example: "crowdsale-buggy", Seed: 1, Iterations: 3000})
	var body, snapshots, records, maxHeader int
	for i, b := range wc.bodies {
		req, err := decodeCommit(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		body += len(b)
		snapshots += len(req.Snapshot)
		records += len(req.Records)
		maxHeader = max(maxHeader, len(b)-len(req.Snapshot)-len(req.Records))
	}
	commits, header := len(wc.bodies), body-snapshots-records
	t.Logf("%d commits, %d acquires; %d body bytes: %d record + %d snapshot + %d header bytes (%.1f per commit, largest %d)",
		commits, wc.acquires, body, records, snapshots, header, float64(header)/float64(commits), maxHeader)
	if header > commits*commitHeaderAllowance {
		t.Errorf("commit bodies carry %d bytes besides their %d raw snapshot and record bytes, more than %d per commit",
			header, snapshots+records, commitHeaderAllowance)
	}
	if wc.acquires > campaigns+1 {
		t.Errorf("%d Acquire calls for %d campaign(s) in %d slices, want at most %d", wc.acquires, campaigns, commits, campaigns+1)
	}
}

// TestCommitBodyRefusals pins the commit decoder's refusals over HTTP: a
// JSON body, a body without its header line, negative or overlong payload
// lengths, a short body and trailing bytes are each answered 400, and
// leave the campaign, its lease and its tenant's in-flight count as they
// were. The real body then commits.
func TestCommitBodyRefusals(t *testing.T) {
	spec := buggySpec(600)
	_, _, recorded := drainRecorded(t, spec)
	good := recorded.bodies[0]
	req, err := decodeCommit(bytes.NewReader(good), int64(len(good)))
	if err != nil {
		t.Fatal(err)
	}
	if again, err := encodeCommit(req); err != nil || !bytes.Equal(again, good) {
		t.Fatalf("a worker's commit body does not re-encode to itself: %v", err)
	}
	if len(req.Snapshot) == 0 || len(req.Records) == 0 {
		t.Fatalf("first commit carries %d snapshot and %d record bytes; want both", len(req.Snapshot), len(req.Records))
	}

	co := NewCoordinator(CoordinatorConfig{})
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	st, err := co.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	l, err := co.Acquire(LeaseRequest{Worker: "w"})
	if err != nil || l == nil {
		t.Fatalf("acquire: %v %v", l, err)
	}

	// withLengths re-encodes the header with the given lengths, followed by
	// the given payload.
	withLengths := func(snapLen, recLen int, payload ...[]byte) []byte {
		h := req
		h.SnapshotLen, h.RecordsLen = snapLen, recLen
		line, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		return append(append(line, '\n'), bytes.Join(payload, nil)...)
	}
	oldJSON, err := json.Marshal(struct {
		CompleteRequest
		Snapshot []byte `json:"snapshot"`
		Records  []byte `json:"records"`
	}{req, req.Snapshot, req.Records})
	if err != nil {
		t.Fatal(err)
	}
	sl, rl := len(req.Snapshot), len(req.Records)
	for _, tc := range []struct {
		name        string
		contentType string
		body        []byte
		chunked     bool // no Content-Length: the decoder learns the end only by reading
	}{
		{"json body", "application/json", oldJSON, false},
		{"json body as a commit", commitContentType, oldJSON, false},
		{"json body with a newline", commitContentType, append(oldJSON, '\n'), false},
		{"no content type", "", good, false},
		{"empty body", commitContentType, nil, false},
		{"no header line", commitContentType, append(append([]byte(nil), req.Snapshot...), req.Records...), false},
		{"negative snapshot length", commitContentType, withLengths(-1, sl+rl+1, req.Snapshot, req.Records), false},
		{"negative records length", commitContentType, withLengths(sl+rl+1, -1, req.Snapshot, req.Records), false},
		{"overlong snapshot length", commitContentType, withLengths(sl+1, rl, req.Snapshot, req.Records), false},
		{"overlong records length", commitContentType, withLengths(sl, rl+1, req.Snapshot, req.Records), false},
		{"overlong lengths, chunked", commitContentType, withLengths(sl, rl+1, req.Snapshot, req.Records), true},
		{"huge lengths", commitContentType, withLengths(1<<40, 1<<40, req.Snapshot, req.Records), false},
		{"short body", commitContentType, good[:len(good)-1], false},
		{"short body, chunked", commitContentType, good[:len(good)-1], true},
		{"trailing bytes", commitContentType, append(append([]byte(nil), good...), '\n'), false},
		{"trailing bytes, chunked", commitContentType, append(append([]byte(nil), good...), 'x'), true},
	} {
		var body io.Reader = bytes.NewReader(tc.body)
		if tc.chunked {
			body = io.MultiReader(body)
		}
		hr, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/fleet/leases/"+l.ID+"/complete", body)
		if err != nil {
			t.Fatal(err)
		}
		if tc.contentType != "" {
			hr.Header.Set("Content-Type", tc.contentType)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", tc.name, resp.StatusCode, msg)
		}
		cur, _ := co.Status(st.ID)
		co.mu.Lock()
		_, current := co.leases[l.ID]
		inFlight := co.tenants[""].inFlight
		co.mu.Unlock()
		if cur.State != stateLeased || cur.Slices != 0 || !current || inFlight != 1 {
			t.Fatalf("%s changed the campaign: state %s, %d slices, lease current %v, %d in flight",
				tc.name, cur.State, cur.Slices, current, inFlight)
		}
	}

	resp, err := NewClient(srv.URL, 1).Complete(context.Background(), l.ID, req)
	if err != nil || !resp.Committed {
		t.Fatalf("the real body after the refusals: %+v %v", resp, err)
	}
	if cur, _ := co.Status(st.ID); cur.Slices != 1 {
		t.Fatalf("the real body committed %d slices, want 1", cur.Slices)
	}
}

// FuzzDecodeCommit feeds arbitrary bytes to the commit decoder, seeded with
// a real mid-campaign commit body and a real final one. Every input either
// fails with an error, or decodes to a request whose encoding decodes and
// re-encodes to the same bytes.
func FuzzDecodeCommit(f *testing.F) {
	_, _, wc := drainRecorded(f, buggySpec(600))
	f.Add(wc.bodies[0])
	f.Add(wc.bodies[len(wc.bodies)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeCommit(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		enc, err := encodeCommit(req)
		if err != nil {
			t.Fatalf("decoded commit does not encode: %v", err)
		}
		again, err := decodeCommit(bytes.NewReader(enc), int64(len(enc)))
		if err != nil {
			t.Fatalf("encoded commit does not decode: %v\n%q", err, enc)
		}
		enc2, err := encodeCommit(again)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("commit encoding is not a fixpoint (%v):\n%q\n%q", err, enc, enc2)
		}
	})
}
