package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mufuzz/internal/service"
)

// Client is the worker-side (and operator-side) HTTP client for a fleet
// coordinator. Every call sends a JSON body, except a commit, which sends a
// commitContentType body. Every call carries a per-attempt timeout, and
// retries transient failures — network errors and 5xx — with exponential
// backoff plus jitter. Back-pressure responses (429 and empty lease polls)
// honor the coordinator's Retry-After hint. Protocol refusals (4xx other
// than 429) are never retried: they are answers, not failures.
type Client struct {
	base string
	http *http.Client

	mu  sync.Mutex
	rng *rand.Rand
}

// The client's retry policy.
const (
	maxAttempts = 5                      // per call
	baseBackoff = 200 * time.Millisecond // first retry delay
	maxBackoff  = 5 * time.Second        // backoff cap
)

// NewClient creates a client for the coordinator at base (e.g.
// "http://127.0.0.1:8700"). Seed feeds the backoff jitter source only —
// it never influences fuzzing.
func NewClient(base string, seed int64) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: 30 * time.Second},
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// jitter returns a uniformly random duration in [0, d).
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.rng.Int63n(int64(d)))
}

// backoff computes the delay before retry attempt n (0-based): exponential
// from baseBackoff, capped at maxBackoff, plus up to 50% jitter so a fleet
// of workers retrying the same outage does not stampede.
func (c *Client) backoff(attempt int) time.Duration {
	d := baseBackoff << attempt
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	return d + c.jitter(d/2)
}

// sleep waits for d or until ctx is cancelled.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// apiError is a non-retryable coordinator refusal.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("coordinator: %d: %s", e.Status, e.Msg)
}

// IsBusy reports whether err is a 429 back-pressure refusal.
func IsBusy(err error) bool {
	var ae *apiError
	return errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests
}

// do runs one JSON request with the retry policy. A nil in sends no body;
// a nil out discards the response body. 204 responses (e.g. lease polls
// with no work) return errEmpty for the caller to interpret.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doN(ctx, maxAttempts, method, path, in, out)
}

// doN is do with an explicit attempt budget.
func (c *Client) doN(ctx context.Context, attempts int, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("fleet client: encode: %w", err)
		}
	}
	return c.send(ctx, attempts, method, path, "application/json", body, out)
}

// send runs one request with an encoded body under the retry policy.
func (c *Client) send(ctx context.Context, attempts int, method, path, contentType string, body []byte, out any) error {
	var lastErr error
	var wait time.Duration
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := sleep(ctx, wait); err != nil {
				return err
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("fleet client: %w", err)
		}
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("Accept", "application/json")
		resp, err := c.http.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			wait = c.backoff(attempt)
			continue
		}
		retry, err := c.handle(resp, out)
		if err == nil {
			return nil
		}
		if !retry {
			return err
		}
		lastErr = err
		// An explicit server pacing hint overrides our own backoff.
		wait = c.backoff(attempt)
		if ra := retryAfter(resp); ra > 0 {
			wait = ra + c.jitter(ra/4)
		}
	}
	return fmt.Errorf("fleet client: %s %s: giving up after %d attempts: %w", method, path, attempts, lastErr)
}

// errEmpty reports a 204 response (no work available).
var errEmpty = fmt.Errorf("fleet client: no content")

// handle consumes one response; it reports whether the call should retry.
func (c *Client) handle(resp *http.Response, out any) (bool, error) {
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		_ = resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return false, errEmpty
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		if out == nil {
			return false, nil
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxCompleteBody)).Decode(out); err != nil {
			// A malformed body on a 2xx is a transport problem; retry.
			return true, fmt.Errorf("fleet client: decode response: %w", err)
		}
		return false, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		return true, &apiError{Status: resp.StatusCode, Msg: readErr(resp)}
	case resp.StatusCode >= 500:
		return true, &apiError{Status: resp.StatusCode, Msg: readErr(resp)}
	default:
		return false, &apiError{Status: resp.StatusCode, Msg: readErr(resp)}
	}
}

// readErr extracts the error envelope's message (best effort).
func readErr(resp *http.Response) string {
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb); err == nil && eb.Error != "" {
		return eb.Error
	}
	return resp.Status
}

// retryAfter parses a Retry-After seconds hint.
func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return 0
}

// Submit submits a campaign. 429 back-pressure is retried with the
// coordinator's pacing hint; if it persists past the retry budget the
// final error satisfies IsBusy.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (CampaignStatus, error) {
	var st CampaignStatus
	err := c.do(ctx, http.MethodPost, "/v1/fleet/campaigns", req, &st)
	return st, unwrapGiveUp(err)
}

// SubmitOnce submits without retrying back-pressure — callers that want to
// observe 429s directly (tests, schedulers with their own pacing).
func (c *Client) SubmitOnce(ctx context.Context, req SubmitRequest) (CampaignStatus, error) {
	var st CampaignStatus
	err := c.doN(ctx, 1, http.MethodPost, "/v1/fleet/campaigns", req, &st)
	return st, unwrapGiveUp(err)
}

// Acquire asks for one lease; a nil lease (no error) means no work is
// available right now.
func (c *Client) Acquire(ctx context.Context, req LeaseRequest) (*Lease, error) {
	var l Lease
	err := c.do(ctx, http.MethodPost, "/v1/fleet/leases", req, &l)
	if err != nil {
		if errors.Is(err, errEmpty) {
			return nil, nil
		}
		return nil, err
	}
	return &l, nil
}

// Heartbeat extends a lease. A stale lease returns the coordinator's 410
// refusal.
func (c *Client) Heartbeat(ctx context.Context, leaseID string) error {
	return unwrapGiveUp(c.do(ctx, http.MethodPost, "/v1/fleet/leases/"+leaseID+"/heartbeat", LeaseRequest{}, nil))
}

// Complete commits a finished slice as a commitContentType body, and with
// req.Next set brings back the next lease in the same round trip. Safe to
// retry: commits are idempotent on the coordinator. A stale lease returns
// the coordinator's 409 refusal.
func (c *Client) Complete(ctx context.Context, leaseID string, req CompleteRequest) (CompleteResponse, error) {
	body, err := encodeCommit(req)
	if err != nil {
		return CompleteResponse{}, fmt.Errorf("fleet client: encode: %w", err)
	}
	var resp CompleteResponse
	err = c.send(ctx, maxAttempts, http.MethodPost, "/v1/fleet/leases/"+leaseID+"/complete", commitContentType, body, &resp)
	return resp, unwrapGiveUp(err)
}

// SyncSeeds pushes pollination seeds into a bucket (idempotent).
func (c *Client) SyncSeeds(ctx context.Context, bucket string, seeds []service.SeedObject) (int, error) {
	var resp SyncResponse
	err := c.do(ctx, http.MethodPost, "/v1/fleet/seeds/"+bucket+"/sync", SyncRequest{Seeds: seeds}, &resp)
	return resp.Stored, unwrapGiveUp(err)
}

// Status fetches one campaign.
func (c *Client) Status(ctx context.Context, id string) (CampaignStatus, error) {
	var st CampaignStatus
	err := c.do(ctx, http.MethodGet, "/v1/fleet/campaigns/"+id, nil, &st)
	return st, unwrapGiveUp(err)
}

// Findings fetches a campaign's findings.
func (c *Client) Findings(ctx context.Context, id string) ([]service.Finding, error) {
	var out []service.Finding
	err := c.do(ctx, http.MethodGet, "/v1/fleet/campaigns/"+id+"/findings", nil, &out)
	return out, unwrapGiveUp(err)
}

// Transcript fetches a finished campaign's conformance transcript bytes,
// all of them: a transcript has no size cap, and a response the coordinator
// aborts is an error.
func (c *Client) Transcript(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/fleet/campaigns/"+id+"/transcript", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &apiError{Status: resp.StatusCode, Msg: resp.Status}
	}
	return io.ReadAll(resp.Body)
}

// WaitReady polls /readyz until the coordinator is ready or ctx expires.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := c.http.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if serr := sleep(ctx, 100*time.Millisecond+c.jitter(100*time.Millisecond)); serr != nil {
			return serr
		}
	}
}

// unwrapGiveUp surfaces the terminal cause of an exhausted retry loop so
// callers can match it, as IsBusy does (the "giving up" wrapper keeps
// %w-chains intact, this just shortens the common case).
func unwrapGiveUp(err error) error {
	if err == nil {
		return nil
	}
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	return err
}
