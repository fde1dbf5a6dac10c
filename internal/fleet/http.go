package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"

	"mufuzz/internal/service"
)

// Body-size caps. Submissions are human-sized specs; commits carry a
// campaign snapshot plus a record chunk, which grow with corpus size.
const (
	maxSubmitBody   = 1 << 20
	maxControlBody  = 64 << 10
	maxCompleteBody = 64 << 20
)

// Handler returns the coordinator's HTTP API:
//
//	POST /v1/fleet/campaigns                  submit (SubmitRequest) — 429 + Retry-After over tenant budget
//	GET  /v1/fleet/campaigns                  list campaign statuses
//	GET  /v1/fleet/campaigns/{id}             one campaign's status
//	GET  /v1/fleet/campaigns/{id}/findings    findings with PoCs (after done)
//	GET  /v1/fleet/campaigns/{id}/transcript  conformance transcript, streamed from its log (after done)
//	POST /v1/fleet/leases                     acquire a slice lease — 204 + Retry-After when idle
//	POST /v1/fleet/leases/{id}/heartbeat      keep a lease alive — 410 when lapsed
//	POST /v1/fleet/leases/{id}/complete       commit a finished slice (commitContentType body),
//	                                          optionally renewing the lease — 409 when stale
//	POST /v1/fleet/seeds/{bucket}/sync        push pollination seeds (idempotent)
//	GET  /healthz                             liveness
//	GET  /readyz                              readiness
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()

	service.HealthRoutes(mux, func() map[string]any {
		return map[string]any{"ok": true, "campaigns": len(co.Statuses())}
	}, co.Ready)

	mux.HandleFunc("POST /v1/fleet/campaigns", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if !readJSON(w, r, maxSubmitBody, &req) {
			return
		}
		st, err := co.Submit(req)
		if err != nil {
			var busy errBusy
			if errors.As(err, &busy) {
				w.Header().Set("Retry-After", retryAfterHint)
				service.WriteError(w, http.StatusTooManyRequests, err)
				return
			}
			service.WriteError(w, http.StatusBadRequest, err)
			return
		}
		service.WriteJSON(w, http.StatusCreated, st)
	})

	mux.HandleFunc("GET /v1/fleet/campaigns", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, co.Statuses())
	})

	mux.HandleFunc("GET /v1/fleet/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := co.Status(r.PathValue("id"))
		if !ok {
			service.WriteError(w, http.StatusNotFound, fmt.Errorf("no campaign %s", r.PathValue("id")))
			return
		}
		service.WriteJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/fleet/campaigns/{id}/findings", func(w http.ResponseWriter, r *http.Request) {
		findings, err := co.Findings(r.PathValue("id"))
		if err != nil {
			service.WriteError(w, http.StatusNotFound, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, findings)
	})

	mux.HandleFunc("GET /v1/fleet/campaigns/{id}/transcript", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		cw := &countingWriter{w: w}
		ok, err := co.copyTranscript(r.PathValue("id"), cw)
		switch {
		case !ok:
			service.WriteError(w, http.StatusNotFound, fmt.Errorf("campaign %s has no transcript yet", r.PathValue("id")))
		case err != nil && cw.n == 0:
			service.WriteError(w, http.StatusInternalServerError, err)
		case err != nil:
			// Part of the transcript is out: abort the response, so the
			// client reads a broken stream, never a short transcript.
			panic(http.ErrAbortHandler)
		}
	})

	mux.HandleFunc("POST /v1/fleet/leases", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !readJSON(w, r, maxControlBody, &req) {
			return
		}
		l, err := co.Acquire(req)
		if err != nil {
			service.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		if l == nil {
			w.Header().Set("Retry-After", retryAfterHint)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		service.WriteJSON(w, http.StatusOK, l)
	})

	mux.HandleFunc("POST /v1/fleet/leases/{id}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		ttl, ok := co.Heartbeat(r.PathValue("id"))
		if !ok {
			service.WriteError(w, http.StatusGone, fmt.Errorf("lease %s is not current", r.PathValue("id")))
			return
		}
		service.WriteJSON(w, http.StatusOK, map[string]any{"ttl_millis": ttl.Milliseconds()})
	})

	mux.HandleFunc("POST /v1/fleet/leases/{id}/complete", func(w http.ResponseWriter, r *http.Request) {
		if mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt != commitContentType {
			service.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: a commit is %s, not %q", commitContentType, r.Header.Get("Content-Type")))
			return
		}
		size := int64(maxCompleteBody)
		if r.ContentLength >= 0 && r.ContentLength < size {
			size = r.ContentLength
		}
		req, err := decodeCommit(http.MaxBytesReader(w, r.Body, maxCompleteBody), size)
		if err != nil {
			service.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		resp, err := co.Complete(r.PathValue("id"), req)
		if err != nil {
			var stale errStale
			if errors.As(err, &stale) {
				service.WriteError(w, http.StatusConflict, err)
				return
			}
			service.WriteError(w, http.StatusBadRequest, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("POST /v1/fleet/seeds/{bucket}/sync", func(w http.ResponseWriter, r *http.Request) {
		var req SyncRequest
		if !readJSON(w, r, maxCompleteBody, &req) {
			return
		}
		n, err := co.SyncSeeds(r.PathValue("bucket"), req.Seeds)
		if err != nil {
			code := http.StatusInternalServerError
			if errors.As(err, new(errBadSeed)) {
				code = http.StatusBadRequest
			}
			service.WriteError(w, code, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, SyncResponse{Stored: n})
	})

	return mux
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// readJSON decodes a size-capped JSON body, answering 400 itself on
// failure (413-style errors from MaxBytesReader surface as 400 with the
// reader's message).
func readJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		service.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}
