package service

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Handler returns the service's HTTP JSON API:
//
//	POST /v1/campaigns               submit a campaign (CampaignSpec JSON)
//	GET  /v1/campaigns               list campaign statuses
//	GET  /v1/campaigns/{id}          one campaign's status
//	GET  /v1/campaigns/{id}/findings findings with PoCs (?minimize=1 shrinks)
//	GET  /v1/campaigns/{id}/events   server-sent events status stream
//	POST /v1/campaigns/{id}/cancel   stop a campaign
//	POST /v1/drain                   snapshot everything, stop scheduling
//	GET  /healthz                    liveness
//	GET  /readyz                     readiness (store open + scheduler accepting)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	// Readiness: the store is open, the scheduler slots are running, and the
	// service accepts submissions (not drained).
	HealthRoutes(mux, func() map[string]any {
		return map[string]any{"ok": true, "campaigns": len(s.Statuses())}
	}, s.Ready)

	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec CampaignSpec
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad spec: %w", err))
			return
		}
		st, err := s.Submit(spec)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		WriteJSON(w, http.StatusCreated, st)
	})

	mux.HandleFunc("GET /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.Statuses())
	})

	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Status(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("no campaign %s", r.PathValue("id")))
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/campaigns/{id}/findings", func(w http.ResponseWriter, r *http.Request) {
		minimize := r.URL.Query().Get("minimize") == "1"
		findings, err := s.Findings(r.PathValue("id"), minimize)
		if err != nil {
			WriteError(w, http.StatusNotFound, err)
			return
		}
		WriteJSON(w, http.StatusOK, findings)
	})

	mux.HandleFunc("POST /v1/campaigns/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Cancel(r.PathValue("id")); err != nil {
			WriteError(w, http.StatusNotFound, err)
			return
		}
		st, _ := s.Status(r.PathValue("id"))
		WriteJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/campaigns/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.job(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("no campaign %s", r.PathValue("id")))
			return
		}
		fl, ok := w.(http.Flusher)
		if !ok {
			WriteError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		ch, unsub := j.subscribe()
		defer unsub()
		for {
			select {
			case <-r.Context().Done():
				return
			case <-s.ctx.Done():
				return
			case st := <-ch:
				data, _ := json.Marshal(st)
				fmt.Fprintf(w, "data: %s\n\n", data)
				fl.Flush()
				// Terminal states end the stream so pollers terminate.
				switch st.State {
				case StateDone, StateCancelled, StateFailed, StateDrained:
					return
				}
			}
		}
	})

	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		n := s.Drain()
		WriteJSON(w, http.StatusOK, map[string]any{"drained": n})
	})

	return mux
}

// HealthRoutes serves the liveness and readiness pair every mufuzzd mode
// answers: GET /healthz writes health's body with 200, and GET /readyz
// writes {"ready": true} with 200 when ready reports true, else {"ready":
// false, "reason": ...} with 503, so orchestrators and CI jobs can gate on
// it instead of sleeping.
func HealthRoutes(mux *http.ServeMux, health func() map[string]any, ready func() (bool, string)) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, health())
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if ok, reason := ready(); !ok {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": reason})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{"ready": true})
	})
}

// WriteJSON writes v as the indented JSON body of a code response — the one
// response envelope the service's and the fleet's handlers share.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes err as the JSON error envelope {"error": "..."}.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}
