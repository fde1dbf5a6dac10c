package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mufuzz/internal/conformance"
	"mufuzz/internal/fleet"
	"mufuzz/internal/oracle"
	"mufuzz/internal/store"
)

// handlerMeter wraps the coordinator's HTTP handler. It always counts
// refusals (409, 429 and 5xx answers); when tracing, it also times the
// lease and commit handlers, records each as a span under the RunOne that
// caused it, and keeps the commit bodies for the store probe.
type handlerMeter struct {
	next     http.Handler
	tr       *tracer
	workload string
	refused  atomic.Int64
	// runOne is the span id of the worker's RunOne in flight (one worker, so
	// at most one).
	runOne atomic.Int64

	mu      sync.Mutex
	lease   []time.Duration
	commit  []time.Duration
	bodies  [][]byte
	handled time.Duration // lease plus commit handler time
}

// statusWriter remembers the status code a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// teeBody copies a request body into a buffer as the handler reads it.
type teeBody struct {
	io.Reader
	io.Closer
}

func (m *handlerMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	var kind string
	if m.tr != nil && r.Method == http.MethodPost {
		switch {
		case r.URL.Path == "/v1/fleet/leases":
			kind = "fleet.lease"
		case strings.HasPrefix(r.URL.Path, "/v1/fleet/leases/") && strings.HasSuffix(r.URL.Path, "/complete"):
			kind = "fleet.commit"
		}
	}
	if kind == "" {
		m.next.ServeHTTP(sw, r)
	} else {
		var body bytes.Buffer
		if kind == "fleet.commit" {
			r.Body = teeBody{io.TeeReader(r.Body, &body), r.Body}
		}
		_, end := m.tr.begin(m.runOne.Load(), kind, m.workload, "")
		start := time.Now()
		m.next.ServeHTTP(sw, r)
		d := time.Since(start)
		end()
		m.mu.Lock()
		m.handled += d
		if kind == "fleet.lease" {
			m.lease = append(m.lease, d)
		} else {
			m.commit = append(m.commit, d)
			m.bodies = append(m.bodies, body.Bytes())
		}
		m.mu.Unlock()
	}
	if sw.status == http.StatusConflict || sw.status == http.StatusTooManyRequests || sw.status >= 500 {
		m.refused.Add(1)
	}
}

func (m *handlerMeter) handledTotal() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.handled
}

// fleetEnv is a coordinator with a fresh store behind a loopback HTTP
// server, and the client one worker drains it through.
type fleetEnv struct {
	dir    string
	co     *fleet.Coordinator
	srv    *httptest.Server
	client *fleet.Client
	meter  *handlerMeter
}

// startFleet opens a store in a new temporary directory and starts a
// coordinator sized so that none of n campaigns is refused.
func startFleet(n, budget int, seed int64, tr *tracer, workload string) (*fleetEnv, error) {
	dir, err := os.MkdirTemp("", "mufuzz-bench-store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	co := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Store:             st,
		DefaultIterations: budget,
		TenantMaxActive:   n,
	})
	meter := &handlerMeter{next: co.Handler(), tr: tr, workload: workload}
	srv := httptest.NewServer(meter)
	return &fleetEnv{dir: dir, co: co, srv: srv, client: fleet.NewClient(srv.URL, seed), meter: meter}, nil
}

// close stops the server (waiting for its handlers) and removes the store.
func (e *fleetEnv) close() {
	e.srv.Close()
	os.RemoveAll(e.dir)
}

// submit submits every campaign, returning their ids in order and each
// Submit's round-trip time.
func (e *fleetEnv) submit(cs []campaign, parent int64) ([]string, []time.Duration, error) {
	ids := make([]string, len(cs))
	durs := make([]time.Duration, len(cs))
	for i, c := range cs {
		_, end := e.meter.tr.begin(parent, "fleet.submit", e.meter.workload, campaignLabel(c.spec))
		start := time.Now()
		st, err := e.client.Submit(context.Background(), fleet.SubmitRequest{Spec: c.spec})
		durs[i] = time.Since(start)
		end()
		if err != nil {
			return nil, nil, fmt.Errorf("submit %s: %w", c.spec.Name, err)
		}
		ids[i] = st.ID
	}
	return ids, durs, nil
}

// fleetRun is what one fleet trial leaves behind: the transcripts and the
// refusals the checks read, and the samples the per-layer metrics are
// computed from (timings only when traced).
type fleetRun struct {
	transcripts [][]byte
	refused     int
	slices      int // RunOne calls that executed a lease
	campaigns   int
	submit      []time.Duration
	runOne      []time.Duration
	outside     time.Duration // RunOne time outside the lease and commit handlers
	lease       []time.Duration
	commit      []time.Duration
	bodies      [][]byte
}

// add pools another traced trial's samples into f.
func (f *fleetRun) add(g *fleetRun) {
	f.refused += g.refused
	f.slices += g.slices
	f.campaigns += g.campaigns
	f.submit = append(f.submit, g.submit...)
	f.runOne = append(f.runOne, g.runOne...)
	f.outside += g.outside
	f.lease = append(f.lease, g.lease...)
	f.commit = append(f.commit, g.commit...)
	f.bodies = append(f.bodies, g.bodies...)
}

// metrics derives the fleet and store per-layer metrics from traced runs.
func (f *fleetRun) metrics(log io.Writer) (map[string]float64, error) {
	put, err := storeProbe(f.bodies)
	if err != nil {
		return nil, err
	}
	submit, lease, commit, runOne := micros(f.submit), micros(f.lease), micros(f.commit), millis(f.runOne)
	var bodyBytes, runOneTotal float64
	for _, b := range f.bodies {
		bodyBytes += float64(len(b))
	}
	for _, d := range f.runOne {
		runOneTotal += float64(d)
	}
	fmt.Fprintf(log, "  fleet.submit          %s\n", describe(submit, "us"))
	fmt.Fprintf(log, "  fleet.lease           %s\n", describe(lease, "us"))
	fmt.Fprintf(log, "  fleet.commit          %s\n", describe(commit, "us"))
	fmt.Fprintf(log, "  fleet.RunOne          %s\n", describe(runOne, "ms"))
	return map[string]float64{
		"fleet.submit_us_p50":       percentile(submit, 0.5),
		"fleet.lease_us_p50":        percentile(lease, 0.5),
		"fleet.lease_us_p90":        percentile(lease, 0.9),
		"fleet.commit_us_p50":       percentile(commit, 0.5),
		"fleet.commit_us_p90":       percentile(commit, 0.9),
		"fleet.commit_bytes_mean":   bodyBytes / float64(len(f.bodies)),
		"fleet.runone_ms_p50":       percentile(runOne, 0.5),
		"fleet.runone_ms_p90":       percentile(runOne, 0.9),
		"fleet.exec_share":          float64(f.outside) / runOneTotal,
		"fleet.refused":             float64(f.refused),
		"fleet.slices_per_campaign": float64(f.slices) / float64(f.campaigns),
		"store.put_us_p50":          put,
	}, nil
}

// fleetSetups is how many cold set-ups a fleet trial times; only the last
// set-up's coordinator is drained.
const fleetSetups = 5

// setUpFleet starts a coordinator with a fresh store and submits the
// campaigns, timing start through the last Submit.
func setUpFleet(w *workload, cs []campaign, seed int64, tr *tracer, parent int64) (*fleetEnv, []string, []time.Duration, time.Duration, error) {
	start := time.Now()
	env, err := startFleet(len(cs), w.budget, seed, tr, w.name)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	ids, submitted, err := env.submit(cs, parent)
	if err != nil {
		env.close()
		return nil, nil, nil, 0, err
	}
	return env, ids, submitted, time.Since(start), nil
}

// fleetTrial sets a fleet up fleetSetups times, each time from nothing
// through the last Submit, and drains the last one with one worker. It
// times the set-ups and each RunOne of the drain. With a tracer it records
// spans for the drained fleet's Submits, and for each RunOne, lease and
// commit; without one it runs the canary after each RunOne.
func fleetTrial(w *workload, cs []campaign, seed int64, tr *tracer) (*trialResult, *fleetRun, error) {
	trialID, endTrial := tr.begin(0, "trial", w.name, "")
	t := &trialResult{traced: tr != nil}
	for range fleetSetups - 1 {
		env, _, _, d, err := setUpFleet(w, cs, seed, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		env.close()
		t.setups = append(t.setups, d)
	}
	env, ids, submitted, d, err := setUpFleet(w, cs, seed, tr, trialID)
	if err != nil {
		return nil, nil, err
	}
	defer env.close()
	t.setups = append(t.setups, d)
	fr := &fleetRun{campaigns: len(cs)}
	if tr != nil {
		fr.submit = submitted
	}

	worker := fleet.NewWorker("bench-worker", env.client)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	err = func() error {
		for {
			id, end := tr.begin(trialID, "fleet.RunOne", w.name, "")
			env.meter.runOne.Store(id)
			handled := env.meter.handledTotal()
			s0 := time.Now()
			ran, err := worker.RunOne(context.Background())
			d := time.Since(s0)
			env.meter.runOne.Store(0)
			end()
			if err != nil {
				return err
			}
			if tr == nil {
				t.addUnit(d)
			} else {
				t.units = append(t.units, d)
			}
			if !ran {
				return nil
			}
			fr.slices++
			if tr != nil {
				fr.runOne = append(fr.runOne, d)
				fr.outside += d - (env.meter.handledTotal() - handled)
			}
		}
	}()
	runtime.ReadMemStats(&m1)
	t.bytes, t.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	endTrial()
	if err != nil {
		return nil, nil, fmt.Errorf("drain: %w", err)
	}

	for _, id := range ids {
		st, ok := env.co.Status(id)
		if !ok || st.State != "done" {
			return nil, nil, fmt.Errorf("campaign %s not done after drain (%s: %s)", id, st.State, st.Error)
		}
		data, ok := env.co.Transcript(id)
		if !ok {
			return nil, nil, fmt.Errorf("campaign %s has no transcript", id)
		}
		tx, err := conformance.Decode(bytes.NewReader(data))
		if err != nil {
			return nil, nil, fmt.Errorf("campaign %s transcript: %w", id, err)
		}
		o, first := transcriptOutcome(tx)
		t.execs += o.executions
		t.outcome = append(t.outcome, o)
		t.first = append(t.first, first)
		fr.transcripts = append(fr.transcripts, data)
	}
	fr.refused = int(env.meter.refused.Load())
	env.meter.mu.Lock()
	fr.lease, fr.commit, fr.bodies = env.meter.lease, env.meter.commit, env.meter.bodies
	env.meter.mu.Unlock()
	return t, fr, nil
}

// transcriptOutcome reads an outcome and the first-fire indexes off a
// recorded transcript.
func transcriptOutcome(tx *conformance.Transcript) (outcome, map[oracle.BugClass]int) {
	o := outcome{
		executions: tx.Final.Executions,
		covered:    tx.Final.CoveredEdges,
		total:      tx.Final.TotalEdges,
		classes:    strings.Join(tx.Final.Classes, ","),
	}
	first := make(map[oracle.BugClass]int)
	for _, r := range tx.Records {
		o.coveredSum += int64(r.CoveredAfter)
		for _, c := range r.NewClasses {
			if _, ok := first[oracle.BugClass(c)]; !ok {
				first[oracle.BugClass(c)] = r.Index
			}
		}
	}
	return o, first
}

// checkReferences compares each fleet transcript byte for byte with the
// uninterrupted single-node recording of its spec.
func checkReferences(w *workload, cs []campaign, fr *fleetRun) []string {
	var fails []string
	for i, c := range cs {
		ref, err := fleet.ReferenceTranscript(c.spec, w.budget, 1)
		if err != nil {
			fails = append(fails, fmt.Sprintf("reference transcript of %s: %v", campaignLabel(c.spec), err))
			continue
		}
		if !bytes.Equal(ref.Transcript.EncodeBytes(), fr.transcripts[i]) {
			fails = append(fails, fmt.Sprintf("fleet transcript of %s differs from fleet.ReferenceTranscript", campaignLabel(c.spec)))
		}
	}
	return fails
}
