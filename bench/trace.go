package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the traced pass. Spans of
// one campaign share its campaign label; parent is the enclosing span's id
// (0 for a root).
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Campaign string `json:"campaign"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark writes them at exit. A
// nil *tracer is the measured pass: every method is a no-op, so untraced
// code paths call it unconditionally. Safe for concurrent use (the fleet's
// HTTP handlers record spans on server goroutines).
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns the function that closes it, plus its id.
func (t *tracer) begin(parent int64, name, workload, campaign string) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.epoch)
	t.mu.Lock()
	id = int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: workload, Campaign: campaign, StartNs: int64(start)})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans[id-1].EndNs = int64(end)
		t.mu.Unlock()
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfTimes sums, per workload and span name, the span durations minus the
// parts of them their child spans cover: the time spent in that layer's own
// code rather than in the layers it called.
func selfTimes(spans []span) map[[2]string]time.Duration {
	child := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[[2]string]time.Duration)
	for _, s := range spans {
		out[[2]string{s.Workload, s.Name}] += time.Duration(s.EndNs - s.StartNs - child[s.ID])
	}
	return out
}

// printSelfTimes renders the per-layer self-time table of one workload.
func printSelfTimes(w io.Writer, workload string, spans []span) {
	self := selfTimes(spans)
	var total time.Duration
	var names []string
	count := make(map[string]int)
	for _, s := range spans {
		if s.Workload == workload {
			count[s.Name]++
		}
	}
	for k, d := range self {
		if k[0] == workload {
			names = append(names, k[1])
			total += d
		}
	}
	if total <= 0 {
		return
	}
	sort.Slice(names, func(i, j int) bool {
		return self[[2]string{workload, names[i]}] > self[[2]string{workload, names[j]}]
	})
	fmt.Fprintf(w, "  self time by span (traced pass, %s total):\n", total.Round(time.Millisecond))
	for _, n := range names {
		d := self[[2]string{workload, n}]
		fmt.Fprintf(w, "    %-22s %10s %6.1f%%  spans=%d\n", n, d.Round(time.Microsecond), 100*float64(d)/float64(total), count[n])
	}
}
