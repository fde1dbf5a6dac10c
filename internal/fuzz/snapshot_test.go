package fuzz

import (
	"bytes"
	"context"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"mufuzz/internal/corpus"
	"mufuzz/internal/minisol"
)

// recordingObserver collects per-execution records for equality checks.
type recordingObserver struct {
	records []ExecRecord
}

func (r *recordingObserver) OnExec(rec ExecRecord) { r.records = append(r.records, rec) }

func compileT(t testing.TB, src string) *minisol.Compiled {
	t.Helper()
	comp, err := minisol.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return comp
}

// TestSnapshotResumeFingerprint proves the core resume property at the fuzz
// level: a campaign paused at a round boundary, snapshotted through the full
// encode→decode round trip, and resumed, finishes with exactly the result an
// uninterrupted campaign produces — coverage, findings, PoCs, counters,
// timeline, and the per-execution record stream.
func TestSnapshotResumeFingerprint(t *testing.T) {
	opts := Options{
		Strategy:   MuFuzz(),
		Seed:       3,
		Iterations: 600,
	}

	comp := compileT(t, corpus.CrowdsaleBuggy())
	fullObs := &recordingObserver{}
	fullOpts := opts
	fullOpts.Observer = fullObs
	full := NewCampaign(comp, fullOpts)
	fullRes := full.Run()
	want := resultFingerprint(fullRes)

	pausedObs := &recordingObserver{}
	pausedOpts := opts
	pausedOpts.Observer = pausedObs
	paused := NewCampaign(comp, pausedOpts)
	if _, done := paused.RunSlice(context.Background(), 3); done {
		t.Fatal("campaign finished before the pause point; grow the budget")
	}

	var buf bytes.Buffer
	if err := paused.Snapshot().Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	snap, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// The encoding must be stable: re-encoding the decoded snapshot
	// reproduces the bytes.
	if !bytes.Equal(snap.EncodeBytes(), buf.Bytes()) {
		t.Fatal("snapshot encode/decode/encode is not byte-stable")
	}

	resumed, err := ResumeCampaign(comp, snap)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	resumed.SetObserver(pausedObs)
	resumedRes := resumed.Run()

	if got := resultFingerprint(resumedRes); got != want {
		t.Errorf("resumed result diverged from uninterrupted run\n--- want\n%s\n--- got\n%s", want, got)
	}
	if len(pausedObs.records) != len(fullObs.records) {
		t.Fatalf("record count %d != uninterrupted %d", len(pausedObs.records), len(fullObs.records))
	}
	for i := range fullObs.records {
		w, g := fullObs.records[i], pausedObs.records[i]
		if w.Index != g.Index || w.CoveredAfter != g.CoveredAfter || w.NestedDepth != g.NestedDepth ||
			w.DistImproved != g.DistImproved || len(w.NewEdges) != len(g.NewEdges) ||
			len(w.NewClasses) != len(g.NewClasses) || w.Seq.String() != g.Seq.String() {
			t.Fatalf("record %d diverged:\nwant %+v\ngot  %+v", i, w, g)
		}
	}
}

// TestSnapshotResumeAcrossManySlices drives a campaign as a scheduler would
// — many short slices with a snapshot/restore round trip between every pair
// — and checks the final result still matches the uninterrupted run.
func TestSnapshotResumeAcrossManySlices(t *testing.T) {
	opts := Options{Strategy: MuFuzz(), Seed: 11, Iterations: 400}
	comp := compileT(t, corpus.Crowdsale())

	want := resultFingerprint(NewCampaign(comp, opts).Run())

	c := NewCampaign(comp, opts)
	for hops := 0; ; hops++ {
		if hops > 500 {
			t.Fatal("campaign did not finish in 500 slices")
		}
		_, done := c.RunSlice(context.Background(), 1)
		if done {
			break
		}
		snap, err := DecodeSnapshot(bytes.NewReader(c.Snapshot().EncodeBytes()))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if c, err = ResumeCampaign(comp, snap); err != nil {
			t.Fatalf("resume: %v", err)
		}
	}
	res, _ := c.RunSlice(context.Background(), 0)
	if got := resultFingerprint(res); got != want {
		t.Errorf("slice-hopped result diverged\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestSnapshotRejectsNewerVersion pins forward compatibility: a snapshot
// whose header claims a version this build does not know must be rejected
// with an error that tells the operator to upgrade — not silently
// misparsed as whatever the current decoder expects.
func TestSnapshotRejectsNewerVersion(t *testing.T) {
	comp := compileT(t, corpus.Crowdsale())
	c := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 1, Iterations: 200})
	if _, done := c.RunSlice(context.Background(), 2); done {
		t.Fatal("campaign finished before the pause point")
	}
	enc := c.Snapshot().EncodeBytes()
	future := bytes.Replace(enc, []byte(" v3\n"), []byte(" v4\n"), 1)
	if bytes.Equal(future, enc) {
		t.Fatal("header rewrite did not take; encoder format changed?")
	}
	_, err := DecodeSnapshot(bytes.NewReader(future))
	if err == nil {
		t.Fatal("v4 snapshot decoded without error")
	}
	if !strings.Contains(err.Error(), "newer mufuzz") {
		t.Fatalf("v4 rejection should name the cause, got: %v", err)
	}
}

// TestSnapshotDecodesV1 pins backward compatibility: a v1 snapshot — strategy
// line without the cmpfeed/dict fields, no cmpop records — must still decode,
// with the comparison-feedback flags off (they postdate the format) and
// resume into a runnable campaign. Its options line reads as an older
// batched campaign's did: workers=4 and the retired batched and copystate
// flags. Decoding ignores the flags, and the campaign resumes on the one
// engine and re-encodes workers=1.
func TestSnapshotDecodesV1(t *testing.T) {
	comp := compileT(t, corpus.Crowdsale())
	c := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 1, Iterations: 200})
	if _, done := c.RunSlice(context.Background(), 2); done {
		t.Fatal("campaign finished before the pause point")
	}
	// Transform the current encoding into the exact v1 shape.
	var v1 bytes.Buffer
	for _, line := range strings.SplitAfter(string(c.Snapshot().EncodeBytes()), "\n") {
		switch {
		case strings.HasPrefix(line, "mufuzz-snapshot v"):
			v1.WriteString("mufuzz-snapshot v1\n")
		case strings.HasPrefix(line, "detector "):
			v1.WriteString(strings.Replace(line, " valueout=0", "", 1))
		case strings.HasPrefix(line, "strategy "):
			v1.WriteString(strings.Replace(line, " cmpfeed=1 dict=1", "", 1))
		case strings.HasPrefix(line, "options "):
			v1.WriteString(strings.Replace(line, " workers=1 batched=0 copystate=0 ", " workers=4 batched=1 copystate=1 ", 1))
		case strings.HasPrefix(line, "cmpop "):
			// v1 had no operand table
		default:
			v1.WriteString(line)
		}
	}
	if !strings.Contains(v1.String(), " workers=4 batched=1 copystate=1 ") {
		t.Fatal("options line lacks the workers/batched/copystate tokens")
	}
	snap, err := DecodeSnapshot(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatalf("v1 snapshot failed to decode: %v", err)
	}
	if snap.Options.Strategy.CmpFeedback || snap.Options.Strategy.MinedDictionary {
		t.Error("v1 snapshot must resume with the comparison-feedback flags off")
	}
	if len(snap.CmpOps) != 0 {
		t.Errorf("v1 snapshot decoded %d cmpop records from nowhere", len(snap.CmpOps))
	}
	resumed, err := ResumeCampaign(comp, snap)
	if err != nil {
		t.Fatalf("resume from v1: %v", err)
	}
	if enc := string(resumed.Snapshot().EncodeBytes()); !strings.Contains(enc, " workers=1 batched=0 ") {
		t.Error("campaign resumed from a workers=4 snapshot does not re-encode workers=1")
	}
	if res, done := resumed.RunSlice(context.Background(), 0); !done || res.Executions == 0 {
		t.Error("campaign resumed from v1 snapshot did not run to completion")
	}
}

// TestSnapshotRejectsWrongContract pins the code-hash guard.
func TestSnapshotRejectsWrongContract(t *testing.T) {
	compA := compileT(t, corpus.Crowdsale())
	compB := compileT(t, corpus.Game())
	c := NewCampaign(compA, Options{Strategy: MuFuzz(), Seed: 1, Iterations: 50})
	c.RunSlice(context.Background(), 1)
	if _, err := ResumeCampaign(compB, c.Snapshot()); err == nil {
		t.Fatal("resume with mismatched contract code must fail")
	}
}

// TestRunCtxCancellation pins the satellite behavior: a cancelled context
// stops the campaign cleanly before budget exhaustion, state stays
// snapshot-consistent, and a resume completes deterministically (resuming
// twice from the same snapshot gives identical results).
func TestRunCtxCancellation(t *testing.T) {
	comp := compileT(t, corpus.Crowdsale())
	opts := Options{Strategy: MuFuzz(), Seed: 5, Iterations: 5000}

	ctx, cancel := context.WithCancel(context.Background())
	cancelAfter := &cancellingObserver{cancel: cancel, after: 120}
	withObs := opts
	withObs.Observer = cancelAfter
	c := NewCampaign(comp, withObs)
	res := c.RunCtx(ctx)
	if res.Executions >= opts.Iterations {
		t.Fatalf("cancellation did not stop the campaign early (execs=%d)", res.Executions)
	}

	snapBytes := c.Snapshot().EncodeBytes()
	run := func() string {
		snap, err := DecodeSnapshot(bytes.NewReader(snapBytes))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		rc, err := ResumeCampaign(comp, snap)
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		return resultFingerprint(rc.Run())
	}
	if a, b := run(), run(); a != b {
		t.Errorf("resuming twice from one snapshot diverged\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// cancellingObserver cancels a context after a fixed number of executions —
// a deterministic stand-in for an external SIGINT.
type cancellingObserver struct {
	cancel context.CancelFunc
	after  int
	seen   int
}

func (c *cancellingObserver) OnExec(ExecRecord) {
	c.seen++
	if c.seen == c.after {
		c.cancel()
	}
}

// TestInjectSequences pins corpus cross-pollination: injected sequences are
// sanitized, executed against the budget, and interesting ones join the
// queue.
func TestInjectSequences(t *testing.T) {
	comp := compileT(t, corpus.Crowdsale())
	c := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 1, Iterations: 500})
	res, _ := c.RunSlice(context.Background(), 1)
	before := res.Executions

	donor := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 99, Iterations: 300})
	donor.Run()
	seqs := donor.QueueSequences()
	if len(seqs) == 0 {
		t.Fatal("donor campaign produced no queue seeds")
	}
	// Also check a hostile sequence is rejected rather than executed.
	bad := Sequence{{Func: "no_such_function"}}
	n := c.InjectSequences(append([]Sequence{bad}, seqs...))
	if n == 0 {
		t.Fatal("no donor sequences executed")
	}
	if n > len(seqs) {
		t.Fatalf("hostile sequence executed: %d > %d", n, len(seqs))
	}
	res2, _ := c.RunSlice(context.Background(), 0)
	if res2.Executions <= before {
		t.Fatal("injection did not count executions")
	}
	// Round-trip of the exchange payload format.
	enc := EncodeSequence(seqs[0])
	dec, err := DecodeSequence(enc)
	if err != nil {
		t.Fatalf("decode sequence: %v", err)
	}
	if !bytes.Equal(EncodeSequence(dec), enc) {
		t.Fatal("sequence encode/decode round trip not stable")
	}
}

// senderField matches the sender index of a tx line.
var senderField = regexp.MustCompile(`(?m)^(tx \S+) \d+ `)

// TestDecodeRejectsNegativeSender pins the shared tx parser's sender bound. A
// resumed negative sender would panic the next slice indexing the sender
// pool, so snapshots and corpus seeds both refuse it.
func TestDecodeRejectsNegativeSender(t *testing.T) {
	c := NewCampaign(compileT(t, corpus.CrowdsaleBuggy()), Options{Strategy: MuFuzz(), Seed: 1, Iterations: 300})
	if _, done := c.RunSlice(context.Background(), 2); done {
		t.Fatal("campaign finished before the snapshot point; grow the budget")
	}
	enc := c.Snapshot().EncodeBytes()
	if _, err := DecodeSnapshot(bytes.NewReader(enc)); err != nil {
		t.Fatalf("unmodified snapshot: %v", err)
	}
	bad := senderField.ReplaceAll(enc, []byte("$1 -1 "))
	if bytes.Equal(bad, enc) {
		t.Fatal("snapshot carries no tx line")
	}
	if _, err := DecodeSnapshot(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "bad sender") {
		t.Fatalf("snapshot with sender -1 decoded: err = %v", err)
	}
	for _, line := range strings.SplitAfter(string(bad), "\n") {
		if strings.HasPrefix(line, "tx ") {
			if _, err := DecodeSequence([]byte(line)); err == nil {
				t.Fatalf("sequence %q decoded", line)
			}
			break
		}
	}
}

// TestDecodeRejectsNegativeQueueCursor pins the bound on the progress
// counts. A resumed negative qi indexed the seed queue out of range and
// panicked the next slice in pickSeed; the decoder now refuses any negative
// count and names the field.
func TestDecodeRejectsNegativeQueueCursor(t *testing.T) {
	c := NewCampaign(compileT(t, corpus.CrowdsaleBuggy()), Options{Strategy: MuFuzz(), Seed: 1, Iterations: 2000})
	if _, done := c.RunSlice(context.Background(), 3); done {
		t.Fatal("campaign finished before the snapshot point; grow the budget")
	}
	enc := c.Snapshot().EncodeBytes()
	bad := regexp.MustCompile(` qi=\d+ `).ReplaceAll(enc, []byte(" qi=-300 "))
	if bytes.Equal(bad, enc) {
		t.Fatal("snapshot carries no qi field")
	}
	if _, err := DecodeSnapshot(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "negative qi") {
		t.Fatalf("snapshot with qi=-300 decoded: err = %v", err)
	}
}

// TestDecodeRejectsNonFixedParams pins the bound on the options line's
// fixed parameters: the engine runs only maxseq=8 gas=2000000 energybase=16
// initseeds=4, so a snapshot carrying any other value fails to decode and
// the error names the field.
func TestDecodeRejectsNonFixedParams(t *testing.T) {
	c := NewCampaign(compileT(t, corpus.CrowdsaleBuggy()), Options{Strategy: MuFuzz(), Seed: 1, Iterations: 2000})
	if _, done := c.RunSlice(context.Background(), 3); done {
		t.Fatal("campaign finished before the snapshot point; grow the budget")
	}
	enc := c.Snapshot().EncodeBytes()
	if _, err := DecodeSnapshot(bytes.NewReader(enc)); err != nil {
		t.Fatalf("unedited snapshot: %v", err)
	}
	for _, edit := range []struct{ from, to string }{
		{" maxseq=8 ", " maxseq=12 "},
		{" gas=2000000 ", " gas=30000000 "},
		{" energybase=16 ", " energybase=1000000 "},
		{" initseeds=4 ", " initseeds=0 "},
	} {
		bad := bytes.Replace(enc, []byte(edit.from), []byte(edit.to), 1)
		if bytes.Equal(bad, enc) {
			t.Fatalf("snapshot carries no %q", edit.from)
		}
		field := strings.TrimSpace(edit.to)
		if _, err := DecodeSnapshot(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("snapshot with %s decoded: err = %v", field, err)
		}
	}
}

// TestDecodeSequenceRejectsOverlongLine pins that a line past the scanner's
// bound fails the decode instead of silently ending the sequence early.
func TestDecodeSequenceRejectsOverlongLine(t *testing.T) {
	payload := "tx invest 0 0x0 -\ntx invest 0 0x0 " + strings.Repeat("ab", 4<<20) + "\n"
	if seq, err := DecodeSequence([]byte(payload)); err == nil {
		t.Fatalf("over-long line decoded to %d transactions", len(seq))
	}
}

// TestLineReaderStopsAtFirstError pins that errors are sticky: once an
// Expect fails, Next refuses even the line that Expect looked at, and Close
// returns the first error.
func TestLineReaderStopsAtFirstError(t *testing.T) {
	r := NewLineReader(strings.NewReader("tx invest 0 0x0 -\n"), "test", 64)
	r.Expect("header")
	if r.Next("tx") {
		t.Fatal("Next accepted a line after the first error")
	}
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), `want a "header" line`) {
		t.Fatalf("Close = %v, want the failed Expect's error", err)
	}
}

// checkAgainstReference holds a decoder to its reference, the Sscanf
// decoder it replaced, on one input: what the decoder accepts, the
// reference accepts with a deeply equal value, and what the reference
// accepts and re-encodes to the input bytes, the decoder accepts too.
// DeepEqual calls NaN unequal to itself, so values decoded from an input
// that carries a NaN float compare by their encodings.
func checkAgainstReference[T any](t *testing.T, data []byte, got T, err error, want T, refErr error, encode func(T) []byte) {
	t.Helper()
	switch {
	case err == nil && refErr != nil:
		t.Fatalf("decoded an input the reference refuses (%v):\n%q", refErr, data)
	case err == nil && !reflect.DeepEqual(got, want) &&
		!(bytes.Contains(data, []byte("NaN")) && bytes.Equal(encode(got), encode(want))):
		t.Fatalf("decoded value differs from the reference's:\ngot  %+v\nwant %+v", got, want)
	case err != nil && refErr == nil && bytes.Equal(encode(want), data):
		t.Fatalf("refused a canonical input the reference accepts: %v", err)
	}
}

// FuzzDecodeSequence checks the shared tx-line codec on arbitrary payloads:
// DecodeSequence agrees with its reference, whatever decodes has
// non-negative sender and callee indexes, and encoding it decodes back to
// the same sequence. The last seeds are non-canonical forms the reference
// reads and DecodeSequence refuses.
func FuzzDecodeSequence(f *testing.F) {
	f.Add([]byte("tx invest 1 0x2a 00ff\n"))
	f.Add([]byte("tx __ctor 0 0x0 - 0 01d0e30db0010000\ntx erc20.mint 1 0x0 00aa 1 -\n"))
	f.Add([]byte("tx invest -1 0x0 -\n"))
	for _, s := range []string{"tx invest 1 -5 -", "tx invest 1 0x_1_0 -", "tx invest +1 0x2a -", "tx invest 1 0x2A 00FF",
		"tx invest 1 0x0 -\r", "tx  invest 1 0x0 -", "tx invest 1 0x0 - 0 -", "tx invest 1 0x0 -\n"} {
		f.Add([]byte(s + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, err := DecodeSequence(data)
		ref, refErr := refDecodeSequence(data)
		checkAgainstReference(t, data, seq, err, ref, refErr, EncodeSequence)
		if err != nil {
			return
		}
		for i, tx := range seq {
			if tx.Sender < 0 || tx.Callee < 0 {
				t.Fatalf("tx %d: negative index decoded: %+v", i, tx)
			}
		}
		enc := EncodeSequence(seq)
		again, err := DecodeSequence(enc)
		if err != nil {
			t.Fatalf("re-decode of %q: %v", enc, err)
		}
		if !reflect.DeepEqual(again, seq) {
			t.Fatalf("round trip changed the sequence:\nfirst  %+v\nsecond %+v", seq, again)
		}
	})
}

// FuzzDecodeSnapshot checks the snapshot decoder on arbitrary bytes: it
// agrees with its reference, and any input that decodes re-encodes to bytes
// that decode and re-encode to the same bytes. The seeds are a plain and a
// world campaign's mid-run snapshots, the plain one in its v1 form, and
// non-canonical edits of it that the reference reads and DecodeSnapshot
// refuses. It decodes only: resuming replays the rngdraws= count one draw at
// a time, so a fuzzed count would stall the target.
func FuzzDecodeSnapshot(f *testing.F) {
	plain := NewCampaign(compileT(f, corpus.CrowdsaleBuggy()), Options{Strategy: MuFuzz(), Seed: 1, Iterations: 300})
	world := NewCampaign(compileT(f, corpus.Crowdsale()), Options{Strategy: MuFuzz(), Seed: 5, Iterations: 500,
		World: &WorldOptions{Members: []WorldMember{{Name: "token", Target: MinisolTarget(compileT(f, corpus.Token()))}}}})
	for _, c := range []*Campaign{plain, world} {
		if _, done := c.RunSlice(context.Background(), 2); done {
			f.Fatal("campaign finished before the snapshot point; grow the budget")
		}
		f.Add(c.Snapshot().EncodeBytes())
	}
	enc := plain.Snapshot().EncodeBytes()
	v1 := regexp.MustCompile(`(?m) cmpfeed=\d dict=\d$| valueout=\d$|^cmpop .*\n`).ReplaceAll(enc, nil)
	f.Add(bytes.Replace(v1, []byte("mufuzz-snapshot v3\n"), []byte("mufuzz-snapshot v1\n"), 1))
	for _, edit := range []struct{ from, to string }{
		{" mask=1 ", " mask=+1 "},
		{" nocache=0 ", " nocache=7 "},
		{" qi=", " qi=0"},
		{"\ntx ", "\ntx  "},
		{" 0x0 ", " 0X0 "},
		{"\neof\n", "\neof\ntrailing\n"},
		{"\ndetector ", "\r\ndetector "},
	} {
		bad := bytes.Replace(enc, []byte(edit.from), []byte(edit.to), 1)
		if bytes.Equal(bad, enc) {
			f.Fatalf("snapshot carries no %q", edit.from)
		}
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(bytes.NewReader(data))
		ref, refErr := refDecodeSnapshot(bytes.NewReader(data))
		checkAgainstReference(t, data, snap, err, ref, refErr, (*Snapshot).EncodeBytes)
		if err != nil {
			return
		}
		enc := snap.EncodeBytes()
		again, err := DecodeSnapshot(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode of the re-encoding: %v\n%s", err, enc)
		}
		if enc2 := again.EncodeBytes(); !bytes.Equal(enc2, enc) {
			t.Fatalf("encode is not a fixpoint:\nfirst  %q\nsecond %q", enc, enc2)
		}
	})
}
