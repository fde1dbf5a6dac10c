package conformance

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"mufuzz/internal/corpus"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/minisol"
)

// diffContracts are the corpus contracts the differential matrix runs over
// in tests: the two motivating contracts plus a labelled reentrancy case, so
// the matrix exercises deep sequences, oracle reports, and checkpoint hits.
func diffContracts(t *testing.T) map[string]*minisol.Compiled {
	t.Helper()
	sources := map[string]string{
		"crowdsale":       corpus.Crowdsale(),
		"crowdsale-buggy": corpus.CrowdsaleBuggy(),
	}
	for _, l := range corpus.SWCSuite() {
		if l.Name == "re_swc107_crossfn" {
			sources[l.Name] = l.Source
		}
	}
	if len(sources) != 3 {
		t.Fatal("re_swc107_crossfn missing from SWC suite")
	}
	out := make(map[string]*minisol.Compiled, len(sources))
	for name, src := range sources {
		comp, err := minisol.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = comp
	}
	return out
}

func baseOptions(seed int64, iters int) fuzz.Options {
	return fuzz.Options{
		Strategy:   fuzz.MuFuzz(),
		Seed:       seed,
		Iterations: iters,
	}
}

func TestTranscriptEncodeDecodeRoundTrip(t *testing.T) {
	comp, err := minisol.Compile(corpus.Crowdsale())
	if err != nil {
		t.Fatal(err)
	}
	run := RecordCampaign("crowdsale", comp, baseOptions(3, 120))
	enc := run.Transcript.EncodeBytes()
	dec, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(enc, dec.EncodeBytes()) {
		t.Error("encode(decode(encode(t))) != encode(t)")
	}
	// Transcripts recorded under the retired batched and copystate options
	// still decode; the flags are ignored and re-encode as 0.
	old := bytes.Replace(enc, []byte(" batched=0 copystate=0 "), []byte(" batched=1 copystate=1 "), 1)
	if bytes.Equal(old, enc) {
		t.Fatal("options line lacks the batched/copystate tokens")
	}
	if decOld, err := Decode(bytes.NewReader(old)); err != nil {
		t.Errorf("decode with retired flags set: %v", err)
	} else if !bytes.Equal(enc, decOld.EncodeBytes()) {
		t.Error("retired flags were not ignored on decode")
	}
	if len(dec.Records) != run.Result.Executions {
		t.Errorf("decoded %d records, campaign ran %d executions", len(dec.Records), run.Result.Executions)
	}
	// the decoded sequences must rebuild into the originals
	for i := range dec.Records {
		if got, want := callOrder(dec.Records[i].Seq), callOrder(run.Transcript.Records[i].Seq); got != want {
			t.Fatalf("record %d: sequence %q != %q", i, got, want)
		}
	}
}

// TestDecodeRejectsNegativeSender pins that transcripts share the engine's
// tx parser: a negative sender index, which would panic a replay, fails
// Decode like it fails a snapshot or a corpus seed.
func TestDecodeRejectsNegativeSender(t *testing.T) {
	comp, err := minisol.Compile(corpus.Crowdsale())
	if err != nil {
		t.Fatal(err)
	}
	enc := RecordCampaign("crowdsale", comp, baseOptions(3, 40)).Transcript.EncodeBytes()
	bad := regexp.MustCompile(`(?m)^(tx \S+) \d+ `).ReplaceAll(enc, []byte("$1 -1 "))
	if bytes.Equal(bad, enc) {
		t.Fatal("transcript carries no tx line")
	}
	if _, err := Decode(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "bad sender") {
		t.Fatalf("transcript with sender -1 decoded: err = %v", err)
	}
}

// TestDecodeRejectsNonFixedParams pins that a transcript's options line
// must carry the engine's fixed parameters (maxseq=8 gas=2000000 energy=16
// initseeds=4): a transcript recorded under any other value cannot replay,
// so Decode refuses it and names the field.
func TestDecodeRejectsNonFixedParams(t *testing.T) {
	comp, err := minisol.Compile(corpus.Crowdsale())
	if err != nil {
		t.Fatal(err)
	}
	enc := RecordCampaign("crowdsale", comp, baseOptions(3, 40)).Transcript.EncodeBytes()
	for _, edit := range []struct{ from, to string }{
		{" maxseq=8 ", " maxseq=12 "},
		{" gas=2000000 ", " gas=30000000 "},
		{" energy=16 ", " energy=1000000 "},
		{" initseeds=4 ", " initseeds=0 "},
	} {
		bad := bytes.Replace(enc, []byte(edit.from), []byte(edit.to), 1)
		if bytes.Equal(bad, enc) {
			t.Fatalf("transcript carries no %q", edit.from)
		}
		field := strings.TrimSpace(edit.to)
		if _, err := Decode(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("transcript with %s decoded: err = %v", field, err)
		}
	}
}

// TestRecordedReplayByteIdentical is the record/replay pin: replaying a full
// campaign's transcript through the engine must reproduce it byte for byte.
func TestRecordedReplayByteIdentical(t *testing.T) {
	for name, comp := range diffContracts(t) {
		run := RecordCampaign(name, comp, baseOptions(1, 250))
		replayed, d := ReplayCheck(fuzz.MinisolTarget(comp), nil, run.Transcript)
		if d != nil {
			t.Errorf("%s: replay diverged: %s", name, d)
		}
		if !bytes.Equal(run.Transcript.EncodeBytes(), replayed.Transcript.EncodeBytes()) {
			t.Errorf("%s: replay transcript bytes differ", name)
		}
	}
}

// TestVerifySequences re-executes every recorded claim through a detached
// engine.
func TestVerifySequences(t *testing.T) {
	for name, comp := range diffContracts(t) {
		run := RecordCampaign(name, comp, baseOptions(5, 250))
		if err := VerifySequences(run.Campaign, run.Transcript); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestDifferentialMatrix proves the engine-variant equivalences on three
// corpus contracts: the engine with the cache on/off and the IR on/off must
// be execution-for-execution identical (two pairs per contract).
func TestDifferentialMatrix(t *testing.T) {
	for name, comp := range diffContracts(t) {
		results := DifferentialMatrix(name, comp, baseOptions(1, 250))
		if len(results) != 2 {
			t.Errorf("%s: %d pairs, want 2", name, len(results))
		}
		for _, r := range results {
			if !r.Equal {
				t.Errorf("%s: %s vs %s: %s", r.Contract, r.Variant, r.Reference, r.Divergence)
			}
		}
	}
}

// TestCmpFeedbackAblationConformance pins the comparison-feedback ablation
// through the conformance machinery: transcripts store strategies by name
// only, so the "MuFuzz w/o comparison feedback" variant must resolve through
// lookupStrategy, record/replay byte-identically, and stay execution-for-
// execution identical across engine variants with the flags off — the same
// guarantees the default enjoys with them on.
func TestCmpFeedbackAblationConformance(t *testing.T) {
	s, ok := lookupStrategy("MuFuzz w/o comparison feedback")
	if !ok {
		t.Fatal("ablation not resolvable by name")
	}
	if s.CmpFeedback || s.MinedDictionary {
		t.Fatalf("ablation must disable both feedback flags: %+v", s)
	}
	for name, comp := range diffContracts(t) {
		opts := baseOptions(9, 200)
		opts.Strategy = s
		run := RecordCampaign(name, comp, opts)
		if _, d := ReplayCheck(fuzz.MinisolTarget(comp), nil, run.Transcript); d != nil {
			t.Errorf("%s: ablation transcript does not replay: %v", name, d)
		}
		for _, r := range DifferentialMatrix(name, comp, opts) {
			if !r.Equal {
				t.Errorf("%s: %s vs %s: %s", r.Contract, r.Variant, r.Reference, r.Divergence)
			}
		}
	}
}

// TestStrategyMatrixShape sanity-checks the informational preset diff.
func TestStrategyMatrixShape(t *testing.T) {
	comp, err := minisol.Compile(corpus.Crowdsale())
	if err != nil {
		t.Fatal(err)
	}
	rows := StrategyMatrix("crowdsale", comp, baseOptions(1, 200))
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 presets", len(rows))
	}
	if rows[0].Strategy != "MuFuzz" || rows[0].EdgesOnlyHere != 0 || rows[0].EdgesOnlyRef != 0 {
		t.Errorf("reference row should self-diff clean: %+v", rows[0])
	}
	var buf bytes.Buffer
	PrintStrategies(&buf, "crowdsale", rows)
	if buf.Len() == 0 {
		t.Error("printer produced nothing")
	}
}

// TestDiffReportsFirstDivergence checks divergence minimization: two
// campaigns with different seeds must diverge, and the reported index must
// be the first record where the transcripts disagree.
func TestDiffReportsFirstDivergence(t *testing.T) {
	comp, err := minisol.Compile(corpus.Crowdsale())
	if err != nil {
		t.Fatal(err)
	}
	a := RecordCampaign("crowdsale", comp, baseOptions(1, 150))
	b := RecordCampaign("crowdsale", comp, baseOptions(2, 150))
	d := Diff(a.Transcript, b.Transcript)
	if d == nil {
		t.Fatal("different seeds produced identical transcripts")
	}
	if d.Kind != "record" {
		t.Fatalf("kind = %s, want record", d.Kind)
	}
	for i := 0; i < d.Index-1; i++ {
		if renderRecord(&a.Transcript.Records[i]) != renderRecord(&b.Transcript.Records[i]) {
			t.Fatalf("record %d already diverges, reported index %d is not minimal", i+1, d.Index)
		}
	}
	if renderRecord(&a.Transcript.Records[d.Index-1]) == renderRecord(&b.Transcript.Records[d.Index-1]) {
		t.Fatal("reported divergent record is identical")
	}
}
