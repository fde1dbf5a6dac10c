// Package conformance is the repo's machine-checked correctness story for
// the fuzzing engine. After aggressive engine refactors (the executor split,
// the copy-on-write state layer, the compiled IR, the checkpoint cache), a
// single golden fingerprint is not enough of a semantic pin. This package
// provides three instruments:
//
//   - Deterministic campaign transcripts: a versioned, byte-stable recording
//     of every execution a campaign performed — the engine's own
//     fuzz.ExecRecord: the sequence run, the coverage delta, the oracle
//     classes discovered — replayable to a byte-identical re-recording
//     (Record / ReplayCheck) and re-executable through a detached engine for
//     independent verification (VerifySequences).
//
//   - A differential runner (DifferentialMatrix) that executes the same
//     (contract, seed, budget) under an equivalence class of engine
//     variants — seq-w1 against seq-w1-nocache and seq-w1-noir — and
//     proves their coverage sets, crash sets, and detector output
//     identical, with minimized divergence reports when they are not.
//     (State.Fork ≡ State.Copy is checked below the campaign level.)
//     StrategyMatrix runs the five strategy presets and diffs their
//     (intentionally different) results for inspection.
//
//   - Wiring for the corpus-wide detection gates in internal/experiments:
//     see experiments.DetectionGate.
//
// Every future perf PR gets an equivalence proof instead of hand-inspection.
package conformance

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"mufuzz/internal/fuzz"
	"mufuzz/internal/oracle"
)

// Version is the transcript format version this package reads and writes.
const Version = 1

// magic is the first line of every encoded transcript.
const magic = "mufuzz-transcript"

// OptionsSummary pins the campaign configuration a transcript was recorded
// under: the defaults-applied form of every Options field that influences
// the deterministic schedule. Strategy is recorded by preset name only
// (replay resolves it through StrategyByName), and TimeBudget is absent by
// construction — RecordCampaign rejects wall-clock-bounded campaigns.
type OptionsSummary struct {
	Strategy      string
	Seed          int64
	Iterations    int
	NoPrefixCache bool
	// World summarizes a multi-contract world ("member,member;attacker"),
	// empty for single-contract campaigns. The live member targets and
	// attacker model are not replayable from a transcript alone; the token
	// pins that a world was in play and its shape.
	World string
}

// Summary captures the deterministic portion of a campaign's final Result,
// plus the full covered-edge set (the coverage outcome the differential
// runner diffs).
type Summary struct {
	CoveredEdges     int
	TotalEdges       int
	Executions       int
	SeedQueueLen     int
	MasksComputed    int
	SequencesMutated int
	Classes          []string // sorted bug classes
	Findings         []string // sorted "CLASS|PC|description" lines
	Repro            []string // sorted "CLASS fn>fn>fn" proof-of-concept call orders
	Edges            []fuzz.BranchEdge
}

// Transcript is a complete deterministic recording of one campaign: one
// fuzz.ExecRecord per execution, in execution order, and the final summary.
type Transcript struct {
	Version  int
	Contract string
	Options  OptionsSummary
	Records  []fuzz.ExecRecord
	Final    Summary
}

// SummarizeOptions projects the schedule-relevant fields of fuzz.Options
// into the transcript's options line. The caller must pass the
// defaults-applied form (Options.Normalized()); RecordCampaign normalizes
// before recording, and fleet coordinators and workers derive it from the
// campaign spec, so a fleet transcript pins the configuration exactly as
// RecordTargetCampaign would.
func SummarizeOptions(o fuzz.Options) OptionsSummary {
	return OptionsSummary{
		Strategy:      o.Strategy.Name,
		Seed:          o.Seed,
		Iterations:    o.Iterations,
		NoPrefixCache: o.NoPrefixCache,
		World:         worldToken(o.World),
	}
}

// worldToken renders a world configuration as the options-line token:
// member names in declaration order, ";attacker" appended when attacker
// synthesis is on. Empty for plain campaigns.
func worldToken(w *fuzz.WorldOptions) string {
	if w == nil {
		return ""
	}
	names := make([]string, len(w.Members))
	for i, m := range w.Members {
		names[i] = m.Name
	}
	s := strings.Join(names, ",")
	if w.Attacker != nil {
		s += ";attacker"
	}
	return s
}

// sortEdges orders a covered-edge set canonically (PC ascending, not-taken
// before taken) — the same deterministic branch order the engine uses.
func sortEdges(edges []fuzz.BranchEdge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].PC != edges[j].PC {
			return edges[i].PC < edges[j].PC
		}
		return !edges[i].Taken && edges[j].Taken
	})
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Encode writes the transcript in the stable v1 text encoding. Encoding the
// same transcript always produces the same bytes, so byte equality of two
// encodings is the package's definition of "identical campaigns".
func (t *Transcript) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	_, _ = bw.Write(appendHeader(nil, t.Version, t.Contract, t.Options))
	for i := range t.Records {
		encodeRecord(bw, &t.Records[i])
	}
	_, _ = bw.Write(AppendFinal(nil, &t.Final))
	return bw.Flush()
}

// AppendHeader appends a transcript's header — the magic, contract and
// options lines — to dst, exactly as Encode writes it. The header, the
// record chunks of a campaign's slices (EncodeRecords) in commit order, and
// AppendFinal's trailer, concatenated, are the bytes Encode writes for the
// same campaign: that is how the fleet coordinator writes a transcript as
// its slices commit, without re-encoding a record.
func AppendHeader(dst []byte, contract string, o OptionsSummary) []byte {
	return appendHeader(dst, Version, contract, o)
}

func appendHeader(dst []byte, version int, contract string, o OptionsSummary) []byte {
	dst = fmt.Appendf(dst, "%s v%d\n", magic, version)
	dst = fmt.Appendf(dst, "contract %s\n", contract)
	// workers=, batched= and copystate= name retired engine options; they
	// stay in the line, always 1, 0 and 0, so committed transcripts and their
	// hashes are unchanged. maxseq=, gas=, energy= and initseeds= print the
	// engine's fixed parameters.
	dst = fmt.Appendf(dst, "options strategy=%q seed=%d iters=%d maxseq=%d gas=%d energy=%d initseeds=%d workers=1 batched=0 copystate=0 nocache=%d",
		o.Strategy, o.Seed, o.Iterations, fuzz.MaxSeqLen, fuzz.GasPerTx, fuzz.EnergyBase,
		fuzz.InitialSeeds, boolBit(o.NoPrefixCache))
	if o.World != "" {
		dst = fmt.Appendf(dst, " world=%q", o.World)
	}
	return append(dst, '\n')
}

// AppendFinal appends a transcript's trailer — the final summary, through
// the eof line — to dst, exactly as Encode writes it.
func AppendFinal(dst []byte, f *Summary) []byte {
	dst = fmt.Appendf(dst, "final covered=%d total=%d execs=%d queue=%d masks=%d seqmut=%d\n",
		f.CoveredEdges, f.TotalEdges, f.Executions, f.SeedQueueLen, f.MasksComputed, f.SequencesMutated)
	dst = fmt.Appendf(dst, "classes %s\n", strings.Join(f.Classes, ","))
	for _, fd := range f.Findings {
		dst = fmt.Appendf(dst, "finding %s\n", fd)
	}
	for _, rp := range f.Repro {
		dst = fmt.Appendf(dst, "repro %s\n", rp)
	}
	for _, e := range f.Edges {
		dst = fmt.Appendf(dst, "fedge %d %d\n", e.PC, boolBit(e.Taken))
	}
	return append(dst, "eof\n"...)
}

// encodeRecord writes one record's canonical lines — the unit both the full
// Encode and per-record divergence rendering share, so record comparison can
// never drift from the on-disk format. Records are the bulk of every
// transcript and fleet workers encode one per execution, so the lines are
// built with manual appends rather than fmt (≈5× cheaper, identical bytes).
// Transactions use fuzz.AppendTx, the line snapshots and seeds carry too.
func encodeRecord(w io.Writer, r *fuzz.ExecRecord) {
	buf := make([]byte, 0, 64+len(r.Seq)*48+len(r.NewEdges)*12)
	buf = append(buf, "rec "...)
	buf = strconv.AppendInt(buf, int64(r.Index), 10)
	buf = append(buf, " nested="...)
	buf = strconv.AppendInt(buf, int64(r.NestedDepth), 10)
	buf = append(buf, " dist="...)
	buf = strconv.AppendInt(buf, int64(boolBit(r.DistImproved)), 10)
	buf = append(buf, " covered="...)
	buf = strconv.AppendInt(buf, int64(r.CoveredAfter), 10)
	buf = append(buf, '\n')
	for i := range r.Seq {
		buf = fuzz.AppendTx(buf, &r.Seq[i])
	}
	for _, e := range r.NewEdges {
		buf = append(buf, "edge "...)
		buf = strconv.AppendUint(buf, e.PC, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(boolBit(e.Taken)), 10)
		buf = append(buf, '\n')
	}
	for _, c := range r.NewClasses {
		buf = append(buf, "class "...)
		buf = append(buf, c...)
		buf = append(buf, '\n')
	}
	buf = append(buf, "end\n"...)
	_, _ = w.Write(buf)
}

// EncodeBytes renders the transcript to its canonical byte form.
func (t *Transcript) EncodeBytes() []byte {
	var buf bytes.Buffer
	_ = t.Encode(&buf)
	return buf.Bytes()
}

// decodeErr wraps a record-chunk scanning failure with the offending line.
func decodeErr(line string, format string, args ...any) error {
	return fmt.Errorf("conformance: decode %q: %s", line, fmt.Sprintf(format, args...))
}

// Decode parses a transcript from its v1 text encoding, through the line
// reader snapshots and corpus seeds share: header, options, the record
// section, and the final summary, in the order Encode writes them.
func Decode(rd io.Reader) (*Transcript, error) {
	r := fuzz.NewLineReader(rd, "conformance: decode transcript", 1<<22)
	t := &Transcript{Version: r.Header(magic, Version)}
	r.Expect("contract")
	t.Contract = r.Rest("contract")

	r.Expect("options")
	o := &t.Options
	o.Strategy = r.Quoted("strategy=")
	o.Seed = r.Int64("seed=")
	o.Iterations = r.Int("iters=")
	o.NoPrefixCache = r.EngineOptions("energy=")
	if r.More() {
		// Member names carry no whitespace, and a plain campaign's
		// transcript has no world token.
		if o.World = r.Quoted("world="); o.World == "" || strings.Contains(o.World, " ") {
			r.Fail("bad world %q", o.World)
		}
	}
	if _, ok := lookupStrategy(o.Strategy); !ok {
		r.Fail("unknown strategy %q", o.Strategy)
	}

	t.Records = readRecords(r)

	r.Expect("final")
	f := &t.Final
	f.CoveredEdges = r.Int("covered=")
	f.TotalEdges = r.Int("total=")
	f.Executions = r.Int("execs=")
	f.SeedQueueLen = r.Int("queue=")
	f.MasksComputed = r.Int("masks=")
	f.SequencesMutated = r.Int("seqmut=")
	r.Expect("classes")
	if classes := r.Rest("classes"); classes != "" {
		f.Classes = strings.Split(classes, ",")
	}
	for r.Next("finding") {
		f.Findings = append(f.Findings, r.Rest("finding"))
	}
	for r.Next("repro") {
		f.Repro = append(f.Repro, r.Rest("repro"))
	}
	for r.Next("fedge") {
		f.Edges = append(f.Edges, r.Edge())
	}
	r.Expect("eof")
	if err := r.Close(); err != nil {
		return nil, err
	}
	return t, nil
}

// readRecords reads a record section — the concatenation of the record
// chunks fleet workers ship — into fuzz.ExecRecords: each rec line, then
// its tx, edge and class lines, then end.
func readRecords(r *fuzz.LineReader) []fuzz.ExecRecord {
	var records []fuzz.ExecRecord
	for r.Next("rec") {
		rec := fuzz.ExecRecord{
			Index: r.Int("index"), NestedDepth: r.Int("nested="), DistImproved: r.Flag("dist="),
			CoveredAfter: r.Int("covered="), Seq: r.TxBlock(),
		}
		for r.Next("edge") {
			rec.NewEdges = append(rec.NewEdges, r.Edge())
		}
		for r.Next("class") {
			rec.NewClasses = append(rec.NewClasses, oracle.BugClass(r.Token("class")))
		}
		r.Expect("end")
		records = append(records, rec)
	}
	return records
}

// EncodeRecords renders a record slice in the canonical record-line encoding
// — the transcript chunk a fleet worker returns with each completed slice.
// Concatenating every slice's chunk in commit order reproduces the record
// section of the uninterrupted campaign's transcript byte for byte.
func EncodeRecords(records []fuzz.ExecRecord) []byte {
	var buf bytes.Buffer
	for i := range records {
		encodeRecord(&buf, &records[i])
	}
	return buf.Bytes()
}

// ChunkStats summarizes an EncodeRecords chunk: the first and last record
// indexes and the record count. Zero-valued for an empty chunk.
type ChunkStats struct {
	First int
	Last  int
	Count int
}

// ScanRecordChunk shallowly validates a record chunk — line grammar
// (rec/tx/edge/class/end prefixes) and rec/end nesting — and extracts the
// record indexes, without parsing transaction payloads. The fleet
// coordinator runs it on every slice commit to check chunk continuity;
// transcript Decode is the full parse, of the whole transcript.
func ScanRecordChunk(data []byte) (ChunkStats, error) {
	var st ChunkStats
	inRec := false
	for len(data) > 0 {
		line := data
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line = data[:nl]
			data = data[nl+1:]
		} else {
			data = nil
		}
		switch {
		case bytes.HasPrefix(line, []byte("rec ")):
			if inRec {
				return st, decodeErr(string(line), "rec inside rec")
			}
			rest := line[4:]
			sp := bytes.IndexByte(rest, ' ')
			if sp < 0 {
				return st, decodeErr(string(line), "bad rec")
			}
			idx, err := strconv.Atoi(string(rest[:sp]))
			if err != nil {
				return st, decodeErr(string(line), "bad rec index: %v", err)
			}
			if st.Count == 0 {
				st.First = idx
			}
			st.Last = idx
			st.Count++
			inRec = true
		case bytes.Equal(line, []byte("end")):
			if !inRec {
				return st, decodeErr(string(line), "end outside rec")
			}
			inRec = false
		case bytes.HasPrefix(line, []byte("tx ")),
			bytes.HasPrefix(line, []byte("edge ")),
			bytes.HasPrefix(line, []byte("class ")):
			if !inRec {
				return st, decodeErr(string(line), "record line outside rec")
			}
		default:
			return st, decodeErr(string(line), "unexpected line in record chunk")
		}
	}
	if inRec {
		return st, decodeErr("", "truncated record chunk (no end)")
	}
	return st, nil
}
