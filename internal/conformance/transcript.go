// Package conformance is the repo's machine-checked correctness story for
// the fuzzing engine. After two aggressive engine refactors (the parallel
// coordinator/executor split and the copy-on-write state layer), a single
// workers=1 golden fingerprint is not enough of a semantic pin. This package
// provides three instruments:
//
//   - Deterministic campaign transcripts: a versioned, byte-stable recording
//     of every execution a campaign performed — the sequence run, the
//     coverage delta, the oracle classes discovered — replayable to a
//     byte-identical re-recording (Record / ReplayCheck) and re-executable
//     through a detached engine for independent verification
//     (VerifySequences).
//
//   - A differential runner (DifferentialMatrix) that executes the same
//     (contract, seed, budget) under engine variants — workers ∈ {1, N},
//     State.Fork vs State.Copy, prefix cache on/off — and proves their
//     coverage sets, crash sets, and detector output identical, with
//     minimized divergence reports when they are not. StrategyMatrix runs
//     the five strategy presets and diffs their (intentionally different)
//     results for inspection.
//
//   - Wiring for the corpus-wide detection gates in internal/experiments:
//     see experiments.DetectionGate.
//
// Every future perf PR gets an equivalence proof instead of hand-inspection.
package conformance

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
	"sort"
	"strconv"
	"strings"

	"mufuzz/internal/fuzz"
	"mufuzz/internal/oracle"
	"mufuzz/internal/u256"
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
	MaxSeqLen     int
	GasPerTx      uint64
	EnergyBase    int
	InitialSeeds  int
	Workers       int
	NoPrefixCache bool
	// World summarizes a multi-contract world ("member,member;attacker"),
	// empty for single-contract campaigns. The live member targets and
	// attacker model are not replayable from a transcript alone; the token
	// pins that a world was in play and its shape.
	World string
}

// Tx is the serialized form of one transaction of a recorded sequence.
// Callee and Attacker are the multi-contract world extensions: plain
// transactions keep both at their zero values and serialize in the
// historical 5-field line form.
type Tx struct {
	Func     string
	Args     []byte
	Value    u256.Int
	Sender   int
	Callee   int
	Attacker []byte
}

// Record is the serialized form of one fuzz.ExecRecord.
type Record struct {
	Index        int
	Seq          []Tx
	NewEdges     []fuzz.BranchEdge
	CoveredAfter int
	NestedDepth  int
	DistImproved bool
	NewClasses   []string
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

// Transcript is a complete deterministic recording of one campaign.
type Transcript struct {
	Version  int
	Contract string
	Options  OptionsSummary
	Records  []Record
	Final    Summary
}

// summarizeOptions projects the schedule-relevant fields of fuzz.Options.
// The Options must already have defaults applied the way the campaign sees
// them; RecordCampaign normalizes before recording.
func summarizeOptions(o fuzz.Options) OptionsSummary {
	return OptionsSummary{
		Strategy:      o.Strategy.Name,
		Seed:          o.Seed,
		Iterations:    o.Iterations,
		MaxSeqLen:     o.MaxSeqLen,
		GasPerTx:      o.GasPerTx,
		EnergyBase:    o.EnergyBase,
		InitialSeeds:  o.InitialSeeds,
		Workers:       o.Workers,
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

// sequenceToTxs converts an engine sequence into its serialized form.
func sequenceToTxs(seq fuzz.Sequence) []Tx {
	out := make([]Tx, len(seq))
	for i, t := range seq {
		out[i] = Tx{
			Func:     t.Func,
			Args:     append([]byte(nil), t.Args...),
			Value:    t.Value,
			Sender:   t.Sender,
			Callee:   t.Callee,
			Attacker: append([]byte(nil), t.Attacker...),
		}
	}
	return out
}

// Sequence rebuilds the engine sequence of a record (for standalone replay).
func (r *Record) Sequence() fuzz.Sequence {
	seq := make(fuzz.Sequence, len(r.Seq))
	for i, t := range r.Seq {
		seq[i] = fuzz.TxInput{
			Func:     t.Func,
			Args:     append([]byte(nil), t.Args...),
			Value:    t.Value,
			Sender:   t.Sender,
			Callee:   t.Callee,
			Attacker: append([]byte(nil), t.Attacker...),
		}
	}
	return seq
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

func hexOrDash(b []byte) string {
	if len(b) == 0 {
		return "-"
	}
	return hex.EncodeToString(b)
}

// Encode writes the transcript in the stable v1 text encoding. Encoding the
// same transcript always produces the same bytes, so byte equality of two
// encodings is the package's definition of "identical campaigns".
func (t *Transcript) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	encodeHeader(bw, t.Version, t.Contract, t.Options)
	for i := range t.Records {
		encodeRecord(bw, &t.Records[i])
	}
	encodeFinal(bw, &t.Final)
	return bw.Flush()
}

// encodeHeader writes the magic, contract, and options lines — shared by
// Encode and EncodeAssembled so assembled transcripts can never drift from
// the canonical header format.
func encodeHeader(bw *bufio.Writer, version int, contract string, o OptionsSummary) {
	fmt.Fprintf(bw, "%s v%d\n", magic, version)
	fmt.Fprintf(bw, "contract %s\n", contract)
	// batched= and copystate= name retired engine options; they stay in the
	// line, always 0, so committed transcripts and their hashes are unchanged.
	fmt.Fprintf(bw, "options strategy=%q seed=%d iters=%d maxseq=%d gas=%d energy=%d initseeds=%d workers=%d batched=0 copystate=0 nocache=%d",
		o.Strategy, o.Seed, o.Iterations, o.MaxSeqLen, o.GasPerTx, o.EnergyBase,
		o.InitialSeeds, o.Workers, boolBit(o.NoPrefixCache))
	if o.World != "" {
		fmt.Fprintf(bw, " world=%q", o.World)
	}
	fmt.Fprintf(bw, "\n")
}

// encodeFinal writes the final-summary trailer — shared by Encode and
// EncodeAssembled.
func encodeFinal(bw *bufio.Writer, f *Summary) {
	fmt.Fprintf(bw, "final covered=%d total=%d execs=%d queue=%d masks=%d seqmut=%d\n",
		f.CoveredEdges, f.TotalEdges, f.Executions, f.SeedQueueLen, f.MasksComputed, f.SequencesMutated)
	fmt.Fprintf(bw, "classes %s\n", strings.Join(f.Classes, ","))
	for _, fd := range f.Findings {
		fmt.Fprintf(bw, "finding %s\n", fd)
	}
	for _, rp := range f.Repro {
		fmt.Fprintf(bw, "repro %s\n", rp)
	}
	for _, e := range f.Edges {
		fmt.Fprintf(bw, "fedge %d %d\n", e.PC, boolBit(e.Taken))
	}
	fmt.Fprintf(bw, "eof\n")
}

// EncodeAssembled writes a transcript whose record section is supplied as
// already-encoded chunks (EncodeRecords output), spliced in verbatim between
// the canonical header and trailer. This is how the fleet coordinator
// assembles a campaign transcript from slice commits without re-encoding —
// byte-identical to Encode on the equivalent in-memory Transcript because
// chunk concatenation in commit order IS the record section.
func EncodeAssembled(w io.Writer, contract string, opts OptionsSummary, chunks [][]byte, final Summary) error {
	bw := bufio.NewWriter(w)
	encodeHeader(bw, Version, contract, opts)
	for _, ch := range chunks {
		if _, err := bw.Write(ch); err != nil {
			return err
		}
	}
	encodeFinal(bw, &final)
	return bw.Flush()
}

// encodeRecord writes one record's canonical lines — the unit both the full
// Encode and per-record divergence rendering share, so record comparison can
// never drift from the on-disk format. Records are the bulk of every
// transcript and fleet workers encode one per execution, so the lines are
// built with manual appends rather than fmt (≈5× cheaper, identical bytes).
func encodeRecord(w io.Writer, r *Record) {
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
		tx := &r.Seq[i]
		buf = append(buf, "tx "...)
		buf = append(buf, tx.Func...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(tx.Sender), 10)
		buf = append(buf, ' ')
		buf = tx.Value.AppendHex(buf)
		buf = append(buf, ' ')
		buf = appendHexOrDash(buf, tx.Args)
		if tx.Callee != 0 || len(tx.Attacker) != 0 {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(tx.Callee), 10)
			buf = append(buf, ' ')
			buf = appendHexOrDash(buf, tx.Attacker)
		}
		buf = append(buf, '\n')
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

// appendHexOrDash appends hexOrDash(b) without the intermediate string.
func appendHexOrDash(buf, b []byte) []byte {
	if len(b) == 0 {
		return append(buf, '-')
	}
	n := len(buf)
	buf = append(buf, make([]byte, hex.EncodedLen(len(b)))...)
	hex.Encode(buf[n:], b)
	return buf
}

// EncodeBytes renders the transcript to its canonical byte form.
func (t *Transcript) EncodeBytes() []byte {
	var buf bytes.Buffer
	_ = t.Encode(&buf)
	return buf.Bytes()
}

// decodeErr wraps a decoding failure with the offending line.
func decodeErr(line string, format string, args ...any) error {
	return fmt.Errorf("conformance: decode %q: %s", line, fmt.Sprintf(format, args...))
}

func parseU256(s string) (u256.Int, error) {
	n, ok := new(big.Int).SetString(s, 0)
	if !ok {
		return u256.Int{}, fmt.Errorf("bad u256 %q", s)
	}
	return u256.FromBig(n), nil
}

func parseHexOrDash(s string) ([]byte, error) {
	if s == "-" {
		return nil, nil
	}
	return hex.DecodeString(s)
}

// Decode parses a transcript from its v1 text encoding.
func Decode(r io.Reader) (*Transcript, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	t := &Transcript{}
	readLine := func() (string, bool) {
		if !sc.Scan() {
			return "", false
		}
		return sc.Text(), true
	}

	line, ok := readLine()
	if !ok || !strings.HasPrefix(line, magic+" v") {
		return nil, decodeErr(line, "missing %s header", magic)
	}
	v, err := strconv.Atoi(strings.TrimPrefix(line, magic+" v"))
	if err != nil || v != Version {
		return nil, decodeErr(line, "unsupported version")
	}
	t.Version = v

	line, ok = readLine()
	if !ok || !strings.HasPrefix(line, "contract ") {
		return nil, decodeErr(line, "missing contract line")
	}
	t.Contract = strings.TrimPrefix(line, "contract ")

	line, ok = readLine()
	if !ok || !strings.HasPrefix(line, "options ") {
		return nil, decodeErr(line, "missing options line")
	}
	if _, err := fmt.Sscanf(line, "options strategy=%q seed=%d iters=%d maxseq=%d gas=%d energy=%d initseeds=%d workers=%d batched=%d copystate=%d nocache=%d",
		&t.Options.Strategy, &t.Options.Seed, &t.Options.Iterations, &t.Options.MaxSeqLen,
		&t.Options.GasPerTx, &t.Options.EnergyBase, &t.Options.InitialSeeds, &t.Options.Workers,
		new(int), new(int), new(int)); err != nil {
		return nil, decodeErr(line, "bad options: %v", err)
	}
	// Sscanf cannot target bools through %d; re-extract the nocache flag and
	// the optional trailing world token (member names carry no whitespace, so
	// the quoted token is a single field). The retired batched= and
	// copystate= flags are ignored.
	for _, kv := range strings.Fields(line) {
		switch {
		case kv == "nocache=1":
			t.Options.NoPrefixCache = true
		case strings.HasPrefix(kv, "world="):
			w, err := strconv.Unquote(strings.TrimPrefix(kv, "world="))
			if err != nil {
				return nil, decodeErr(line, "bad world token: %v", err)
			}
			t.Options.World = w
		}
	}
	if _, ok := lookupStrategy(t.Options.Strategy); !ok {
		return nil, decodeErr(line, "unknown strategy %q", t.Options.Strategy)
	}

	rs := &recordScanner{}
	for {
		line, ok = readLine()
		if !ok {
			return nil, decodeErr("", "truncated transcript (no eof)")
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return nil, decodeErr(line, "blank line")
		}
		if handled, err := rs.feed(line, fields); err != nil {
			return nil, err
		} else if handled {
			t.Records = rs.records
			continue
		}
		switch fields[0] {
		case "final":
			if rs.open() {
				return nil, decodeErr(line, "final inside rec")
			}
			if _, err := fmt.Sscanf(line, "final covered=%d total=%d execs=%d queue=%d masks=%d seqmut=%d",
				&t.Final.CoveredEdges, &t.Final.TotalEdges, &t.Final.Executions,
				&t.Final.SeedQueueLen, &t.Final.MasksComputed, &t.Final.SequencesMutated); err != nil {
				return nil, decodeErr(line, "bad final: %v", err)
			}
			// trailer: classes, findings, repro, fedges, eof
			for {
				line, ok = readLine()
				if !ok {
					return nil, decodeErr("", "truncated trailer")
				}
				switch {
				case line == "eof":
					return t, nil
				case strings.HasPrefix(line, "classes "):
					s := strings.TrimPrefix(line, "classes ")
					if s != "" {
						t.Final.Classes = strings.Split(s, ",")
					}
				case line == "classes":
					// no classes found
				case strings.HasPrefix(line, "finding "):
					t.Final.Findings = append(t.Final.Findings, strings.TrimPrefix(line, "finding "))
				case strings.HasPrefix(line, "repro "):
					t.Final.Repro = append(t.Final.Repro, strings.TrimPrefix(line, "repro "))
				case strings.HasPrefix(line, "fedge "):
					var pc uint64
					var taken int
					if _, err := fmt.Sscanf(line, "fedge %d %d", &pc, &taken); err != nil {
						return nil, decodeErr(line, "bad fedge: %v", err)
					}
					t.Final.Edges = append(t.Final.Edges, fuzz.BranchEdge{PC: pc, Taken: taken == 1})
				default:
					return nil, decodeErr(line, "unexpected trailer line")
				}
			}
		default:
			return nil, decodeErr(line, "unexpected line")
		}
	}
}

// recordScanner parses the canonical record lines (rec/tx/edge/class/end)
// shared by full transcripts and standalone record chunks. Decode and
// DecodeRecords both feed lines through it, so the chunk format a fleet
// worker ships can never drift from the on-disk transcript format.
type recordScanner struct {
	records []Record
	inRec   bool
}

func (rs *recordScanner) open() bool { return rs.inRec }

func (rs *recordScanner) cur() *Record { return &rs.records[len(rs.records)-1] }

// feed consumes one line. It reports whether the line belonged to the record
// grammar; lines of the surrounding transcript grammar (options, final, eof)
// return handled=false for the caller to process.
func (rs *recordScanner) feed(line string, fields []string) (bool, error) {
	switch fields[0] {
	case "rec":
		if rs.inRec {
			return true, decodeErr(line, "rec inside rec")
		}
		r := Record{}
		if _, err := fmt.Sscanf(line, "rec %d nested=%d dist=%d covered=%d",
			&r.Index, &r.NestedDepth, new(int), &r.CoveredAfter); err != nil {
			return true, decodeErr(line, "bad rec: %v", err)
		}
		r.DistImproved = strings.Contains(line, "dist=1")
		rs.records = append(rs.records, r)
		rs.inRec = true
	case "tx":
		if !rs.inRec || (len(fields) != 5 && len(fields) != 7) {
			return true, decodeErr(line, "tx outside rec or malformed")
		}
		sender, err := strconv.Atoi(fields[2])
		if err != nil {
			return true, decodeErr(line, "bad sender: %v", err)
		}
		val, err := parseU256(fields[3])
		if err != nil {
			return true, decodeErr(line, "bad value: %v", err)
		}
		args, err := parseHexOrDash(fields[4])
		if err != nil {
			return true, decodeErr(line, "bad args: %v", err)
		}
		tx := Tx{Func: fields[1], Sender: sender, Value: val, Args: args}
		if len(fields) == 7 {
			tx.Callee, err = strconv.Atoi(fields[5])
			if err != nil || tx.Callee < 0 {
				return true, decodeErr(line, "bad callee")
			}
			tx.Attacker, err = parseHexOrDash(fields[6])
			if err != nil {
				return true, decodeErr(line, "bad attacker spec: %v", err)
			}
		}
		rs.cur().Seq = append(rs.cur().Seq, tx)
	case "edge":
		if !rs.inRec || len(fields) != 3 {
			return true, decodeErr(line, "edge outside rec or malformed")
		}
		pc, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return true, decodeErr(line, "bad pc: %v", err)
		}
		rs.cur().NewEdges = append(rs.cur().NewEdges, fuzz.BranchEdge{PC: pc, Taken: fields[2] == "1"})
	case "class":
		if !rs.inRec || len(fields) != 2 {
			return true, decodeErr(line, "class outside rec or malformed")
		}
		rs.cur().NewClasses = append(rs.cur().NewClasses, fields[1])
	case "end":
		if !rs.inRec {
			return true, decodeErr(line, "end outside rec")
		}
		rs.inRec = false
	default:
		return false, nil
	}
	return true, nil
}

// EncodeRecords renders a record slice in the canonical record-line encoding
// — the transcript chunk a fleet worker returns with each completed slice.
// Concatenating every slice's chunk in commit order reproduces the record
// section of the uninterrupted campaign's transcript byte for byte.
func EncodeRecords(records []Record) []byte {
	var buf bytes.Buffer
	for i := range records {
		encodeRecord(&buf, &records[i])
	}
	return buf.Bytes()
}

// DecodeRecords parses a standalone record chunk produced by EncodeRecords.
func DecodeRecords(data []byte) ([]Record, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	rs := &recordScanner{}
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return nil, decodeErr(line, "blank line")
		}
		handled, err := rs.feed(line, fields)
		if err != nil {
			return nil, err
		}
		if !handled {
			return nil, decodeErr(line, "unexpected line in record chunk")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("conformance: decode records: %w", err)
	}
	if rs.open() {
		return nil, decodeErr("", "truncated record chunk (no end)")
	}
	return rs.records, nil
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
// it is an order of magnitude cheaper than DecodeRecords, which remains
// the full semantic parse for replay tooling.
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

// classStrings renders a bug-class slice, preserving detection order (record
// streams are compared byte-for-byte, so recorded order is load-bearing).
func classStrings(classes []oracle.BugClass) []string {
	out := make([]string, len(classes))
	for i, c := range classes {
		out[i] = string(c)
	}
	return out
}
