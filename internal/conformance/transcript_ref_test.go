package conformance

// refDecode and its record scanner are transcript Decode as it was before
// the line reader, and refParseTx the tx-line parser it called in the fuzz
// package, copied verbatim but for the ref prefix and the fuzz qualifier.
// They are the reference FuzzDecodeTranscript holds Decode to: whatever
// Decode accepts, the reference accepts with an equal value, and every
// transcript the reference accepts and re-encodes to the same bytes, Decode
// accepts too.

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"strconv"
	"strings"

	"mufuzz/internal/fuzz"
	"mufuzz/internal/oracle"
	"mufuzz/internal/u256"
)

// refDecode parses a transcript from its v1 text encoding.
func refDecode(r io.Reader) (*Transcript, error) {
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
	var maxseq, energy, initseeds int
	var gas int64
	if _, err := fmt.Sscanf(line, "options strategy=%q seed=%d iters=%d maxseq=%d gas=%d energy=%d initseeds=%d workers=%d batched=%d copystate=%d nocache=%d",
		&t.Options.Strategy, &t.Options.Seed, &t.Options.Iterations, &maxseq, &gas, &energy, &initseeds,
		new(int), new(int), new(int), new(int)); err != nil {
		return nil, decodeErr(line, "bad options: %v", err)
	}
	// A transcript recorded under any other value of the engine's fixed
	// parameters cannot replay on this engine.
	for _, f := range []struct {
		name      string
		got, want int64
	}{
		{"maxseq", int64(maxseq), fuzz.MaxSeqLen}, {"gas", gas, int64(fuzz.GasPerTx)},
		{"energy", int64(energy), fuzz.EnergyBase}, {"initseeds", int64(initseeds), fuzz.InitialSeeds},
	} {
		if f.got != f.want {
			return nil, decodeErr(line, "%s=%d, want %d", f.name, f.got, f.want)
		}
	}
	// Sscanf cannot target bools through %d; re-extract the nocache flag and
	// the optional trailing world token (member names carry no whitespace, so
	// the quoted token is a single field). The retired workers=, batched= and
	// copystate= fields are ignored.
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

	rs := &refRecordScanner{}
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

// refRecordScanner parses the canonical record lines (rec/tx/edge/class/end)
// of a transcript's record section — the concatenation of the record chunks
// fleet workers ship — into fuzz.ExecRecords. Tx lines go through
// refParseTx, the parser snapshots and corpus seeds use too.
type refRecordScanner struct {
	records []fuzz.ExecRecord
	inRec   bool
}

func (rs *refRecordScanner) open() bool { return rs.inRec }

func (rs *refRecordScanner) cur() *fuzz.ExecRecord { return &rs.records[len(rs.records)-1] }

// feed consumes one line. It reports whether the line belonged to the record
// grammar; lines of the surrounding transcript grammar (options, final, eof)
// return handled=false for the caller to process.
func (rs *refRecordScanner) feed(line string, fields []string) (bool, error) {
	switch fields[0] {
	case "rec":
		if rs.inRec {
			return true, decodeErr(line, "rec inside rec")
		}
		r := fuzz.ExecRecord{}
		if _, err := fmt.Sscanf(line, "rec %d nested=%d dist=%d covered=%d",
			&r.Index, &r.NestedDepth, new(int), &r.CoveredAfter); err != nil {
			return true, decodeErr(line, "bad rec: %v", err)
		}
		r.DistImproved = strings.Contains(line, "dist=1")
		rs.records = append(rs.records, r)
		rs.inRec = true
	case "tx":
		if !rs.inRec {
			return true, decodeErr(line, "tx outside rec")
		}
		tx, err := refParseTx(fields)
		if err != nil {
			return true, decodeErr(line, "%v", err)
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
		rs.cur().NewClasses = append(rs.cur().NewClasses, oracle.BugClass(fields[1]))
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

// refParseTx parses the whitespace-split fields of one line written by
// AppendTx, keyword included. Sender and callee indexes must be
// non-negative: the executor reduces them modulo the pool sizes, so a
// negative index would panic mid-slice. Errors carry no prefix; each caller
// adds its own.
func refParseTx(fields []string) (fuzz.TxInput, error) {
	if (len(fields) != 5 && len(fields) != 7) || fields[0] != "tx" {
		return fuzz.TxInput{}, errors.New("malformed tx")
	}
	sender, err := strconv.Atoi(fields[2])
	if err != nil || sender < 0 {
		return fuzz.TxInput{}, fmt.Errorf("bad sender %q", fields[2])
	}
	val, err := refParseSnapU256(fields[3])
	if err != nil {
		return fuzz.TxInput{}, fmt.Errorf("bad value: %v", err)
	}
	args, err := refParseHexOrDash(fields[4])
	if err != nil {
		return fuzz.TxInput{}, fmt.Errorf("bad args: %v", err)
	}
	tx := fuzz.TxInput{Func: fields[1], Sender: sender, Value: val, Args: args}
	if len(fields) == 7 {
		tx.Callee, err = strconv.Atoi(fields[5])
		if err != nil || tx.Callee < 0 {
			return fuzz.TxInput{}, fmt.Errorf("bad callee %q", fields[5])
		}
		if tx.Attacker, err = refParseHexOrDash(fields[6]); err != nil {
			return fuzz.TxInput{}, fmt.Errorf("bad attacker spec: %v", err)
		}
	}
	return tx, nil
}

func refParseHexOrDash(s string) ([]byte, error) {
	if s == "-" {
		return nil, nil
	}
	return hex.DecodeString(s)
}

func refParseSnapU256(s string) (u256.Int, error) {
	n, ok := new(big.Int).SetString(s, 0)
	if !ok {
		return u256.Int{}, fmt.Errorf("bad u256 %q", s)
	}
	return u256.FromBig(n), nil
}
