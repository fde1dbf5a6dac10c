package fuzz

// The decoders below are DecodeSnapshot and DecodeSequence as they were
// before the line reader, with their helpers, copied verbatim but for the
// ref prefix: the fmt.Sscanf readers it replaced. They are the reference
// FuzzDecodeSnapshot and FuzzDecodeSequence hold the current decoders to:
// whatever the current decoders accept, the reference accepts with an equal
// value, and every input the reference accepts and re-encodes to the same
// bytes, the current decoders accept too.

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"strconv"
	"strings"
	"time"

	"mufuzz/internal/evm"
	"mufuzz/internal/oracle"
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// refDecodeSnapshot parses a snapshot from its text encoding. Every format
// version up to SnapshotVersion is accepted (older versions decode with the
// later-added fields at their zero values — the semantics the writing build
// had); newer versions are rejected with an explicit error instead of
// misparsing fields whose layout this build does not know.
func refDecodeSnapshot(r io.Reader) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	readLine := func() (string, bool) {
		if !sc.Scan() {
			return "", false
		}
		return sc.Text(), true
	}
	s := &Snapshot{}

	line, ok := readLine()
	if !ok || !strings.HasPrefix(line, snapshotMagic+" v") {
		return nil, refSnapErr(line, "missing %s header", snapshotMagic)
	}
	v, err := strconv.Atoi(strings.TrimPrefix(line, snapshotMagic+" v"))
	if err != nil || v < 1 {
		return nil, refSnapErr(line, "unsupported version")
	}
	if v > SnapshotVersion {
		return nil, refSnapErr(line, "format v%d was produced by a newer mufuzz (this build reads up to v%d)", v, SnapshotVersion)
	}

	line, ok = readLine()
	if !ok || !strings.HasPrefix(line, "contract ") {
		return nil, refSnapErr(line, "missing contract line")
	}
	s.Contract = strings.TrimPrefix(line, "contract ")

	line, ok = readLine()
	if !ok || !strings.HasPrefix(line, "codehash ") {
		return nil, refSnapErr(line, "missing codehash line")
	}
	hb, err := hex.DecodeString(strings.TrimPrefix(line, "codehash "))
	if err != nil || len(hb) != 32 {
		return nil, refSnapErr(line, "bad codehash")
	}
	copy(s.CodeHash[:], hb)

	line, ok = readLine()
	if !ok || !strings.HasPrefix(line, "strategy ") {
		return nil, refSnapErr(line, "missing strategy line")
	}
	var sb [8]int
	if v >= 2 {
		if _, err := fmt.Sscanf(line, "strategy name=%q dataflow=%d raw=%d prolong=%d dist=%d mask=%d energy=%d cmpfeed=%d dict=%d",
			&s.Options.Strategy.Name, &sb[0], &sb[1], &sb[2], &sb[3], &sb[4], &sb[5], &sb[6], &sb[7]); err != nil {
			return nil, refSnapErr(line, "bad strategy: %v", err)
		}
	} else {
		// v1: the comparison-feedback flags postdate the format; a campaign
		// snapshotted then ran without them, so they stay off on resume.
		if _, err := fmt.Sscanf(line, "strategy name=%q dataflow=%d raw=%d prolong=%d dist=%d mask=%d energy=%d",
			&s.Options.Strategy.Name, &sb[0], &sb[1], &sb[2], &sb[3], &sb[4], &sb[5]); err != nil {
			return nil, refSnapErr(line, "bad strategy: %v", err)
		}
	}
	s.Options.Strategy.DataflowSequences = sb[0] == 1
	s.Options.Strategy.RAWRepetition = sb[1] == 1
	s.Options.Strategy.Prolongation = sb[2] == 1
	s.Options.Strategy.BranchDistance = sb[3] == 1
	s.Options.Strategy.MutationMasking = sb[4] == 1
	s.Options.Strategy.DynamicEnergy = sb[5] == 1
	s.Options.Strategy.CmpFeedback = sb[6] == 1
	s.Options.Strategy.MinedDictionary = sb[7] == 1

	line, ok = readLine()
	if !ok || !strings.HasPrefix(line, "options ") {
		return nil, refSnapErr(line, "missing options line")
	}
	var nocache, maxseq, energybase, initseeds int
	var gas, tbNS int64
	// The retired workers=, batched= and copystate= fields are read and
	// ignored: a snapshot an older build wrote at workers > 1 resumes on the
	// one engine.
	if _, err := fmt.Sscanf(line, "options seed=%d iters=%d maxseq=%d gas=%d energybase=%d initseeds=%d workers=%d batched=%d copystate=%d nocache=%d timebudgetns=%d",
		&s.Options.Seed, &s.Options.Iterations, &maxseq, &gas, &energybase, &initseeds,
		new(int), new(int), new(int), &nocache, &tbNS); err != nil {
		return nil, refSnapErr(line, "bad options: %v", err)
	}
	// The fixed campaign parameters are printed for the format's sake; a
	// snapshot carrying any other value was not made by this engine.
	for _, f := range []struct {
		name      string
		got, want int64
	}{
		{"maxseq", int64(maxseq), MaxSeqLen}, {"gas", gas, int64(GasPerTx)},
		{"energybase", int64(energybase), EnergyBase}, {"initseeds", int64(initseeds), InitialSeeds},
	} {
		if f.got != f.want {
			return nil, refSnapErr(line, "%s=%d, want %d", f.name, f.got, f.want)
		}
	}
	s.Options.NoPrefixCache = nocache == 1
	s.Options.TimeBudget = time.Duration(tbNS)

	line, ok = readLine()
	if !ok || !strings.HasPrefix(line, "progress ") {
		return nil, refSnapErr(line, "missing progress line")
	}
	var elapsedNS int64
	if _, err := fmt.Sscanf(line, "progress execs=%d qi=%d corpus=%d rngdraws=%d lastnew=%d maskprobes=%d maskscomputed=%d seqmut=%d linesearches=%d linesteps=%d elapsedns=%d",
		&s.Executions, &s.QI, &s.CorpusSeeded, &s.RngDraws, &s.LastNewEdgeExec, &s.MaskProbes,
		&s.MasksComputed, &s.SequencesMutated, &s.LineSearches, &s.LineSteps, &elapsedNS); err != nil {
		return nil, refSnapErr(line, "bad progress: %v", err)
	}
	// A negative count would index the seed queue or the budget arithmetic
	// out of range on the next slice.
	for _, f := range []struct {
		name string
		n    int64
	}{
		{"execs", int64(s.Executions)}, {"qi", int64(s.QI)}, {"corpus", int64(s.CorpusSeeded)},
		{"lastnew", int64(s.LastNewEdgeExec)}, {"maskprobes", int64(s.MaskProbes)},
		{"maskscomputed", int64(s.MasksComputed)}, {"seqmut", int64(s.SequencesMutated)},
		{"linesearches", int64(s.LineSearches)}, {"linesteps", int64(s.LineSteps)}, {"elapsedns", elapsedNS},
	} {
		if f.n < 0 {
			return nil, refSnapErr(line, "negative %s=%d", f.name, f.n)
		}
	}
	s.Elapsed = time.Duration(elapsedNS)

	// decodeSeedBlock parses the txs/masks/endseed lines following a seed
	// header into seed; the header fields are already parsed by the caller.
	decodeSeedBlock := func(seed *Seed, hasMasks bool) error {
		var maskLines []struct {
			idx  int
			mask *Mask
		}
		for {
			line, ok = readLine()
			if !ok {
				return refSnapErr("", "truncated seed block")
			}
			fields := strings.Fields(line)
			if len(fields) == 0 {
				return refSnapErr(line, "blank line in seed block")
			}
			switch fields[0] {
			case "tx":
				tx, err := refParseTx(fields)
				if err != nil {
					return refSnapErr(line, "%v", err)
				}
				seed.Seq = append(seed.Seq, tx)
			case "mask":
				if len(fields) != 3 {
					return refSnapErr(line, "malformed mask")
				}
				idx, err := strconv.Atoi(fields[1])
				if err != nil {
					return refSnapErr(line, "bad mask index: %v", err)
				}
				m, err := refDecodeMask(fields[2])
				if err != nil {
					return refSnapErr(line, "%v", err)
				}
				maskLines = append(maskLines, struct {
					idx  int
					mask *Mask
				}{idx, m})
			case "endseed":
				if hasMasks {
					seed.masks = make([]*Mask, len(seed.Seq))
					for _, ml := range maskLines {
						if ml.idx < 0 || ml.idx >= len(seed.masks) {
							return refSnapErr(line, "mask index %d out of range", ml.idx)
						}
						seed.masks[ml.idx] = ml.mask
					}
				}
				return nil
			default:
				return refSnapErr(line, "unexpected line in seed block")
			}
		}
	}

	parseSeedHeader := func(line string, kind string) (*Seed, bool, error) {
		seed := &Seed{}
		var distBit, hasMasksBit int
		var pw string
		if _, err := fmt.Sscanf(line, kind+" newedges=%d nested=%d dist=%d gen=%d pathweight=%s hasmasks=%d",
			&seed.NewEdges, &seed.HitNestedDepth, &distBit, &seed.Gen, &pw, &hasMasksBit); err != nil {
			return nil, false, refSnapErr(line, "bad %s: %v", kind, err)
		}
		seed.DistanceImproved = distBit == 1
		w, err := strconv.ParseFloat(pw, 64)
		if err != nil {
			return nil, false, refSnapErr(line, "bad pathweight: %v", err)
		}
		seed.PathWeight = w
		return seed, hasMasksBit == 1, nil
	}

	var curRepro *ReproEntry
	for {
		line, ok = readLine()
		if !ok {
			return nil, refSnapErr("", "truncated snapshot (no eof)")
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return nil, refSnapErr(line, "blank line")
		}
		if curRepro != nil {
			switch fields[0] {
			case "tx":
				tx, err := refParseTx(fields)
				if err != nil {
					return nil, refSnapErr(line, "%v", err)
				}
				curRepro.Seq = append(curRepro.Seq, tx)
				continue
			case "endrepro":
				s.Repro = append(s.Repro, *curRepro)
				curRepro = nil
				continue
			default:
				return nil, refSnapErr(line, "unexpected line in repro block")
			}
		}
		switch fields[0] {
		case "covered":
			if len(fields) != 3 {
				return nil, refSnapErr(line, "malformed covered")
			}
			e, err := refDecodeSnapEdge(line, fields)
			if err != nil {
				return nil, err
			}
			s.Covered = append(s.Covered, e)
		case "weight":
			if len(fields) != 4 {
				return nil, refSnapErr(line, "malformed weight")
			}
			e, err := refDecodeSnapEdge(line, fields)
			if err != nil {
				return nil, err
			}
			w, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, refSnapErr(line, "bad weight: %v", err)
			}
			s.Weights = append(s.Weights, EdgeWeightEntry{Edge: e, W: w})
		case "tpoint":
			if len(fields) != 4 {
				return nil, refSnapErr(line, "malformed tpoint")
			}
			execs, err1 := strconv.Atoi(fields[1])
			ns, err2 := strconv.ParseInt(fields[2], 10, 64)
			cov, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, refSnapErr(line, "bad tpoint")
			}
			s.Timeline = append(s.Timeline, TimelinePoint{Executions: execs, Elapsed: time.Duration(ns), Coverage: cov})
		case "qseed":
			seed, hasMasks, err := parseSeedHeader(line, "qseed")
			if err != nil {
				return nil, err
			}
			if err := decodeSeedBlock(seed, hasMasks); err != nil {
				return nil, err
			}
			s.Queue = append(s.Queue, seed)
		case "front":
			if len(fields) != 7 {
				return nil, refSnapErr(line, "malformed front")
			}
			e, err := refDecodeSnapEdge(line, fields)
			if err != nil {
				return nil, err
			}
			dist, err := refParseSnapU256(fields[3])
			if err != nil {
				return nil, refSnapErr(line, "bad dist: %v", err)
			}
			op, err := strconv.Atoi(fields[4])
			if err != nil {
				return nil, refSnapErr(line, "bad cmp op: %v", err)
			}
			a, err := refParseSnapU256(fields[5])
			if err != nil {
				return nil, refSnapErr(line, "bad cmp a: %v", err)
			}
			b, err := refParseSnapU256(fields[6])
			if err != nil {
				return nil, refSnapErr(line, "bad cmp b: %v", err)
			}
			fe := FrontierEntry{Edge: e, Dist: dist, Cmp: evm.CmpInfo{Op: evm.OpCode(op), A: a, B: b}}
			line, ok = readLine()
			if !ok || !strings.HasPrefix(line, "fseed ") {
				return nil, refSnapErr(line, "front without fseed")
			}
			seed, hasMasks, err := parseSeedHeader(line, "fseed")
			if err != nil {
				return nil, err
			}
			if err := decodeSeedBlock(seed, hasMasks); err != nil {
				return nil, err
			}
			fe.Seed = seed
			s.Frontier = append(s.Frontier, fe)
		case "cmpop":
			if len(fields) != 5 {
				return nil, refSnapErr(line, "malformed cmpop")
			}
			e, err := refDecodeSnapEdge(line, fields)
			if err != nil {
				return nil, err
			}
			a, err := refParseSnapU256(fields[3])
			if err != nil {
				return nil, refSnapErr(line, "bad cmpop a: %v", err)
			}
			b, err := refParseSnapU256(fields[4])
			if err != nil {
				return nil, refSnapErr(line, "bad cmpop b: %v", err)
			}
			s.CmpOps = append(s.CmpOps, CmpOpEntry{Edge: e, A: a, B: b})
		case "repro":
			if len(fields) != 2 {
				return nil, refSnapErr(line, "malformed repro")
			}
			curRepro = &ReproEntry{Class: oracle.BugClass(fields[1])}
		case "world":
			var ab, rb int
			if _, err := fmt.Sscanf(line, "world attacker=%d reconfirmed=%d", &ab, &rb); err != nil {
				return nil, refSnapErr(line, "bad world: %v", err)
			}
			s.Attacker = ab == 1
			s.REConfirmed = rb == 1
		case "worldmember":
			if len(fields) != 4 {
				return nil, refSnapErr(line, "malformed worldmember")
			}
			var pin WorldMemberPin
			pin.Name = fields[1]
			ab, err := hex.DecodeString(fields[2])
			if err != nil || len(ab) != len(state.Address{}) {
				return nil, refSnapErr(line, "bad worldmember address")
			}
			copy(pin.Addr[:], ab)
			ch, err := hex.DecodeString(fields[3])
			if err != nil || len(ch) != 32 {
				return nil, refSnapErr(line, "bad worldmember codehash")
			}
			copy(pin.CodeHash[:], ch)
			s.WorldMembers = append(s.WorldMembers, pin)
		case "detector":
			var rv, vo int
			if v >= 3 {
				if _, err := fmt.Sscanf(line, "detector received=%d valueout=%d", &rv, &vo); err != nil {
					return nil, refSnapErr(line, "bad detector: %v", err)
				}
			} else if _, err := fmt.Sscanf(line, "detector received=%d", &rv); err != nil {
				return nil, refSnapErr(line, "bad detector: %v", err)
			}
			s.ReceivedValue = rv == 1
			s.ValueOutSeen = vo == 1
		case "finding":
			// finding <class> <addr> <pc> <description...>
			if len(fields) < 4 {
				return nil, refSnapErr(line, "malformed finding")
			}
			ab, err := hex.DecodeString(fields[2])
			if err != nil || len(ab) != len(state.Address{}) {
				return nil, refSnapErr(line, "bad finding address")
			}
			pc, err := strconv.ParseUint(fields[3], 10, 64)
			if err != nil {
				return nil, refSnapErr(line, "bad finding pc: %v", err)
			}
			var addr state.Address
			copy(addr[:], ab)
			prefix := fmt.Sprintf("finding %s %s %d ", fields[1], fields[2], pc)
			s.Findings = append(s.Findings, oracle.Finding{
				Class:       oracle.BugClass(fields[1]),
				Addr:        addr,
				PC:          pc,
				Description: strings.TrimPrefix(line, prefix),
			})
		case "eof":
			if curRepro != nil {
				return nil, refSnapErr(line, "eof inside repro block")
			}
			return s, nil
		default:
			return nil, refSnapErr(line, "unexpected line")
		}
	}
}

func refDecodeSnapEdge(line string, fields []string) (BranchEdge, error) {
	if len(fields) < 3 {
		return BranchEdge{}, refSnapErr(line, "malformed edge")
	}
	pc, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return BranchEdge{}, refSnapErr(line, "bad pc: %v", err)
	}
	return BranchEdge{PC: pc, Taken: fields[2] == "1"}, nil
}

func refSnapErr(line, format string, args ...any) error {
	return fmt.Errorf("fuzz: decode snapshot %q: %s", line, fmt.Sprintf(format, args...))
}

func refParseSnapU256(s string) (u256.Int, error) {
	n, ok := new(big.Int).SetString(s, 0)
	if !ok {
		return u256.Int{}, fmt.Errorf("bad u256 %q", s)
	}
	return u256.FromBig(n), nil
}

func refDecodeMask(s string) (*Mask, error) {
	switch s {
	case "-":
		return nil, nil
	case ".":
		return &Mask{}, nil
	}
	m := &Mask{allowed: make([][numMutTypes]bool, len(s))}
	for i, ch := range s {
		n, err := strconv.ParseUint(string(ch), 16, 8)
		if err != nil {
			return nil, fmt.Errorf("bad mask nibble %q", string(ch))
		}
		for k := 0; k < int(numMutTypes); k++ {
			if n&(1<<k) != 0 {
				m.allowed[i][k] = true
				m.count++
			}
		}
	}
	return m, nil
}

// refParseTx parses the whitespace-split fields of one line written by
// AppendTx, keyword included. Sender and callee indexes must be
// non-negative: the executor reduces them modulo the pool sizes, so a
// negative index would panic mid-slice. Errors carry no prefix; each caller
// adds its own.
func refParseTx(fields []string) (TxInput, error) {
	if (len(fields) != 5 && len(fields) != 7) || fields[0] != "tx" {
		return TxInput{}, errors.New("malformed tx")
	}
	sender, err := strconv.Atoi(fields[2])
	if err != nil || sender < 0 {
		return TxInput{}, fmt.Errorf("bad sender %q", fields[2])
	}
	val, err := refParseSnapU256(fields[3])
	if err != nil {
		return TxInput{}, fmt.Errorf("bad value: %v", err)
	}
	args, err := refParseHexOrDash(fields[4])
	if err != nil {
		return TxInput{}, fmt.Errorf("bad args: %v", err)
	}
	tx := TxInput{Func: fields[1], Sender: sender, Value: val, Args: args}
	if len(fields) == 7 {
		tx.Callee, err = strconv.Atoi(fields[5])
		if err != nil || tx.Callee < 0 {
			return TxInput{}, fmt.Errorf("bad callee %q", fields[5])
		}
		if tx.Attacker, err = refParseHexOrDash(fields[6]); err != nil {
			return TxInput{}, fmt.Errorf("bad attacker spec: %v", err)
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

// refDecodeSequence parses a sequence written by EncodeSequence. A line longer
// than the scanner's 4 MiB bound fails the decode rather than truncating
// the sequence.
func refDecodeSequence(data []byte) (Sequence, error) {
	var seq Sequence
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		tx, err := refParseTx(strings.Fields(line))
		if err != nil {
			return nil, refSnapErr(line, "%v", err)
		}
		seq = append(seq, tx)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fuzz: decode sequence: %w", err)
	}
	if len(seq) == 0 {
		return nil, fmt.Errorf("fuzz: empty sequence")
	}
	return seq, nil
}
