package fuzz

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"mufuzz/internal/evm"
	"mufuzz/internal/keccak"
	"mufuzz/internal/minisol"
	"mufuzz/internal/oracle"
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// SnapshotVersion is the snapshot format version this package writes.
// Decoding accepts any version up to it: v1 snapshots (no comparison-feedback
// strategy flags, no operand-table records) load with those features off —
// exactly the semantics the campaign that wrote them had. Versions beyond it
// come from newer builds and are rejected rather than misparsed.
//
// v2: strategy line gained cmpfeed=/dict= fields; cmpop records serialize the
// per-uncovered-edge comparison operand tables.
//
// v3: multi-contract worlds. Tx lines grow optional callee/attacker fields
// (emitted only when set — single-contract sequences keep the 5-field form),
// world/worldmember records pin the campaign's member set and attacker mode,
// and the detector line carries the witnessed value-out aggregate.
const SnapshotVersion = 3

// snapshotMagic is the first token of every encoded snapshot.
const snapshotMagic = "mufuzz-snapshot"

// Snapshot is a complete serializable capture of a campaign coordinator's
// state between slices: options, rng position, coverage, the branch-distance
// frontier, the seed queue with computed masks, Algorithm 3 weights, oracle
// aggregation, and proof-of-concept sequences. A campaign resumed from a
// snapshot (ResumeCampaign) continues byte-identically to one that was never
// paused: snapshots are taken at slice boundaries, which are deterministic
// points of the schedule, and everything the engine reads thereafter is
// restored — including the exact rng stream position (see countedSource).
//
// Executor-side state is deliberately absent: the EVM, jumpdest caches, and
// the prefix checkpoint cache are rebuilt warm-up state whose presence or
// absence never changes campaign decisions (the conformance differential
// matrix pins cache on ≡ cache off).
type Snapshot struct {
	// Contract is the contract name (diagnostics; identity is CodeHash).
	Contract string
	// CodeHash pins the compiled runtime code the state is only valid for.
	CodeHash [32]byte
	// Options is the normalized configuration (Observer excluded — runtime
	// wiring, reinstalled by the resuming caller).
	Options Options
	// RngDraws is the coordinator rng's source position.
	RngDraws uint64

	Executions       int
	QI               int
	CorpusSeeded     int
	LastNewEdgeExec  int
	MaskProbes       int
	MasksComputed    int
	SequencesMutated int
	LineSearches     int
	LineSteps        int
	Elapsed          time.Duration

	// Covered lists the covered branch edges in edge-ID order.
	Covered []BranchEdge
	// Weights lists the nonzero Algorithm 3 edge weights in edge-ID order.
	Weights []EdgeWeightEntry
	// Timeline is the coverage-growth curve recorded so far.
	Timeline []TimelinePoint
	// Queue is the seed queue, deep-copied with feedback and computed masks.
	Queue []*Seed
	// Frontier is the branch-distance frontier: per uncovered-but-approached
	// edge, the best distance, its comparison, and the seed that achieved it.
	Frontier []FrontierEntry
	// CmpOps flattens the per-uncovered-edge operand tables
	// (Strategy.CmpFeedback) in edge-ID-then-FIFO order; decoding re-appends
	// in order, so table state round-trips exactly.
	CmpOps []CmpOpEntry
	// Repro maps bug classes to their first triggering sequence, in class
	// order.
	Repro []ReproEntry
	// ReceivedValue and Findings are the detector's aggregate state.
	ReceivedValue bool
	Findings      []oracle.Finding

	// WorldMembers pins each secondary member of a world campaign — name,
	// deployment address, runtime codehash — so resume can refuse a changed
	// world. Empty for single-contract campaigns.
	WorldMembers []WorldMemberPin
	// Attacker records that the campaign ran with attacker synthesis on
	// (the spec bytes themselves ride on the serialized sequences).
	Attacker bool
	// REConfirmed carries the campaign's once-per-campaign reentrancy
	// divergence confirmation.
	REConfirmed bool
	// ValueOutSeen is the witnessed detector's value-escape aggregate.
	ValueOutSeen bool
}

// WorldMemberPin pins one world member's identity inside a snapshot.
type WorldMemberPin struct {
	Name     string
	Addr     state.Address
	CodeHash [32]byte
}

// EdgeWeightEntry is one edge's Algorithm 3 weight.
type EdgeWeightEntry struct {
	Edge BranchEdge
	W    float64
}

// FrontierEntry is one branch-distance frontier edge.
type FrontierEntry struct {
	Edge BranchEdge
	Dist u256.Int
	Cmp  evm.CmpInfo
	Seed *Seed
}

// CmpOpEntry is one observed comparison operand pair of an uncovered edge.
type CmpOpEntry struct {
	Edge BranchEdge
	A, B u256.Int
}

// ReproEntry is one bug class's proof-of-concept sequence.
type ReproEntry struct {
	Class oracle.BugClass
	Seq   Sequence
}

// snapClone deep-copies a seed including its feedback fields and computed
// masks (unlike Clone, which starts a fresh mutation child). lastNudge is
// dropped: it is only ever read within the round that set it, never across
// a slice boundary.
func (s *Seed) snapClone() *Seed {
	ns := &Seed{
		Seq:              s.Seq.Clone(),
		NewEdges:         s.NewEdges,
		HitNestedDepth:   s.HitNestedDepth,
		PathWeight:       s.PathWeight,
		DistanceImproved: s.DistanceImproved,
		Gen:              s.Gen,
	}
	if s.masks != nil {
		ns.masks = make([]*Mask, len(s.masks))
		for i, m := range s.masks {
			if m == nil {
				continue
			}
			nm := &Mask{allowed: make([][numMutTypes]bool, len(m.allowed)), count: m.count}
			copy(nm.allowed, m.allowed)
			ns.masks[i] = nm
		}
	}
	return ns
}

// Snapshot captures the campaign's complete coordinator state. It must be
// called between slices (never while RunSlice is executing); the capture is
// a deep copy, so the campaign may keep running afterwards without
// invalidating the snapshot.
func (c *Campaign) Snapshot() *Snapshot {
	if c.inSlice {
		panic("fuzz: Snapshot called while a slice is running")
	}
	s := &Snapshot{
		Contract:         c.target.Name(),
		CodeHash:         keccak.Sum256(c.code),
		Options:          c.opts,
		RngDraws:         c.rngSrc.draws,
		Executions:       c.executions,
		QI:               c.qi,
		CorpusSeeded:     c.corpusSeeded,
		LastNewEdgeExec:  c.lastNewEdgeExec,
		MaskProbes:       c.maskProbes,
		MasksComputed:    c.masksComputed,
		SequencesMutated: c.sequencesMutated,
		LineSearches:     c.lineSearches,
		LineSteps:        c.lineSteps,
		Elapsed:          c.elapsedPrior,
	}
	s.Options.Observer = nil
	for id, cov := range c.covered {
		if cov {
			pc, taken := c.branchIx.Edge(int32(id))
			s.Covered = append(s.Covered, BranchEdge{PC: pc, Taken: taken})
		}
	}
	for id := 0; id < c.totalEdges; id++ {
		if w := c.weights.Weight(int32(id)); w != 0 {
			pc, taken := c.branchIx.Edge(int32(id))
			s.Weights = append(s.Weights, EdgeWeightEntry{Edge: BranchEdge{PC: pc, Taken: taken}, W: w})
		}
	}
	s.Timeline = append([]TimelinePoint(nil), c.timeline...)
	for _, seed := range c.queue {
		s.Queue = append(s.Queue, seed.snapClone())
	}
	for id, known := range c.distKnown {
		if known {
			pc, taken := c.branchIx.Edge(int32(id))
			s.Frontier = append(s.Frontier, FrontierEntry{
				Edge: BranchEdge{PC: pc, Taken: taken},
				Dist: c.minDist[id],
				Cmp:  c.distCmp[id],
				Seed: c.distSeed[id].snapClone(),
			})
		}
	}
	for id, ops := range c.cmpOps {
		for _, p := range ops {
			pc, taken := c.branchIx.Edge(int32(id))
			s.CmpOps = append(s.CmpOps, CmpOpEntry{Edge: BranchEdge{PC: pc, Taken: taken}, A: p.a, B: p.b})
		}
	}
	classes := make([]oracle.BugClass, 0, len(c.repro))
	for class := range c.repro {
		classes = append(classes, class)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, class := range classes {
		s.Repro = append(s.Repro, ReproEntry{Class: class, Seq: c.repro[class].Clone()})
	}
	s.ReceivedValue, s.Findings = c.detector.State()
	s.ValueOutSeen = c.detector.ValueOutSeen()
	// The world wiring is not serializable (targets and attacker models are
	// live objects); the snapshot pins their identities instead and
	// ResumeWorldCampaign revalidates the caller-supplied world against them.
	s.Options.World = nil
	if c.world != nil {
		s.Attacker = c.attackerModel != nil
		s.REConfirmed = c.reConfirmed
		for i, m := range c.world.Members {
			s.WorldMembers = append(s.WorldMembers, WorldMemberPin{
				Name:     m.Name,
				Addr:     c.worldAddrs[i+1],
				CodeHash: keccak.Sum256(m.Target.Code()),
			})
		}
	}
	return s
}

// ResumeCampaign rebuilds a campaign from a snapshot so it continues exactly
// where it paused. comp must compile to the same runtime code the snapshot
// was taken from (pinned by CodeHash). The resumed campaign has no Observer;
// install one with SetObserver before the next slice if transcripts should
// continue.
func ResumeCampaign(comp *minisol.Compiled, s *Snapshot) (*Campaign, error) {
	return ResumeTargetCampaign(MinisolTarget(comp), s)
}

// ResumeTargetCampaign is ResumeCampaign for any target kind: the target
// must carry the same runtime code the snapshot was taken from (pinned by
// CodeHash). Snapshots of world campaigns are refused — their member set and
// attacker model are live objects the snapshot only pins; resupply them
// through ResumeWorldCampaign.
func ResumeTargetCampaign(t Target, s *Snapshot) (*Campaign, error) {
	if len(s.WorldMembers) > 0 || s.Attacker {
		return nil, fmt.Errorf("fuzz: snapshot was taken from a world campaign; resume with ResumeWorldCampaign")
	}
	return resumeTarget(t, nil, s)
}

// ResumeWorldCampaign resumes a multi-contract world campaign. The snapshot
// pins every member's name, deployment address, and runtime codehash plus
// the attacker mode; the caller-supplied world must match all of them —
// resuming into a changed world would silently replay seeds against
// different code.
func ResumeWorldCampaign(t Target, w *WorldOptions, s *Snapshot) (*Campaign, error) {
	if worldEmpty(w) {
		return nil, fmt.Errorf("fuzz: ResumeWorldCampaign needs a non-empty world (single-contract snapshots resume with ResumeTargetCampaign)")
	}
	if (w.Attacker != nil) != s.Attacker {
		return nil, fmt.Errorf("fuzz: attacker mode does not match snapshot (snapshot attacker=%v)", s.Attacker)
	}
	if len(w.Members) != len(s.WorldMembers) {
		return nil, fmt.Errorf("fuzz: world has %d members, snapshot pins %d", len(w.Members), len(s.WorldMembers))
	}
	for i, m := range w.Members {
		pin := s.WorldMembers[i]
		if m.Name != pin.Name {
			return nil, fmt.Errorf("fuzz: world member %d is %q, snapshot pins %q", i, m.Name, pin.Name)
		}
		if keccak.Sum256(m.Target.Code()) != pin.CodeHash {
			return nil, fmt.Errorf("fuzz: world member %q code does not match snapshot", m.Name)
		}
		addr := m.Addr
		if addr == (state.Address{}) {
			addr = WorldMemberAddr(i)
		}
		if addr != pin.Addr {
			return nil, fmt.Errorf("fuzz: world member %q deploys at %x, snapshot pins %x", m.Name, addr, pin.Addr)
		}
	}
	return resumeTarget(t, w, s)
}

func resumeTarget(t Target, w *WorldOptions, s *Snapshot) (*Campaign, error) {
	if keccak.Sum256(t.Code()) != s.CodeHash {
		return nil, fmt.Errorf("fuzz: snapshot code hash does not match target %s", t.Name())
	}
	opts := s.Options
	opts.Observer = nil
	opts.World = w
	c := NewTargetCampaign(t, opts)

	c.rngSrc = newCountedSource(opts.Seed, s.RngDraws)
	c.rng = rand.New(c.rngSrc)

	c.executions = s.Executions
	c.qi = s.QI
	c.corpusSeeded = s.CorpusSeeded
	c.lastNewEdgeExec = s.LastNewEdgeExec
	c.maskProbes = s.MaskProbes
	c.masksComputed = s.MasksComputed
	c.sequencesMutated = s.SequencesMutated
	c.lineSearches = s.LineSearches
	c.lineSteps = s.LineSteps
	c.elapsedPrior = s.Elapsed

	edgeID := func(e BranchEdge) (int32, error) {
		id, ok := c.branchIx.EdgeID(e.PC, e.Taken)
		if !ok {
			return 0, fmt.Errorf("fuzz: snapshot edge (pc=%d taken=%v) unknown to contract", e.PC, e.Taken)
		}
		return id, nil
	}
	for _, e := range s.Covered {
		id, err := edgeID(e)
		if err != nil {
			return nil, err
		}
		if !c.covered[id] {
			c.covered[id] = true
			c.coveredCount++
		}
	}
	for _, we := range s.Weights {
		id, err := edgeID(we.Edge)
		if err != nil {
			return nil, err
		}
		c.weights.SetWeight(id, we.W)
	}
	c.timeline = append([]TimelinePoint(nil), s.Timeline...)
	for _, seed := range s.Queue {
		c.queue = append(c.queue, seed.snapClone())
	}
	for _, fe := range s.Frontier {
		id, err := edgeID(fe.Edge)
		if err != nil {
			return nil, err
		}
		if !c.distKnown[id] {
			c.distKnown[id] = true
			c.distCount++
		}
		c.minDist[id] = fe.Dist
		c.distCmp[id] = fe.Cmp
		c.distSeed[id] = fe.Seed.snapClone()
	}
	for _, ce := range s.CmpOps {
		id, err := edgeID(ce.Edge)
		if err != nil {
			return nil, err
		}
		if len(c.cmpOps[id]) < cmpOpsPerEdge {
			c.cmpOps[id] = append(c.cmpOps[id], cmpPair{a: ce.A, b: ce.B})
		}
	}
	for _, re := range s.Repro {
		c.repro[re.Class] = re.Seq.Clone()
	}
	c.detector.Restore(s.ReceivedValue, s.Findings)
	c.detector.SetValueOutSeen(s.ValueOutSeen)
	c.reConfirmed = s.REConfirmed
	return c, nil
}

// --- Stable text encoding ---

// Encode writes the snapshot in the stable text encoding (the current
// SnapshotVersion); encoding the same snapshot always yields the same bytes.
func (s *Snapshot) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s v%d\n", snapshotMagic, SnapshotVersion)
	fmt.Fprintf(bw, "contract %s\n", s.Contract)
	fmt.Fprintf(bw, "codehash %s\n", hex.EncodeToString(s.CodeHash[:]))
	st := s.Options.Strategy
	fmt.Fprintf(bw, "strategy name=%q dataflow=%d raw=%d prolong=%d dist=%d mask=%d energy=%d cmpfeed=%d dict=%d\n",
		st.Name, boolBit01(st.DataflowSequences), boolBit01(st.RAWRepetition), boolBit01(st.Prolongation),
		boolBit01(st.BranchDistance), boolBit01(st.MutationMasking), boolBit01(st.DynamicEnergy),
		boolBit01(st.CmpFeedback), boolBit01(st.MinedDictionary))
	o := s.Options
	// workers=, batched= and copystate= name retired engine options; they
	// stay in the line, always 1, 0 and 0, so the encoding is unchanged.
	fmt.Fprintf(bw, "options seed=%d iters=%d maxseq=%d gas=%d energybase=%d initseeds=%d workers=1 batched=0 copystate=0 nocache=%d timebudgetns=%d\n",
		o.Seed, o.Iterations, MaxSeqLen, GasPerTx, EnergyBase, InitialSeeds,
		boolBit01(o.NoPrefixCache), int64(o.TimeBudget))
	fmt.Fprintf(bw, "progress execs=%d qi=%d corpus=%d rngdraws=%d lastnew=%d maskprobes=%d maskscomputed=%d seqmut=%d linesearches=%d linesteps=%d elapsedns=%d\n",
		s.Executions, s.QI, s.CorpusSeeded, s.RngDraws, s.LastNewEdgeExec, s.MaskProbes,
		s.MasksComputed, s.SequencesMutated, s.LineSearches, s.LineSteps, int64(s.Elapsed))
	if s.Attacker || len(s.WorldMembers) > 0 {
		fmt.Fprintf(bw, "world attacker=%d reconfirmed=%d\n", boolBit01(s.Attacker), boolBit01(s.REConfirmed))
		for _, m := range s.WorldMembers {
			fmt.Fprintf(bw, "worldmember %s %s %s\n",
				m.Name, hex.EncodeToString(m.Addr[:]), hex.EncodeToString(m.CodeHash[:]))
		}
	}
	for _, e := range s.Covered {
		fmt.Fprintf(bw, "covered %d %d\n", e.PC, boolBit01(e.Taken))
	}
	for _, we := range s.Weights {
		fmt.Fprintf(bw, "weight %d %d %s\n", we.Edge.PC, boolBit01(we.Edge.Taken), hexFloat(we.W))
	}
	for _, tp := range s.Timeline {
		fmt.Fprintf(bw, "tpoint %d %d %s\n", tp.Executions, int64(tp.Elapsed), hexFloat(tp.Coverage))
	}
	for _, seed := range s.Queue {
		encodeSeed(bw, "qseed", seed)
	}
	for _, fe := range s.Frontier {
		fmt.Fprintf(bw, "front %d %d %s %d %s %s\n",
			fe.Edge.PC, boolBit01(fe.Edge.Taken), fe.Dist.Hex(), int(fe.Cmp.Op), fe.Cmp.A.Hex(), fe.Cmp.B.Hex())
		encodeSeed(bw, "fseed", fe.Seed)
	}
	for _, ce := range s.CmpOps {
		fmt.Fprintf(bw, "cmpop %d %d %s %s\n",
			ce.Edge.PC, boolBit01(ce.Edge.Taken), ce.A.Hex(), ce.B.Hex())
	}
	for _, re := range s.Repro {
		fmt.Fprintf(bw, "repro %s\n", re.Class)
		for i := range re.Seq {
			_, _ = bw.Write(AppendTx(bw.AvailableBuffer(), &re.Seq[i]))
		}
		fmt.Fprintf(bw, "endrepro\n")
	}
	fmt.Fprintf(bw, "detector received=%d valueout=%d\n", boolBit01(s.ReceivedValue), boolBit01(s.ValueOutSeen))
	for _, f := range s.Findings {
		fmt.Fprintf(bw, "finding %s %s %d %s\n", f.Class, hex.EncodeToString(f.Addr[:]), f.PC, f.Description)
	}
	fmt.Fprintf(bw, "eof\n")
	return bw.Flush()
}

// EncodeBytes renders the snapshot to its canonical byte form.
func (s *Snapshot) EncodeBytes() []byte {
	var buf bytes.Buffer
	_ = s.Encode(&buf)
	return buf.Bytes()
}

func encodeSeed(w *bufio.Writer, kind string, s *Seed) {
	fmt.Fprintf(w, "%s newedges=%d nested=%d dist=%d gen=%d pathweight=%s hasmasks=%d\n",
		kind, s.NewEdges, s.HitNestedDepth, boolBit01(s.DistanceImproved), s.Gen,
		hexFloat(s.PathWeight), boolBit01(s.masks != nil))
	for i := range s.Seq {
		_, _ = w.Write(AppendTx(w.AvailableBuffer(), &s.Seq[i]))
	}
	if s.masks != nil {
		for i, m := range s.masks {
			fmt.Fprintf(w, "mask %d %s\n", i, encodeMask(m))
		}
	}
	fmt.Fprintf(w, "endseed\n")
}

// encodeMask renders a mask as one hex nibble per byte position (bit k set =
// mutation type k permitted); "-" is the nil mask (everything permitted).
func encodeMask(m *Mask) string {
	if m == nil {
		return "-"
	}
	var b strings.Builder
	for _, a := range m.allowed {
		n := 0
		for k := 0; k < int(numMutTypes); k++ {
			if a[k] {
				n |= 1 << k
			}
		}
		fmt.Fprintf(&b, "%x", n)
	}
	if b.Len() == 0 {
		return "." // present but zero-length
	}
	return b.String()
}

func decodeMask(s string) (*Mask, error) {
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

func boolBit01(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hexFloat renders a float64 exactly (hex mantissa/exponent form).
func hexFloat(f float64) string {
	return strconv.FormatFloat(f, 'x', -1, 64)
}

func parseSnapU256(s string) (u256.Int, error) {
	n, ok := new(big.Int).SetString(s, 0)
	if !ok {
		return u256.Int{}, fmt.Errorf("bad u256 %q", s)
	}
	return u256.FromBig(n), nil
}

func snapErr(line, format string, args ...any) error {
	return fmt.Errorf("fuzz: decode snapshot %q: %s", line, fmt.Sprintf(format, args...))
}

// DecodeSnapshot parses a snapshot from its text encoding. Every format
// version up to SnapshotVersion is accepted (older versions decode with the
// later-added fields at their zero values — the semantics the writing build
// had); newer versions are rejected with an explicit error instead of
// misparsing fields whose layout this build does not know.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
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
		return nil, snapErr(line, "missing %s header", snapshotMagic)
	}
	v, err := strconv.Atoi(strings.TrimPrefix(line, snapshotMagic+" v"))
	if err != nil || v < 1 {
		return nil, snapErr(line, "unsupported version")
	}
	if v > SnapshotVersion {
		return nil, snapErr(line, "format v%d was produced by a newer mufuzz (this build reads up to v%d)", v, SnapshotVersion)
	}

	line, ok = readLine()
	if !ok || !strings.HasPrefix(line, "contract ") {
		return nil, snapErr(line, "missing contract line")
	}
	s.Contract = strings.TrimPrefix(line, "contract ")

	line, ok = readLine()
	if !ok || !strings.HasPrefix(line, "codehash ") {
		return nil, snapErr(line, "missing codehash line")
	}
	hb, err := hex.DecodeString(strings.TrimPrefix(line, "codehash "))
	if err != nil || len(hb) != 32 {
		return nil, snapErr(line, "bad codehash")
	}
	copy(s.CodeHash[:], hb)

	line, ok = readLine()
	if !ok || !strings.HasPrefix(line, "strategy ") {
		return nil, snapErr(line, "missing strategy line")
	}
	var sb [8]int
	if v >= 2 {
		if _, err := fmt.Sscanf(line, "strategy name=%q dataflow=%d raw=%d prolong=%d dist=%d mask=%d energy=%d cmpfeed=%d dict=%d",
			&s.Options.Strategy.Name, &sb[0], &sb[1], &sb[2], &sb[3], &sb[4], &sb[5], &sb[6], &sb[7]); err != nil {
			return nil, snapErr(line, "bad strategy: %v", err)
		}
	} else {
		// v1: the comparison-feedback flags postdate the format; a campaign
		// snapshotted then ran without them, so they stay off on resume.
		if _, err := fmt.Sscanf(line, "strategy name=%q dataflow=%d raw=%d prolong=%d dist=%d mask=%d energy=%d",
			&s.Options.Strategy.Name, &sb[0], &sb[1], &sb[2], &sb[3], &sb[4], &sb[5]); err != nil {
			return nil, snapErr(line, "bad strategy: %v", err)
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
		return nil, snapErr(line, "missing options line")
	}
	var nocache, maxseq, energybase, initseeds int
	var gas, tbNS int64
	// The retired workers=, batched= and copystate= fields are read and
	// ignored: a snapshot an older build wrote at workers > 1 resumes on the
	// one engine.
	if _, err := fmt.Sscanf(line, "options seed=%d iters=%d maxseq=%d gas=%d energybase=%d initseeds=%d workers=%d batched=%d copystate=%d nocache=%d timebudgetns=%d",
		&s.Options.Seed, &s.Options.Iterations, &maxseq, &gas, &energybase, &initseeds,
		new(int), new(int), new(int), &nocache, &tbNS); err != nil {
		return nil, snapErr(line, "bad options: %v", err)
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
			return nil, snapErr(line, "%s=%d, want %d", f.name, f.got, f.want)
		}
	}
	s.Options.NoPrefixCache = nocache == 1
	s.Options.TimeBudget = time.Duration(tbNS)

	line, ok = readLine()
	if !ok || !strings.HasPrefix(line, "progress ") {
		return nil, snapErr(line, "missing progress line")
	}
	var elapsedNS int64
	if _, err := fmt.Sscanf(line, "progress execs=%d qi=%d corpus=%d rngdraws=%d lastnew=%d maskprobes=%d maskscomputed=%d seqmut=%d linesearches=%d linesteps=%d elapsedns=%d",
		&s.Executions, &s.QI, &s.CorpusSeeded, &s.RngDraws, &s.LastNewEdgeExec, &s.MaskProbes,
		&s.MasksComputed, &s.SequencesMutated, &s.LineSearches, &s.LineSteps, &elapsedNS); err != nil {
		return nil, snapErr(line, "bad progress: %v", err)
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
			return nil, snapErr(line, "negative %s=%d", f.name, f.n)
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
				return snapErr("", "truncated seed block")
			}
			fields := strings.Fields(line)
			if len(fields) == 0 {
				return snapErr(line, "blank line in seed block")
			}
			switch fields[0] {
			case "tx":
				tx, err := ParseTx(fields)
				if err != nil {
					return snapErr(line, "%v", err)
				}
				seed.Seq = append(seed.Seq, tx)
			case "mask":
				if len(fields) != 3 {
					return snapErr(line, "malformed mask")
				}
				idx, err := strconv.Atoi(fields[1])
				if err != nil {
					return snapErr(line, "bad mask index: %v", err)
				}
				m, err := decodeMask(fields[2])
				if err != nil {
					return snapErr(line, "%v", err)
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
							return snapErr(line, "mask index %d out of range", ml.idx)
						}
						seed.masks[ml.idx] = ml.mask
					}
				}
				return nil
			default:
				return snapErr(line, "unexpected line in seed block")
			}
		}
	}

	parseSeedHeader := func(line string, kind string) (*Seed, bool, error) {
		seed := &Seed{}
		var distBit, hasMasksBit int
		var pw string
		if _, err := fmt.Sscanf(line, kind+" newedges=%d nested=%d dist=%d gen=%d pathweight=%s hasmasks=%d",
			&seed.NewEdges, &seed.HitNestedDepth, &distBit, &seed.Gen, &pw, &hasMasksBit); err != nil {
			return nil, false, snapErr(line, "bad %s: %v", kind, err)
		}
		seed.DistanceImproved = distBit == 1
		w, err := strconv.ParseFloat(pw, 64)
		if err != nil {
			return nil, false, snapErr(line, "bad pathweight: %v", err)
		}
		seed.PathWeight = w
		return seed, hasMasksBit == 1, nil
	}

	var curRepro *ReproEntry
	for {
		line, ok = readLine()
		if !ok {
			return nil, snapErr("", "truncated snapshot (no eof)")
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return nil, snapErr(line, "blank line")
		}
		if curRepro != nil {
			switch fields[0] {
			case "tx":
				tx, err := ParseTx(fields)
				if err != nil {
					return nil, snapErr(line, "%v", err)
				}
				curRepro.Seq = append(curRepro.Seq, tx)
				continue
			case "endrepro":
				s.Repro = append(s.Repro, *curRepro)
				curRepro = nil
				continue
			default:
				return nil, snapErr(line, "unexpected line in repro block")
			}
		}
		switch fields[0] {
		case "covered":
			if len(fields) != 3 {
				return nil, snapErr(line, "malformed covered")
			}
			e, err := decodeSnapEdge(line, fields)
			if err != nil {
				return nil, err
			}
			s.Covered = append(s.Covered, e)
		case "weight":
			if len(fields) != 4 {
				return nil, snapErr(line, "malformed weight")
			}
			e, err := decodeSnapEdge(line, fields)
			if err != nil {
				return nil, err
			}
			w, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, snapErr(line, "bad weight: %v", err)
			}
			s.Weights = append(s.Weights, EdgeWeightEntry{Edge: e, W: w})
		case "tpoint":
			if len(fields) != 4 {
				return nil, snapErr(line, "malformed tpoint")
			}
			execs, err1 := strconv.Atoi(fields[1])
			ns, err2 := strconv.ParseInt(fields[2], 10, 64)
			cov, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, snapErr(line, "bad tpoint")
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
				return nil, snapErr(line, "malformed front")
			}
			e, err := decodeSnapEdge(line, fields)
			if err != nil {
				return nil, err
			}
			dist, err := parseSnapU256(fields[3])
			if err != nil {
				return nil, snapErr(line, "bad dist: %v", err)
			}
			op, err := strconv.Atoi(fields[4])
			if err != nil {
				return nil, snapErr(line, "bad cmp op: %v", err)
			}
			a, err := parseSnapU256(fields[5])
			if err != nil {
				return nil, snapErr(line, "bad cmp a: %v", err)
			}
			b, err := parseSnapU256(fields[6])
			if err != nil {
				return nil, snapErr(line, "bad cmp b: %v", err)
			}
			fe := FrontierEntry{Edge: e, Dist: dist, Cmp: evm.CmpInfo{Op: evm.OpCode(op), A: a, B: b}}
			line, ok = readLine()
			if !ok || !strings.HasPrefix(line, "fseed ") {
				return nil, snapErr(line, "front without fseed")
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
				return nil, snapErr(line, "malformed cmpop")
			}
			e, err := decodeSnapEdge(line, fields)
			if err != nil {
				return nil, err
			}
			a, err := parseSnapU256(fields[3])
			if err != nil {
				return nil, snapErr(line, "bad cmpop a: %v", err)
			}
			b, err := parseSnapU256(fields[4])
			if err != nil {
				return nil, snapErr(line, "bad cmpop b: %v", err)
			}
			s.CmpOps = append(s.CmpOps, CmpOpEntry{Edge: e, A: a, B: b})
		case "repro":
			if len(fields) != 2 {
				return nil, snapErr(line, "malformed repro")
			}
			curRepro = &ReproEntry{Class: oracle.BugClass(fields[1])}
		case "world":
			var ab, rb int
			if _, err := fmt.Sscanf(line, "world attacker=%d reconfirmed=%d", &ab, &rb); err != nil {
				return nil, snapErr(line, "bad world: %v", err)
			}
			s.Attacker = ab == 1
			s.REConfirmed = rb == 1
		case "worldmember":
			if len(fields) != 4 {
				return nil, snapErr(line, "malformed worldmember")
			}
			var pin WorldMemberPin
			pin.Name = fields[1]
			ab, err := hex.DecodeString(fields[2])
			if err != nil || len(ab) != len(state.Address{}) {
				return nil, snapErr(line, "bad worldmember address")
			}
			copy(pin.Addr[:], ab)
			ch, err := hex.DecodeString(fields[3])
			if err != nil || len(ch) != 32 {
				return nil, snapErr(line, "bad worldmember codehash")
			}
			copy(pin.CodeHash[:], ch)
			s.WorldMembers = append(s.WorldMembers, pin)
		case "detector":
			var rv, vo int
			if v >= 3 {
				if _, err := fmt.Sscanf(line, "detector received=%d valueout=%d", &rv, &vo); err != nil {
					return nil, snapErr(line, "bad detector: %v", err)
				}
			} else if _, err := fmt.Sscanf(line, "detector received=%d", &rv); err != nil {
				return nil, snapErr(line, "bad detector: %v", err)
			}
			s.ReceivedValue = rv == 1
			s.ValueOutSeen = vo == 1
		case "finding":
			// finding <class> <addr> <pc> <description...>
			if len(fields) < 4 {
				return nil, snapErr(line, "malformed finding")
			}
			ab, err := hex.DecodeString(fields[2])
			if err != nil || len(ab) != len(state.Address{}) {
				return nil, snapErr(line, "bad finding address")
			}
			pc, err := strconv.ParseUint(fields[3], 10, 64)
			if err != nil {
				return nil, snapErr(line, "bad finding pc: %v", err)
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
				return nil, snapErr(line, "eof inside repro block")
			}
			return s, nil
		default:
			return nil, snapErr(line, "unexpected line")
		}
	}
}

func decodeSnapEdge(line string, fields []string) (BranchEdge, error) {
	if len(fields) < 3 {
		return BranchEdge{}, snapErr(line, "malformed edge")
	}
	pc, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return BranchEdge{}, snapErr(line, "bad pc: %v", err)
	}
	return BranchEdge{PC: pc, Taken: fields[2] == "1"}, nil
}

// AppendTx appends the canonical line of one transaction to buf:
//
//	tx <func> <sender> <value> <args|-> [<callee> <attacker|->]
//
// Snapshots, corpus-seed payloads, conformance transcripts and fleet record
// chunks all carry sequences in this one form. Plain transactions keep the
// 5-field v1 form byte for byte; a nonzero callee or an attacker spec grows
// the line to the 7-field world form. Built with appends rather than fmt:
// transcripts encode one line per executed transaction.
func AppendTx(buf []byte, tx *TxInput) []byte {
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
	return append(buf, '\n')
}

// appendHexOrDash appends b in hex, or "-" when b is empty.
func appendHexOrDash(buf, b []byte) []byte {
	if len(b) == 0 {
		return append(buf, '-')
	}
	return hex.AppendEncode(buf, b)
}

// ParseTx parses the whitespace-split fields of one line written by
// AppendTx, keyword included. Sender and callee indexes must be
// non-negative: the executor reduces them modulo the pool sizes, so a
// negative index would panic mid-slice. Errors carry no prefix; each caller
// adds its own.
func ParseTx(fields []string) (TxInput, error) {
	if (len(fields) != 5 && len(fields) != 7) || fields[0] != "tx" {
		return TxInput{}, errors.New("malformed tx")
	}
	sender, err := strconv.Atoi(fields[2])
	if err != nil || sender < 0 {
		return TxInput{}, fmt.Errorf("bad sender %q", fields[2])
	}
	val, err := parseSnapU256(fields[3])
	if err != nil {
		return TxInput{}, fmt.Errorf("bad value: %v", err)
	}
	args, err := parseHexOrDash(fields[4])
	if err != nil {
		return TxInput{}, fmt.Errorf("bad args: %v", err)
	}
	tx := TxInput{Func: fields[1], Sender: sender, Value: val, Args: args}
	if len(fields) == 7 {
		tx.Callee, err = strconv.Atoi(fields[5])
		if err != nil || tx.Callee < 0 {
			return TxInput{}, fmt.Errorf("bad callee %q", fields[5])
		}
		if tx.Attacker, err = parseHexOrDash(fields[6]); err != nil {
			return TxInput{}, fmt.Errorf("bad attacker spec: %v", err)
		}
	}
	return tx, nil
}

func parseHexOrDash(s string) ([]byte, error) {
	if s == "-" {
		return nil, nil
	}
	return hex.DecodeString(s)
}

// EncodeSequence renders one transaction sequence as AppendTx lines — the
// canonical corpus-seed payload stores exchange.
func EncodeSequence(seq Sequence) []byte {
	var buf []byte
	for i := range seq {
		buf = AppendTx(buf, &seq[i])
	}
	return buf
}

// DecodeSequence parses a sequence written by EncodeSequence. A line longer
// than the scanner's 4 MiB bound fails the decode rather than truncating
// the sequence.
func DecodeSequence(data []byte) (Sequence, error) {
	var seq Sequence
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		tx, err := ParseTx(strings.Fields(line))
		if err != nil {
			return nil, snapErr(line, "%v", err)
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
