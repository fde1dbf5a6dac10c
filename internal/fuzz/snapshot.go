package fuzz

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
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
	case "":
		return nil, errors.New("empty mask")
	}
	m := &Mask{allowed: make([][numMutTypes]bool, len(s))}
	for i := 0; i < len(s); i++ {
		n := unhex(s[i])
		if n > 15 {
			return nil, fmt.Errorf("bad mask nibble %q", s[i:i+1])
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

// DecodeSnapshot parses a snapshot from its text encoding. Every format
// version up to SnapshotVersion is accepted (older versions decode with the
// later-added fields at their zero values — the semantics the writing build
// had); newer versions are rejected with an explicit error instead of
// misparsing fields whose layout this build does not know. Lines come in
// the order Encode writes them.
func DecodeSnapshot(rd io.Reader) (*Snapshot, error) {
	r := NewLineReader(rd, "fuzz: decode snapshot", 1<<24)
	s := &Snapshot{}
	v := r.Header(snapshotMagic, SnapshotVersion)
	r.Expect("contract")
	s.Contract = r.Rest("contract")
	r.Expect("codehash")
	r.Hex("codehash", s.CodeHash[:])

	r.Expect("strategy")
	st := &s.Options.Strategy
	st.Name = r.Quoted("name=")
	flags := []struct {
		key string
		v   *bool
	}{
		{"dataflow=", &st.DataflowSequences}, {"raw=", &st.RAWRepetition}, {"prolong=", &st.Prolongation},
		{"dist=", &st.BranchDistance}, {"mask=", &st.MutationMasking}, {"energy=", &st.DynamicEnergy},
		{"cmpfeed=", &st.CmpFeedback}, {"dict=", &st.MinedDictionary},
	}
	if v < 2 {
		// v1: the comparison-feedback flags postdate the format; a campaign
		// snapshotted then ran without them, so they stay off on resume.
		flags = flags[:6]
	}
	for _, f := range flags {
		*f.v = r.Flag(f.key)
	}

	r.Expect("options")
	s.Options.Seed = r.Int64("seed=")
	s.Options.Iterations = r.Int("iters=")
	s.Options.NoPrefixCache = r.EngineOptions("energybase=")
	s.Options.TimeBudget = time.Duration(r.Int64("timebudgetns="))

	// A negative count would index the seed queue or the budget arithmetic
	// out of range on the next slice.
	count := func(key string) int64 {
		n := r.Int64(key)
		if n < 0 {
			r.Fail("negative %s%d", key, n)
		}
		return n
	}
	r.Expect("progress")
	s.Executions = int(count("execs="))
	s.QI = int(count("qi="))
	s.CorpusSeeded = int(count("corpus="))
	s.RngDraws = r.Uint64("rngdraws=")
	s.LastNewEdgeExec = int(count("lastnew="))
	s.MaskProbes = int(count("maskprobes="))
	s.MasksComputed = int(count("maskscomputed="))
	s.SequencesMutated = int(count("seqmut="))
	s.LineSearches = int(count("linesearches="))
	s.LineSteps = int(count("linesteps="))
	s.Elapsed = time.Duration(count("elapsedns="))

	if r.Next("world") {
		s.Attacker = r.Flag("attacker=")
		s.REConfirmed = r.Flag("reconfirmed=")
		for r.Next("worldmember") {
			pin := WorldMemberPin{Name: r.Token("name")}
			r.Hex("address", pin.Addr[:])
			r.Hex("codehash", pin.CodeHash[:])
			s.WorldMembers = append(s.WorldMembers, pin)
		}
	}
	for r.Next("covered") {
		s.Covered = append(s.Covered, r.Edge())
	}
	for r.Next("weight") {
		s.Weights = append(s.Weights, EdgeWeightEntry{Edge: r.Edge(), W: r.Float("weight")})
	}
	for r.Next("tpoint") {
		s.Timeline = append(s.Timeline, TimelinePoint{
			Executions: r.Int("execs"), Elapsed: time.Duration(r.Int64("elapsedns")), Coverage: r.Float("coverage"),
		})
	}
	for r.Next("qseed") {
		s.Queue = append(s.Queue, readSeed(r))
	}
	for r.Next("front") {
		fe := FrontierEntry{Edge: r.Edge(), Dist: r.Word("dist")}
		if op := r.Uint64("op"); op > 0xff {
			r.Fail("bad op %d", op)
		} else {
			fe.Cmp.Op = evm.OpCode(op)
		}
		fe.Cmp.A, fe.Cmp.B = r.Word("a"), r.Word("b")
		r.Expect("fseed")
		fe.Seed = readSeed(r)
		s.Frontier = append(s.Frontier, fe)
	}
	for r.Next("cmpop") {
		s.CmpOps = append(s.CmpOps, CmpOpEntry{Edge: r.Edge(), A: r.Word("a"), B: r.Word("b")})
	}
	for r.Next("repro") {
		re := ReproEntry{Class: oracle.BugClass(r.Token("class")), Seq: r.TxBlock()}
		r.Expect("endrepro")
		s.Repro = append(s.Repro, re)
	}
	r.Expect("detector")
	s.ReceivedValue = r.Flag("received=")
	if v >= 3 {
		s.ValueOutSeen = r.Flag("valueout=")
	}
	for r.Next("finding") {
		f := oracle.Finding{Class: oracle.BugClass(r.Token("class"))}
		r.Hex("address", f.Addr[:])
		f.PC = r.Uint64("pc")
		f.Description = r.Rest("description")
		s.Findings = append(s.Findings, f)
	}
	r.Expect("eof")
	if err := r.Close(); err != nil {
		return nil, err
	}
	return s, nil
}

// readSeed reads a qseed or fseed block after its keyword: the header
// fields, the seed's tx lines, with hasmasks=1 one mask line per
// transaction in order, and endseed.
func readSeed(r *LineReader) *Seed {
	seed := &Seed{
		NewEdges: r.Int("newedges="), HitNestedDepth: r.Int("nested="), DistanceImproved: r.Flag("dist="),
		Gen: r.Int("gen="), PathWeight: r.Float("pathweight="),
	}
	hasMasks := r.Flag("hasmasks=")
	seed.Seq = r.TxBlock()
	if hasMasks {
		seed.masks = make([]*Mask, len(seed.Seq))
		for i := range seed.masks {
			r.Expect("mask")
			if n := r.Int("index"); n != i {
				r.Fail("mask index %d, want %d", n, i)
			}
			tok, _ := r.token("mask")
			m, err := decodeMask(tok)
			if err != nil {
				r.bad("mask", tok)
			}
			seed.masks[i] = m
		}
	}
	r.Expect("endseed")
	return seed
}
