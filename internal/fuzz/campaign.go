package fuzz

import (
	"context"
	"math/rand"
	"time"

	"mufuzz/internal/abi"
	"mufuzz/internal/analysis"
	"mufuzz/internal/evm"
	"mufuzz/internal/minisol"
	"mufuzz/internal/oracle"
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// Options configures one fuzzing campaign.
type Options struct {
	Strategy Strategy
	// Seed makes the campaign deterministic.
	Seed int64
	// Iterations is the transaction-sequence execution budget (mask probes
	// count against it). Default 2000.
	Iterations int
	// TimeBudget optionally caps wall-clock time (0 = unlimited).
	TimeBudget time.Duration
	// Workers is ignored: a campaign runs on one goroutine, and more cores
	// run more campaigns (the service's slots, the fleet's workers). The
	// defaults set it to 1 whatever was asked, so transcripts and snapshots
	// record workers=1.
	//
	// Deprecated: kept only because the benchmark harness in bench/ still
	// sets it.
	Workers int
	// NoPrefixCache disables the intermediate-state checkpoint optimization
	// (paper §VI); used for ablation and equivalence testing.
	NoPrefixCache bool
	// NoIR pins every executor EVM to the reference switch-loop interpreter
	// instead of the compiled-IR hot path. The IR engine must be
	// byte-identical to the switch loop; running a whole campaign under NoIR
	// is the conformance ablation that proves it end-to-end.
	NoIR bool
	// Observer, when non-nil, receives one ExecRecord per execution on the
	// campaign's goroutine in execution order. Observing never
	// changes campaign behavior; it is the conformance transcript hook.
	Observer ExecObserver
	// World turns the campaign into a multi-contract adversarial world:
	// secondary contracts deploy alongside the primary, sequences carry a
	// callee index per transaction, and an optional attacker model replaces
	// the reentrant-attacker native with synthesized bytecode whose behavior
	// is mutated seed material. Nil — or a world that adds nothing (no
	// members, no attacker) — is normalized away, keeping the single-contract
	// path byte-identical to the classic engine.
	World *WorldOptions
}

// Fixed campaign parameters. Snapshot and transcript options lines print
// them, and both decoders reject any other value.
const (
	// MaxSeqLen bounds sequence growth.
	MaxSeqLen = 8
	// GasPerTx is the gas limit per transaction.
	GasPerTx uint64 = 2_000_000
	// EnergyBase is the mutation budget per selected seed.
	EnergyBase = 16
	// InitialSeeds is the size of the initial corpus.
	InitialSeeds = 4
)

// Normalized returns the options with every default applied — exactly the
// configuration the engine runs under. Conformance transcripts record the
// normalized form so a replay does not depend on the engine's default values
// staying unchanged across versions.
func (o *Options) Normalized() Options { return o.withDefaults() }

func (o *Options) withDefaults() Options {
	out := *o
	if out.Iterations == 0 {
		out.Iterations = 2000
	}
	out.Workers = 1
	if worldEmpty(out.World) {
		out.World = nil
	}
	return out
}

// TimelinePoint samples coverage growth for the Fig. 5 curves.
type TimelinePoint struct {
	Executions int
	Elapsed    time.Duration
	Coverage   float64
}

// Result is the outcome of one campaign.
type Result struct {
	Strategy     string
	CoveredEdges int
	TotalEdges   int
	Coverage     float64 // CoveredEdges / TotalEdges
	Findings     []oracle.Finding
	Executions   int
	Elapsed      time.Duration
	Timeline     []TimelinePoint
	BugClasses   map[oracle.BugClass]bool
	// Repro maps each detected bug class to the first transaction sequence
	// that triggered it (a proof of concept; see Campaign.MinimizeForBug).
	Repro            map[oracle.BugClass]Sequence
	SeedQueueLen     int
	MasksComputed    int
	SequencesMutated int
}

// Campaign is the fuzzing loop for one contract. It owns all feedback state —
// coverage, branch distances, the seed queue, finding aggregation — and runs
// the schedule's executions on one executor, folding each outcome as it
// arrives. The executor never touches campaign state.
type Campaign struct {
	target Target
	// code caches target.Code(): the runtime bytecode every analysis,
	// executor, and oracle of the campaign runs against.
	code []byte
	opts Options
	// rng is the coordinator's deterministic schedule source; rngSrc counts
	// its draws so snapshots can capture and restore the rng state exactly.
	rng      *rand.Rand
	rngSrc   *countedSource
	cfg      *analysis.CFG
	detector *oracle.Detector
	exec     *executor
	// ctorName anchors every sequence (element 0); depOrder, repeatable, and
	// callable cache the target's dataflow artifacts.
	ctorName   string
	depOrder   []string
	repeatable []string
	callable   []string
	// Multi-contract world tables, nil for single-contract campaigns.
	// worldTargets/worldAddrs map callee indices to contracts (0 = primary);
	// calleeOf resolves a (possibly qualified) function name to its callee
	// index; ctorOrder lists the member constructors in cross-contract
	// dependency order; attackerModel, when set, synthesizes the attacker
	// contract from the anchor's spec. reConfirmed memoizes that a reentrancy
	// finding already passed the state-divergence confirmation, so later
	// duplicate reports skip the replay pair.
	world         *WorldOptions
	worldTargets  []Target
	worldAddrs    []state.Address
	calleeOf      map[string]int
	ctorOrder     []string
	attackerModel AttackerModel
	reConfirmed   bool
	// replayExecs are the two detached executors reentrancyDiverges replays
	// on, one per side of the comparison. They are caches, built on first
	// use and kept warm for the rest of the campaign; snapshots leave them
	// out, and a resumed campaign builds them again.
	replayExecs [2]*executor

	// identities
	genesis      *state.State
	contractAddr state.Address
	deployer     state.Address
	senders      []state.Address
	attackerAddr state.Address

	// branchIx interns every branch edge of the contract once per campaign;
	// edge-ID order is the deterministic branch order every selection uses
	// (previously re-derived by sorting map keys on each pick). All feedback
	// state below is indexed by edge ID.
	branchIx *analysis.BranchIndex
	// depthByEdge is the compile-time branch-site nesting depth per edge
	// (minisol BranchSite metadata).
	depthByEdge []int

	// feedback state, all dense over the edge-ID space
	covered      []bool
	coveredCount int
	// distKnown marks the branch-distance frontier of Algorithm 1 (lines
	// 7-13): the uncovered edges some execution came close to flipping.
	// minDist/distCmp hold the best distance and its comparison; distSeed
	// holds the seed that achieved it (the Seed, not just the sequence,
	// preserving its computed mask cache). distCount counts frontier edges.
	distKnown []bool
	minDist   []u256.Int
	distCmp   []evm.CmpInfo
	distSeed  []*Seed
	distCount int
	// cmpOps is the per-uncovered-edge operand table (Strategy.CmpFeedback):
	// beyond the single best-distance pair in distCmp, every distinct
	// comparison operand pair observed at an edge is kept, FIFO-bounded to
	// cmpOpsPerEdge, for splicing into mutated inputs. Cleared when the edge
	// is covered.
	cmpOps [][]cmpPair

	weights    *analysis.EdgeWeights
	totalEdges int
	pool       []u256.Int
	addrPool   []u256.Int
	// methods interns ABI method lookups by function name (constructor
	// included), shared read-only with the executor.
	methods map[string]abi.Method

	prefixes *prefixCache
	// seedPrefix is the prefix-hash table of the running round's seed: the
	// boundaries executions may checkpoint (see executor.run). Nil outside a
	// round, so the initial corpus and injected sequences store nothing.
	seedPrefix []uint64
	// repro holds, per bug class, the first sequence observed triggering it
	// — the proof-of-concept the CLI minimizes and prints.
	repro map[oracle.BugClass]Sequence

	queue []*Seed
	// appended counts the seeds appended to queue since the campaign was
	// opened (see Appended); snapshots do not carry it.
	appended   int
	executions int
	// qi is the round-robin queue cursor of the main loop; a struct field so
	// pausing between rounds (RunSlice) and snapshotting preserve it.
	qi int
	// corpusSeeded counts initial-corpus seeds built so far; the corpus phase
	// is resumable mid-way after a cancellation or snapshot.
	corpusSeeded int
	// ctx, when non-nil, is the cancellation signal of the slice currently
	// running: a cancelled context reads as an exhausted budget, stopping the
	// campaign cleanly at the next execution boundary.
	ctx context.Context
	// elapsedPrior accumulates the run time of completed slices; sliceStart
	// stamps the slice in flight. elapsed() is the campaign's total active
	// run time, excluding the gaps a time-slicing scheduler parks it for.
	elapsedPrior time.Duration
	sliceStart   time.Time
	inSlice      bool
	timeline     []TimelinePoint

	masksComputed    int
	maskProbes       int
	sequencesMutated int
	lastNewEdgeExec  int
	lineSearches     int
	lineSteps        int
}

// PrefixCacheStats reports checkpoint cache hits and misses.
func (c *Campaign) PrefixCacheStats() (hits, misses int) { return c.prefixes.stats() }

// NewCampaign prepares a campaign for a compiled MiniSol contract — the
// classic entry point, equivalent to NewTargetCampaign over the minisol
// adapter.
func NewCampaign(comp *minisol.Compiled, opts Options) *Campaign {
	return NewTargetCampaign(MinisolTarget(comp), opts)
}

// NewTargetCampaign prepares a campaign for any fuzzable target: a compiled
// MiniSol contract (MinisolTarget) or source-free deployed bytecode with an
// ABI (internal/ingest).
func NewTargetCampaign(t Target, opts Options) *Campaign {
	o := opts.withDefaults()
	src := newCountedSource(o.Seed, 0)
	code := t.Code()
	c := &Campaign{
		target:     t,
		code:       code,
		opts:       o,
		rng:        rand.New(src),
		rngSrc:     src,
		cfg:        analysis.BuildCFG(code),
		ctorName:   t.Constructor().Name,
		depOrder:   t.DependencyOrder(),
		repeatable: t.RepeatCandidates(),
	}
	for _, m := range t.Methods() {
		c.callable = append(c.callable, m.Name)
	}
	c.branchIx = analysis.NewBranchIndex(c.cfg)
	numEdges := c.branchIx.NumEdges()
	c.covered = make([]bool, numEdges)
	c.distKnown = make([]bool, numEdges)
	c.minDist = make([]u256.Int, numEdges)
	c.distCmp = make([]evm.CmpInfo, numEdges)
	c.distSeed = make([]*Seed, numEdges)
	c.cmpOps = make([][]cmpPair, numEdges)
	c.weights = analysis.NewEdgeWeights(c.branchIx)
	c.depthByEdge = make([]int, numEdges)
	for _, site := range t.Branches() {
		if id, ok := c.branchIx.EdgeID(site.PC, false); ok {
			c.depthByEdge[id] = site.Depth
			c.depthByEdge[id^1] = site.Depth
		}
	}
	if !o.NoPrefixCache {
		c.prefixes = newPrefixCache(96)
	}
	c.repro = make(map[oracle.BugClass]Sequence)

	c.deployer = state.AddressFromUint(0xd431)
	userA := state.AddressFromUint(0x0a11)
	userB := state.AddressFromUint(0x0b22)
	c.attackerAddr = state.AddressFromUint(0xa77c)
	c.contractAddr = state.AddressFromUint(0xc0de)
	c.senders = []state.Address{c.deployer, userA, userB, c.attackerAddr}

	c.genesis = state.New()
	rich := u256.One.Lsh(120)
	for _, s := range c.senders {
		c.genesis.SetBalance(s, rich)
	}
	c.genesis.Commit()

	c.totalEdges = c.branchIx.NumEdges()

	// Address argument pool: every account that exists in the fuzzed world.
	for _, s := range c.senders {
		c.addrPool = append(c.addrPool, s.Word())
	}
	c.addrPool = append(c.addrPool, c.contractAddr.Word())

	// Value pool: defaults + constants harvested from PUSH immediates.
	c.pool = defaultValuePool()
	for _, ins := range analysis.Disassemble(code) {
		if ins.Op.IsPush() && len(ins.Imm) > 0 && len(ins.Imm) <= 32 {
			v := u256.FromBytes(ins.Imm)
			if !v.IsZero() && v.BitLen() < 200 {
				c.pool = append(c.pool, v)
			}
		}
	}
	// Mined dictionary: target-specific constants the PUSH harvest cannot
	// see (folded multi-instruction magics, keccak mapping bases, creation-
	// code immediates). Merged only under the flag, deduplicated against the
	// harvest, so legacy strategies keep today's exact pool and transcripts.
	if o.Strategy.MinedDictionary {
		seen := make(map[u256.Int]bool, len(c.pool))
		for _, v := range c.pool {
			seen[v] = true
		}
		for _, v := range t.Dictionary() {
			if !seen[v] {
				seen[v] = true
				c.pool = append(c.pool, v)
			}
		}
	}

	methods, selectors := internMethods(t)
	c.methods = methods
	c.initWorld(o.World, methods, selectors)
	c.detector = c.newDetector()
	c.exec = &executor{
		target:        t,
		genesis:       c.genesis,
		contractAddr:  c.contractAddr,
		deployer:      c.deployer,
		attackerAddr:  c.attackerAddr,
		senders:       c.senders,
		inspector:     c.detector.Inspector(),
		prefixes:      c.prefixes,
		branchIx:      c.branchIx,
		methods:       methods,
		selectors:     selectors,
		worldAddrs:    c.worldAddrs,
		worldTargets:  c.worldTargets,
		attackerModel: c.attackerModel,
		// Compile the contract's IR once per campaign; detached replay
		// executors share the read-only Program, so none pays the
		// decode+fuse pass again.
		prog: evm.CompileProgram(code),
		noIR: o.NoIR,
	}
	return c
}

// initWorld wires the multi-contract tables of a world campaign: member
// deployment addresses, qualified method/selector interning ("member.fn"),
// callee indexing, the cross-contract §IV-A ordering of constructors and
// dependency blocks, and the attacker model. No-op for single-contract
// campaigns (w nil), so the default path stays byte-identical.
func (c *Campaign) initWorld(w *WorldOptions, methods map[string]abi.Method, selectors map[string][4]byte) {
	if w == nil {
		return
	}
	c.world = w
	c.attackerModel = w.Attacker
	c.worldTargets = []Target{c.target}
	c.worldAddrs = []state.Address{c.contractAddr}
	c.calleeOf = make(map[string]int, 2*len(methods))
	for name := range methods {
		c.calleeOf[name] = 0
	}
	for i, m := range w.Members {
		addr := m.Addr
		if addr == (state.Address{}) {
			addr = WorldMemberAddr(i)
		}
		c.worldTargets = append(c.worldTargets, m.Target)
		c.worldAddrs = append(c.worldAddrs, addr)
		c.addrPool = append(c.addrPool, addr.Word())
	}
	for i, m := range w.Members {
		idx := i + 1
		register := func(fn abi.Method) {
			q := m.Name + "." + fn.Name
			methods[q] = fn
			selectors[q] = fn.Selector()
			c.calleeOf[q] = idx
		}
		register(m.Target.Constructor())
		for _, fn := range m.Target.Methods() {
			register(fn)
		}
		for _, fn := range m.Target.RepeatCandidates() {
			c.repeatable = append(c.repeatable, m.Name+"."+fn)
		}
		// Member PUSH immediates join the value pool, same harvest as the
		// primary's.
		for _, ins := range analysis.Disassemble(m.Target.Code()) {
			if ins.Op.IsPush() && len(ins.Imm) > 0 && len(ins.Imm) <= 32 {
				v := u256.FromBytes(ins.Imm)
				if !v.IsZero() && v.BitLen() < 200 {
					c.pool = append(c.pool, v)
				}
			}
		}
	}
	// Cross-contract §IV-A: order the world's targets writer-before-reader
	// over recovered inter-contract links (a target whose bytecode references
	// another member's address depends on it), then rebuild the constructor,
	// callable, and dependency orders as per-target blocks in that order.
	order := c.worldOrder()
	var callable, depOrder []string
	for _, ti := range order {
		if ti == 0 {
			callable = append(callable, c.callable...)
			depOrder = append(depOrder, c.depOrder...)
			continue
		}
		m := w.Members[ti-1]
		c.ctorOrder = append(c.ctorOrder, m.Name+"."+m.Target.Constructor().Name)
		for _, fn := range m.Target.Methods() {
			callable = append(callable, m.Name+"."+fn.Name)
		}
		for _, fn := range m.Target.DependencyOrder() {
			depOrder = append(depOrder, m.Name+"."+fn)
		}
	}
	c.callable, c.depOrder = callable, depOrder
}

// worldOrder topologically orders the world's target indices (0 = primary)
// so a target whose bytecode links another member's deployment address comes
// after it — the cross-contract extension of the paper's write→read
// dependency ordering. Targets without recovered links, and cycles, fall
// back to declaration order (depth-first in index order, visiting-node edges
// skipped).
func (c *Campaign) worldOrder() []int {
	n := len(c.worldTargets)
	addrIdx := make(map[state.Address]int, n)
	for i, a := range c.worldAddrs {
		addrIdx[a] = i
	}
	deps := make([][]int, n)
	for i, t := range c.worldTargets {
		if lt, ok := t.(LinkedTarget); ok {
			for _, a := range lt.LinkedAddresses() {
				if j, ok := addrIdx[a]; ok && j != i {
					deps[i] = append(deps[i], j)
				}
			}
		}
	}
	order := make([]int, 0, n)
	mark := make([]int, n) // 0 unvisited, 1 visiting, 2 done
	var visit func(i int)
	visit = func(i int) {
		mark[i] = 1
		for _, j := range deps[i] {
			if mark[j] == 0 {
				visit(j)
			}
		}
		mark[i] = 2
		order = append(order, i)
	}
	for i := 0; i < n; i++ {
		if mark[i] == 0 {
			visit(i)
		}
	}
	return order
}

// newDetector builds a fresh detector in the campaign's oracle mode:
// witnessed for world campaigns — findings need a real cross-contract
// schedule in the trace, not a taint shape — heuristic otherwise. Replay and
// minimization build their detectors here so verdicts match the live
// campaign's.
func (c *Campaign) newDetector() *oracle.Detector {
	if c.world != nil {
		return oracle.NewWitnessedDetector(c.contractAddr, c.code, c.attackerAddr)
	}
	return oracle.NewDetector(c.contractAddr, c.code)
}

// confirmReport gates witnessed reentrancy findings behind the state-
// divergence bar. The candidate prefix replays twice on detached executors —
// once with the synthesized attacker, once with the attacker stripped to a
// plain EOA — and RE findings survive only when some account of the world
// ends in a different state (the reentrant schedule changed the outcome).
// Reports without RE findings pass through untouched. The second return
// value reports whether an RE finding was present and confirmed.
func (c *Campaign) confirmReport(prefix Sequence, rep oracle.Report) (oracle.Report, bool) {
	hasRE := false
	for _, f := range rep.Findings {
		if f.Class == oracle.RE {
			hasRE = true
			break
		}
	}
	if !hasRE {
		return rep, false
	}
	if c.reentrancyDiverges(prefix) {
		return rep, true
	}
	kept := rep
	kept.Findings = nil
	for _, f := range rep.Findings {
		if f.Class != oracle.RE {
			kept.Findings = append(kept.Findings, f)
		}
	}
	return kept, false
}

// reentrancyDiverges replays prefix from genesis with and without the
// attacker contract (the stripped run leaves the attacker an EOA whose
// callbacks do nothing) and compares the final world states account by
// account over every address the campaign controls: the world's contracts,
// the attacker, and the senders.
func (c *Campaign) reentrancyDiverges(prefix Sequence) bool {
	stripped := prefix.Clone()
	stripped[0].Attacker = nil
	if c.replayExecs[0] == nil {
		c.replayExecs = [2]*executor{c.exec.detached(), c.exec.detached()}
	}
	withAtk := c.replayExecs[0].runFinalState(prefix)
	plain := c.replayExecs[1].runFinalState(stripped)
	for _, a := range c.worldAddrs {
		if !withAtk.AccountEqual(plain, a) {
			return true
		}
	}
	if !withAtk.AccountEqual(plain, c.attackerAddr) {
		return true
	}
	for _, s := range c.senders {
		if !withAtk.AccountEqual(plain, s) {
			return true
		}
	}
	return false
}

// --- Sequence construction ---

// newTx builds a transaction for fn with random inputs drawn from the
// campaign's rng.
func (c *Campaign) newTx(fn string) TxInput {
	m := c.methods[fn]
	tx := TxInput{
		Func:   fn,
		Args:   randomArgsFor(m, c.rng, c.pool, c.addrPool),
		Sender: c.rng.Intn(len(c.senders)),
	}
	if c.calleeOf != nil {
		tx.Callee = c.calleeOf[fn]
	}
	if m.Payable && c.rng.Intn(2) == 0 {
		tx.Value = c.pool[c.rng.Intn(len(c.pool))]
	}
	return tx
}

// initialSequence builds a base sequence per the strategy: the dependency
// order of §IV-A for dataflow strategies, a random order otherwise. The
// constructor is always first.
func (c *Campaign) initialSequence() Sequence {
	seq := Sequence{c.newTx(c.ctorName)}
	seq[0].Sender = 0 // the deployer deploys
	seq[0].Value = u256.Zero
	if c.attackerModel != nil {
		seq[0].Attacker = c.attackerModel.Default()
	}
	// World campaigns run every member's constructor right after the anchor,
	// in cross-contract dependency order (linked-to members first).
	for _, fn := range c.ctorOrder {
		tx := c.newTx(fn)
		tx.Sender = 0
		tx.Value = u256.Zero
		seq = append(seq, tx)
	}

	var order []string
	if c.opts.Strategy.DataflowSequences {
		order = c.depOrder
	} else {
		order = append([]string(nil), c.callable...)
		c.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, fn := range order {
		if len(seq) >= MaxSeqLen {
			break
		}
		seq = append(seq, c.newTx(fn))
	}
	return seq
}

// --- Execution ---

// execResult is the feedback from running one sequence, after the outcome
// has been folded into campaign state.
type execResult struct {
	newEdges       int
	hitNestedDepth int
	distImproved   bool
	// branchesByTx references the outcome's per-transaction branch events
	// (shared, immutable — no flattened copy is materialized).
	branchesByTx [][]evm.BranchEvent
	// newEdgeIDs lists the newly covered edge IDs in event order; collected
	// only when an Observer is installed (nil on the default hot path).
	newEdgeIDs []int32
}

// fold integrates a batch of contract branch events into the campaign's
// coverage, nesting, and branch-distance bookkeeping. It is shared between
// live execution and prefix-checkpoint replay so both paths produce
// identical feedback. Coordinator-only.
//
// The whole fold is indexed: events carry interned edge IDs, so coverage,
// distance, and nesting bookkeeping are array walks with no hashing. id^1 is
// the opposite direction of an edge (see analysis.BranchIndex).
func (c *Campaign) fold(res *execResult, branches []evm.BranchEvent, seq Sequence) {
	for _, br := range branches {
		id := br.Edge
		if !c.covered[id] {
			c.covered[id] = true
			c.coveredCount++
			res.newEdges++
			c.lastNewEdgeExec = c.executions
			if c.opts.Observer != nil {
				res.newEdgeIDs = append(res.newEdgeIDs, id)
			}
			if c.distKnown[id] {
				// the edge left the distance frontier by being covered
				c.distKnown[id] = false
				c.distSeed[id] = nil
				c.distCount--
			}
			c.cmpOps[id] = nil
		}
		if d := c.depthByEdge[id]; d > res.hitNestedDepth {
			res.hitNestedDepth = d
		}
		// branch distance toward the uncovered opposite direction
		opp := id ^ 1
		if !c.covered[opp] && br.HasCmp {
			if c.opts.Strategy.CmpFeedback {
				c.recordCmpPair(opp, br.Cmp)
			}
			d := br.Cmp.FlipDistance()
			if !c.distKnown[opp] || d.Lt(c.minDist[opp]) {
				res.distImproved = true
				if !c.distKnown[opp] {
					c.distKnown[opp] = true
					c.distCount++
				}
				c.minDist[opp] = d
				c.distCmp[opp] = br.Cmp
				c.distSeed[opp] = &Seed{Seq: seq.Clone(), DistanceImproved: true}
			}
		}
	}
	if c.opts.Strategy.DynamicEnergy {
		c.weights.MergeTrace(branches)
	}
}

// foldOutcome merges one executor outcome into campaign state, transaction
// by transaction, exactly the way a live single-threaded execution would
// have: coverage/distance fold, then oracle absorption and proof-of-concept
// capture, per transaction in order.
func (c *Campaign) foldOutcome(seq Sequence, out *execOutcome) execResult {
	res := execResult{branchesByTx: out.branchesByTx}
	var newClasses []oracle.BugClass
	ri := 0
	for i, txBranches := range out.branchesByTx {
		c.fold(&res, txBranches, seq)
		for ri < len(out.reports) && out.reports[ri].txIdx == i {
			rep := out.reports[ri].report
			// World campaigns with attacker synthesis hold reentrancy findings
			// to the divergence bar before they enter the aggregate: the
			// reentrant schedule must actually change the outcome. Once one
			// finding passed, duplicates skip the replay pair.
			if c.attackerModel != nil && !c.reConfirmed {
				var confirmed bool
				rep, confirmed = c.confirmReport(seq[:i+1], rep)
				if confirmed {
					c.reConfirmed = true
				}
			}
			for _, class := range c.detector.Absorb(rep) {
				if _, have := c.repro[class]; !have {
					// keep only the prefix up to and including the tx that fired
					c.repro[class] = seq[:i+1].Clone()
				}
				if c.opts.Observer != nil {
					newClasses = append(newClasses, class)
				}
			}
			ri++
		}
	}
	if res.newEdges > 0 {
		c.timeline = append(c.timeline, TimelinePoint{
			Executions: c.executions,
			Elapsed:    c.elapsed(),
			Coverage:   c.CoverageRatio(),
		})
	}
	if obs := c.opts.Observer; obs != nil {
		edges := make([]BranchEdge, len(res.newEdgeIDs))
		for i, id := range res.newEdgeIDs {
			pc, taken := c.branchIx.Edge(id)
			edges[i] = BranchEdge{PC: pc, Taken: taken}
		}
		obs.OnExec(ExecRecord{
			Index:        c.executions,
			Seq:          seq.Clone(),
			NewEdges:     edges,
			CoveredAfter: c.coveredCount,
			NestedDepth:  res.hitNestedDepth,
			DistImproved: res.distImproved,
			NewClasses:   newClasses,
		})
	}
	return res
}

// execute runs a sequence on the coordinator's executor and folds its
// feedback into the campaign. Every execution — including Algorithm 2 mask
// probes — counts toward coverage and the oracles, the way any AFL-family
// fuzzer counts all of its executions.
func (c *Campaign) execute(seq Sequence) execResult {
	c.executions++
	out := c.exec.run(seq, c.seedPrefix)
	return c.foldOutcome(seq, &out)
}

// Covered returns the covered branch edges as a BranchKey set — a snapshot
// materialized from the campaign's coverage bitset (diagnostics; the engine
// itself never builds this map).
func (c *Campaign) Covered() map[evm.BranchKey]bool {
	out := make(map[evm.BranchKey]bool, c.coveredCount)
	for id, cov := range c.covered {
		if cov {
			pc, taken := c.branchIx.Edge(int32(id))
			out[evm.BranchKey{Addr: c.contractAddr, PC: pc, Taken: taken}] = true
		}
	}
	return out
}

// EdgeCovered reports whether the (pc, taken) branch edge of the contract
// under test is covered — an O(1) probe through the branch index, for
// callers that would otherwise materialize the whole Covered set to test
// one edge.
func (c *Campaign) EdgeCovered(pc uint64, taken bool) bool {
	if id, ok := c.branchIx.EdgeID(pc, taken); ok {
		return c.covered[id]
	}
	return false
}

// CoverageRatio returns covered/total branch edges.
func (c *Campaign) CoverageRatio() float64 {
	if c.totalEdges == 0 {
		return 1
	}
	return float64(c.coveredCount) / float64(c.totalEdges)
}

// --- Energy (paper §IV-C) ---

// energyFor assigns the mutation budget of a seed. With dynamic energy the
// budget scales with the Algorithm 3 weight of the seed's path; otherwise it
// is uniform (sFuzz's default scheme).
func (c *Campaign) energyFor(seed *Seed) int {
	base := EnergyBase
	if !c.opts.Strategy.DynamicEnergy || c.weights.Count() == 0 {
		return base
	}
	// total and count are maintained incrementally by the weight fold, so
	// energy assignment is O(1) instead of a map sweep per seed.
	avg := c.weights.Total() / float64(c.weights.Count())
	if avg <= 0 {
		return base
	}
	scale := 1.0 + seed.PathWeight/(avg*8)
	if scale > 4 {
		scale = 4
	}
	e := int(float64(base) * scale)
	if e < 1 {
		e = 1
	}
	return e
}

// --- Mutation of one seed ---

// mutateSeed produces a child: sequence-level mutation (sometimes) plus
// input-level byte mutations filtered by the seed's masks, all drawn from the
// campaign rng.
func (c *Campaign) mutateSeed(seed *Seed) *Seed {
	rng := c.rng
	child := seed.Clone()
	sm := &seqMutator{
		strategy:   c.opts.Strategy,
		repeatable: c.repeatable,
		callable:   c.callable,
	}

	// Sequence-level mutation with probability 1/3 (the paper mutates the
	// sequence once and then focuses on inputs).
	if rng.Intn(3) == 0 {
		child.Seq = sm.mutateSequence(child.Seq, rng, c.newTx, MaxSeqLen)
		c.sequencesMutated++
	}

	// Attacker-spec mutation: the synthesized attacker's callback behavior —
	// which victim selector it re-enters, with what calldata, to what depth,
	// whether it reverts — is seed material riding on the anchor. The draw is
	// gated on the model, so single-contract rng streams are untouched.
	if c.attackerModel != nil && rng.Intn(4) == 0 {
		child.Seq[0].Attacker = c.attackerModel.Mutate(child.Seq[0].Attacker, rng)
	}

	// Sender alignment: same-account deposit/withdraw patterns (reentrancy,
	// refunds) need every transaction issued by one identity; occasionally
	// unify all senders.
	if rng.Intn(8) == 0 {
		s := rng.Intn(len(c.senders))
		for i := 1; i < len(child.Seq); i++ {
			child.Seq[i].Sender = s
		}
	}

	// Input-level mutation on 1-2 transactions.
	nMut := 1 + rng.Intn(2)
	for k := 0; k < nMut; k++ {
		if len(child.Seq) <= 1 {
			break
		}
		ti := rng.Intn(len(child.Seq)-1) + 1
		tx := &child.Seq[ti]
		stream := tx.Stream()
		if len(stream) == 0 {
			continue
		}
		var mask *Mask
		if c.opts.Strategy.MutationMasking && ti < len(seed.masks) {
			mask = seed.masks[ti]
		}
		// A mask is a license to mutate hard: critical positions are frozen,
		// so several mutations can be stacked per child without destroying
		// the property that made the seed valuable (the FairFuzz effect).
		rounds := 1
		if mask != nil && mask.AllowedCount() > 0 {
			rounds = 2 + rng.Intn(4)
		}
		for r := 0; r < rounds; r++ {
			var nudge *nudgeInfo
			stream, nudge = c.mutateStream(stream, mask)
			if nudge != nil {
				nudge.txIdx = ti
				child.lastNudge = nudge
			}
		}
		tx.SetStream(stream)
		// occasionally flip the sender
		if rng.Intn(8) == 0 {
			tx.Sender = rng.Intn(len(c.senders))
		}
	}
	return child
}

// mutateStream applies one input mutation respecting the mask. When the
// mutation is an arithmetic word nudge, its descriptor is returned so the
// campaign can replay it as a greedy line search on branch distance.
func (c *Campaign) mutateStream(stream []byte, mask *Mask) ([]byte, *nudgeInfo) {
	rng := c.rng
	// Distance-directed mutation: copy a comparison operand of an uncovered
	// branch into a word, or nudge a word arithmetically (sFuzz-style
	// descent). Available to strategies with branch-distance feedback.
	if c.opts.Strategy.BranchDistance && c.distCount > 0 && rng.Intn(2) == 0 {
		id := c.nthFrontierEdge(rng.Intn(c.distCount))
		cmp := c.distCmp[id]
		i := rng.Intn(len(stream))
		// Operand-table splicing (CmpFeedback): half the time, plant one of
		// the edge's observed operand pairs — not just the best-distance one —
		// into the word at i, writing only mask-permitted bytes. With the flag
		// off no extra rng draw happens, so legacy transcripts are unchanged.
		if c.opts.Strategy.CmpFeedback {
			if ops := c.cmpOps[id]; len(ops) > 0 && rng.Intn(2) == 0 {
				p := ops[rng.Intn(len(ops))]
				v := p.a
				if rng.Intn(2) == 1 {
					v = p.b
				}
				return writeWordAtMasked(stream, i, v, mask), nil
			}
		}
		if mask.OK(MutOverwrite, (i/32)*32) {
			switch rng.Intn(3) {
			case 0:
				return writeWordAt(stream, i, cmp.A), nil
			case 1:
				return writeWordAt(stream, i, cmp.B), nil
			default:
				d := nudgeDeltas[rng.Intn(len(nudgeDeltas))]
				return nudgeWordAt(stream, i, d), &nudgeInfo{pos: i, delta: d}
			}
		}
	}

	// Plain O/I/R/D mutation; retry a few times to find a permitted spot.
	for attempt := 0; attempt < 8; attempt++ {
		x := MutType(rng.Intn(int(numMutTypes)))
		n := 1 + rng.Intn(4)
		if x == MutReplace {
			n = 1 + rng.Intn(32)
		}
		i := rng.Intn(len(stream) + 1)
		if i == len(stream) && x != MutInsert {
			i = len(stream) - 1
		}
		if !mask.OK(x, i) {
			continue
		}
		return applyMutation(stream, x, n, i, rng, c.pool), nil
	}
	return stream, nil
}

// nudgeDeltas are the arithmetic descent steps of distance-guided mutation
// (hoisted so the hot path does not rebuild the literal per mutation).
var nudgeDeltas = []int64{1, -1, 2, -2, 16, -16, 256, -256, 4096, -4096, 65536, -65536}

// nthFrontierEdge returns the edge ID of the k-th frontier entry in edge-ID
// order. Edge-ID order is the deterministic branch order the pre-interning
// engine obtained by sorting map keys (pc ascending, not-taken first) —
// interning computes it once per campaign, so random selection needs no
// per-pick sort or allocation. minimize.go and report.go are unaffected:
// replays use BranchKey sets and reports sort findings independently.
func (c *Campaign) nthFrontierEdge(k int) int32 {
	for id, known := range c.distKnown {
		if known {
			if k == 0 {
				return int32(id)
			}
			k--
		}
	}
	panic("fuzz: frontier count out of sync")
}

// cmpOpsPerEdge bounds the operand table of one uncovered edge; the oldest
// pair is evicted first, so the table tracks the operands of recent
// executions (storage-dependent comparisons drift as state mutates).
const cmpOpsPerEdge = 6

// cmpPair is one concrete comparison operand pair observed at a branch.
type cmpPair struct{ a, b u256.Int }

// recordCmpPair folds one observed comparison into an uncovered edge's
// operand table: distinct pairs only, FIFO-bounded. Repeat observations of
// the same pair (by far the common case) exit on the first scan hit.
func (c *Campaign) recordCmpPair(id int32, cmp evm.CmpInfo) {
	ops := c.cmpOps[id]
	for _, p := range ops {
		if p.a.Eq(cmp.A) && p.b.Eq(cmp.B) {
			return
		}
	}
	if len(ops) >= cmpOpsPerEdge {
		copy(ops, ops[1:])
		ops[len(ops)-1] = cmpPair{a: cmp.A, b: cmp.B}
		return
	}
	c.cmpOps[id] = append(ops, cmpPair{a: cmp.A, b: cmp.B})
}

func (c *Campaign) callableFuncs() []string { return c.callable }

// --- Mask computation (Algorithm 2 driver) ---

// ensureMasks computes per-transaction masks for a qualifying seed: one that
// hits a nested branch or improves a branch distance (Algorithm 1 line 17).
// Mask probes are capped at a fraction of the campaign budget so Algorithm 2
// cannot starve the main mutation loop. Probes are inherently sequential:
// each mask position's verdict feeds the next candidate.
func (c *Campaign) ensureMasks(seed *Seed) {
	if seed.masks != nil || !c.opts.Strategy.MutationMasking {
		return
	}
	if seed.HitNestedDepth < 2 && !seed.DistanceImproved {
		return
	}
	if c.maskProbes*5 > c.opts.Iterations {
		return
	}
	// Masks pay off on hard branches; while plain mutation is still finding
	// new edges cheaply, defer the probe cost (stall detection).
	if c.executions-c.lastNewEdgeExec < 50 {
		return
	}
	seed.masks = make([]*Mask, len(seed.Seq))
	baseline := c.execute(seed.Seq)
	for ti := 1; ti < len(seed.Seq); ti++ {
		if c.budgetExhausted() {
			return
		}
		tx := seed.Seq[ti]
		stream := tx.Stream()
		if len(stream) == 0 {
			continue
		}
		c.masksComputed++
		// One probe sequence serves the whole mask scan: SetStream replaces
		// the transaction's Args wholesale per candidate, so anything the
		// fold retained from an earlier probe (repro/distance clones share
		// the then-current Args array) stays intact.
		probeSeq := seed.Seq.Clone()
		seed.masks[ti] = ComputeMask(stream, c.rng, c.pool, func(candidate []byte) bool {
			if c.budgetExhausted() || c.maskProbes*5 > c.opts.Iterations {
				// Out of budget: deny, leaving the position frozen rather
				// than probing past the campaign's execution budget.
				return false
			}
			c.maskProbes++
			probeSeq[ti].SetStream(candidate)
			r := c.execute(probeSeq)
			// property preserved: still reaches the nested depth, or still
			// improves some distance
			if baseline.hitNestedDepth >= 2 && r.hitNestedDepth >= baseline.hitNestedDepth {
				return true
			}
			return r.distImproved
		})
	}
}

// budgetExhausted reports whether the campaign must stop fuzzing: budget
// spent, time budget spent, or the running slice's context cancelled. Every
// execution site checks it, so cancellation stops a campaign cleanly at the
// next execution boundary — mid-round, mid-mask-probe, or mid-line-search —
// leaving the coordinator state consistent for a snapshot.
func (c *Campaign) budgetExhausted() bool {
	if c.ctx != nil && c.ctx.Err() != nil {
		return true
	}
	return c.exhausted()
}

// exhausted is the budget check alone, ignoring cancellation — the
// campaign-completion predicate RunSlice reports through its done return.
func (c *Campaign) exhausted() bool {
	if c.executions >= c.opts.Iterations {
		return true
	}
	if c.opts.TimeBudget > 0 && c.elapsed() > c.opts.TimeBudget {
		return true
	}
	return false
}

// elapsed returns the campaign's cumulative active run time across slices.
func (c *Campaign) elapsed() time.Duration {
	if c.inSlice {
		return c.elapsedPrior + time.Since(c.sliceStart)
	}
	return c.elapsedPrior
}

// --- Main loop (Algorithm 1) ---

// Run executes the campaign to its budget and returns the result.
func (c *Campaign) Run() *Result {
	return c.RunCtx(context.Background())
}

// RunCtx is Run with cooperative cancellation: when ctx is cancelled the
// campaign stops cleanly at the next execution boundary (mid-round included)
// and returns the partial result. A cancelled campaign's state stays
// consistent — it can be snapshotted and resumed, or RunCtx called again
// with a live context to continue.
func (c *Campaign) RunCtx(ctx context.Context) *Result {
	res, _ := c.RunSlice(ctx, 0)
	return res
}

// RunSlice runs up to maxRounds energy rounds (0 = no round cap) and returns
// the result so far plus whether the campaign is complete (budget exhausted
// or no seeds to fuzz). It is the time-slicing primitive the campaign
// scheduler multiplexes concurrent campaigns with: a slice boundary is a
// deterministic point in the schedule, so a campaign paused between slices
// and snapshotted resumes byte-identically to an uninterrupted run.
//
// The first slice builds the initial corpus before counting rounds; a slice
// entered with a cancelled context does nothing and reports the campaign's
// completion state unchanged.
func (c *Campaign) RunSlice(ctx context.Context, maxRounds int) (*Result, bool) {
	c.ctx = ctx
	c.inSlice = true
	c.sliceStart = time.Now()
	defer func() {
		c.elapsedPrior += time.Since(c.sliceStart)
		c.inSlice = false
		c.ctx = nil
		c.seedPrefix = nil
	}()

	// Initial corpus (sequential: it defines the campaign's starting point).
	// Resumable: a cancellation mid-corpus leaves corpusSeeded short and the
	// next slice continues building.
	for c.corpusSeeded < InitialSeeds && !c.budgetExhausted() {
		seed := &Seed{Seq: c.initialSequence()}
		r := c.execute(seed.Seq)
		seed.NewEdges = r.newEdges
		seed.HitNestedDepth = r.hitNestedDepth
		seed.DistanceImproved = r.distImproved
		seed.PathWeight = c.weights.PathWeightTx(r.branchesByTx)
		c.queue = append(c.queue, seed)
		c.appended++
		c.corpusSeeded++
	}

	// Fuzzing rounds.
	for rounds := 0; !c.budgetExhausted() && len(c.queue) > 0; rounds++ {
		if maxRounds > 0 && rounds >= maxRounds {
			break
		}
		seed := c.pickSeed()
		c.seedPrefix = prefixHashes(seed.Seq, nil)
		c.ensureMasks(seed)
		c.fuzzRound(seed, c.energyFor(seed))
		c.qi++
	}

	// A campaign is complete when its budget is spent, or when a fully
	// built initial corpus left nothing to fuzz. An empty queue before the
	// corpus phase ran — a slice entered with an already-cancelled context —
	// is not completion: the campaign has not started yet.
	done := c.exhausted() || (c.corpusSeeded >= InitialSeeds && len(c.queue) == 0)
	return c.result(), done
}

// result assembles the campaign outcome from current coordinator state. It
// is safe to call between slices: Detector.Finalize does not mutate the
// aggregate (the EF verdict is recomputed per call — in witnessed mode it
// can even retract when a later execution moves value out), so a
// mid-campaign result does not perturb the remaining schedule.
func (c *Campaign) result() *Result {
	findings := c.detector.Finalize()
	repro := make(map[oracle.BugClass]Sequence, len(c.repro))
	for class, seq := range c.repro {
		repro[class] = seq
	}
	return &Result{
		Repro:            repro,
		Strategy:         c.opts.Strategy.Name,
		CoveredEdges:     c.coveredCount,
		TotalEdges:       c.totalEdges,
		Coverage:         c.CoverageRatio(),
		Findings:         findings,
		Executions:       c.executions,
		Elapsed:          c.elapsed(),
		Timeline:         c.timeline,
		BugClasses:       c.detector.Classes(),
		SeedQueueLen:     len(c.queue),
		MasksComputed:    c.masksComputed,
		SequencesMutated: c.sequencesMutated,
	}
}

// ResultSoFar assembles the campaign outcome from current coordinator state
// without running anything — the status a scheduler reports for a campaign
// parked between slices (or restored from a snapshot and not yet resumed).
func (c *Campaign) ResultSoFar() *Result {
	return c.result()
}

// InjectSequences executes externally supplied transaction sequences —
// corpus seeds imported from a store, cross-pollinated from a sibling
// campaign — against the campaign budget and admits the interesting ones
// (new coverage or improved branch distance) into the seed queue. Sequences
// are sanitized first: transactions calling functions this contract does not
// have are dropped, over-long sequences are truncated, and sequences without
// a leading constructor are rejected. Returns how many sequences executed.
func (c *Campaign) InjectSequences(seqs []Sequence) int {
	n := 0
	for _, seq := range seqs {
		if c.budgetExhausted() {
			break
		}
		seq = c.sanitizeSequence(seq)
		if seq == nil {
			continue
		}
		seed := &Seed{Seq: seq}
		r := c.execute(seed.Seq)
		c.admit(seed, r)
		n++
	}
	return n
}

// sanitizeSequence adapts a foreign sequence to this campaign's contract, or
// returns nil when nothing usable remains.
func (c *Campaign) sanitizeSequence(seq Sequence) Sequence {
	if len(seq) == 0 || seq[0].Func != c.ctorName {
		return nil
	}
	out := make(Sequence, 0, len(seq))
	for _, tx := range seq {
		if _, ok := c.methods[tx.Func]; !ok {
			continue
		}
		t := tx.Clone()
		t.Sender = ((t.Sender % len(c.senders)) + len(c.senders)) % len(c.senders)
		// Callee indices are rebound to this campaign's world (foreign worlds
		// may index members differently); attacker specs survive only on the
		// anchor of a campaign that can compile them.
		if c.calleeOf != nil {
			t.Callee = c.calleeOf[t.Func]
		} else {
			t.Callee = 0
		}
		if len(out) > 0 || c.attackerModel == nil {
			t.Attacker = nil
		}
		out = append(out, t)
		if len(out) >= MaxSeqLen {
			break
		}
	}
	if len(out) == 0 || out[0].Func != c.ctorName {
		return nil
	}
	return out
}

// QueueSequences returns clones of the sequences currently in the seed queue
// — the exportable corpus a store shares across campaigns.
func (c *Campaign) QueueSequences() []Sequence { return c.NewestSequences(len(c.queue)) }

// NewestSequences returns clones of the newest n queue sequences (the whole
// queue when n exceeds it), oldest first.
func (c *Campaign) NewestSequences(n int) []Sequence {
	n = min(n, len(c.queue))
	out := make([]Sequence, n)
	for i, s := range c.queue[len(c.queue)-n:] {
		out[i] = s.Seq.Clone()
	}
	return out
}

// Appended counts the seeds the campaign has appended to its queue since it
// was opened: initial corpus, admitted children and injected sequences.
// Appends go to the queue's end and the queue's trim keeps the newest seeds,
// so the newest Appended()-mark queue sequences are exactly those appended
// since mark was read. The count is not part of a snapshot.
func (c *Campaign) Appended() int { return c.appended }

// SetObserver installs (or clears) the conformance transcript hook. Must not
// be called while a slice is running.
func (c *Campaign) SetObserver(obs ExecObserver) {
	c.opts.Observer = obs
}

// fuzzRound spends one seed's energy: mutate one child, execute, fold,
// admit — the classic Algorithm 1 inner loop.
func (c *Campaign) fuzzRound(seed *Seed, energy int) {
	for e := 0; e < energy && !c.budgetExhausted(); e++ {
		child := c.mutateSeed(seed)
		r := c.execute(child.Seq)
		child, r = c.maybeLineSearch(child, r)
		c.admit(child, r)
	}
}

// maybeLineSearch runs the greedy line search when a child's arithmetic
// nudge improved some branch distance without new coverage — the
// hill-climbing descent that cracks derived-value guards (b*7 == 9163
// style) in O(distance/step) executions.
func (c *Campaign) maybeLineSearch(child *Seed, r execResult) (*Seed, execResult) {
	if c.opts.Strategy.BranchDistance && r.distImproved && r.newEdges == 0 && child.lastNudge != nil {
		return c.lineSearch(child, r)
	}
	return child, r
}

// admit applies queue admission to one executed child: children that found
// new edges or improved a branch distance join the seed queue.
func (c *Campaign) admit(child *Seed, r execResult) {
	if r.newEdges > 0 || (c.opts.Strategy.BranchDistance && r.distImproved) {
		child.NewEdges = r.newEdges
		child.HitNestedDepth = r.hitNestedDepth
		child.DistanceImproved = r.distImproved
		child.PathWeight = c.weights.PathWeightTx(r.branchesByTx)
		c.queue = append(c.queue, child)
		c.appended++
		// cap queue growth: keep the newest/most valuable seeds. Copy the
		// survivors into a fresh slice — reslicing the old backing array
		// (c.queue[len-192:]) would pin every evicted seed (and its sequence,
		// masks, and distance clones) live for as long as the tail survives.
		if len(c.queue) > 256 {
			kept := make([]*Seed, 192)
			copy(kept, c.queue[len(c.queue)-192:])
			c.queue = kept
			c.qi = 0
		}
	}
}

// lineSearch repeats a seed's last nudge while branch distance keeps
// improving, returning the furthest point reached (or the first point that
// discovers new edges). Sequential by nature: each step depends on the
// previous one's feedback.
func (c *Campaign) lineSearch(child *Seed, r execResult) (*Seed, execResult) {
	const maxSteps = 64
	best, bestRes := child, r
	c.lineSearches++
	for step := 0; step < maxSteps && !c.budgetExhausted(); step++ {
		c.lineSteps++
		n := best.lastNudge
		next := best.Clone()
		next.lastNudge = n
		tx := &next.Seq[n.txIdx%len(next.Seq)]
		stream := tx.Stream()
		if len(stream) == 0 {
			break
		}
		tx.SetStream(nudgeWordAt(stream, n.pos%len(stream), n.delta))
		res := c.execute(next.Seq)
		if res.newEdges > 0 {
			return next, res
		}
		if !res.distImproved {
			break
		}
		best, bestRes = next, res
	}
	return best, bestRes
}

// pickSeed selects the next seed to fuzz. With dynamic energy, seeds whose
// paths carry more weight are preferred (weighted sampling); otherwise
// round-robin over the queue.
func (c *Campaign) pickSeed() *Seed {
	// Branch-distance frontier: half the time, continue from the sequence
	// that is closest to flipping some uncovered edge.
	if c.opts.Strategy.BranchDistance && c.distCount > 0 && c.rng.Intn(2) == 0 {
		return c.distSeed[c.nthFrontierEdge(c.rng.Intn(c.distCount))]
	}
	if !c.opts.Strategy.DynamicEnergy || len(c.queue) == 1 {
		return c.queue[c.qi%len(c.queue)]
	}
	// weighted pick among a sample window, favoring higher path weight and
	// seeds that reached nested branches
	best := c.queue[c.qi%len(c.queue)]
	bestScore := seedScore(best)
	for k := 0; k < 3; k++ {
		cand := c.queue[c.rng.Intn(len(c.queue))]
		if s := seedScore(cand); s > bestScore {
			best, bestScore = cand, s
		}
	}
	return best
}

func seedScore(s *Seed) float64 {
	score := s.PathWeight + float64(s.NewEdges)*4
	if s.HitNestedDepth >= 2 {
		score += 10 * float64(s.HitNestedDepth)
	}
	if s.DistanceImproved {
		score += 5
	}
	return score
}

// Run is the package-level convenience: build a campaign and run it.
func Run(comp *minisol.Compiled, opts Options) *Result {
	return NewCampaign(comp, opts).Run()
}
