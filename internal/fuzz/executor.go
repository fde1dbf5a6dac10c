package fuzz

import (
	"mufuzz/internal/abi"
	"mufuzz/internal/analysis"
	"mufuzz/internal/evm"
	"mufuzz/internal/oracle"
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// txValueCap bounds msg.value so mutated 256-bit words cannot drain a
// sender's (2^120 wei) balance in one transfer. Hoisted to a package
// variable so the hot path does not recompute it per execution.
var txValueCap = u256.One.Lsh(96).Sub(u256.One)

// campaignBlockCtx is the fixed block context every campaign execution and
// replay runs under.
var campaignBlockCtx = evm.BlockCtx{Timestamp: 1_700_000_000, Number: 1_000_000, GasLimit: 30_000_000}

// txReport pairs one live transaction's oracle report with its index in the
// sequence, so the coordinator can slice the proof-of-concept prefix.
type txReport struct {
	txIdx  int
	report oracle.Report
}

// execOutcome is the pure result of executing one sequence: branch events
// and per-transaction oracle reports. It carries no campaign state and is
// produced without mutating any; the campaign folds it.
type execOutcome struct {
	// branchesByTx holds the contract's branch events, one batch per
	// transaction, covering the whole sequence: checkpoint-replayed prefix
	// transactions first (shared, immutable slices from the cache entry),
	// then live transactions.
	branchesByTx [][]evm.BranchEvent
	// firstLive is the number of leading transactions served from a prefix
	// checkpoint (0 when the sequence ran from genesis).
	firstLive int
	// reports are the non-empty oracle reports of the whole sequence in
	// transaction order: checkpoint-replayed prefix reports first, then live
	// ones. Carrying the prefix reports makes the outcome self-contained, so
	// proof-of-concept capture does not depend on whether a prefix came from
	// the cache.
	reports []txReport
}

// executor runs transaction sequences against a private, reusable EVM.
//
// The contract with the campaign: run is a pure request→outcome function of
// the sequence (the prefix cache is transparent). All campaign-state folding
// — coverage, branch distance, queue admission, finding aggregation, repro
// capture, timeline — happens in Campaign.foldOutcome.
type executor struct {
	target       Target
	genesis      *state.State
	contractAddr state.Address
	deployer     state.Address
	attackerAddr state.Address
	senders      []state.Address
	// World-campaign tables, nil/empty for single-contract campaigns (the
	// default path draws no cost from them). worldAddrs maps TxInput.Callee
	// to a deployment address (index 0 = the primary contract) and
	// worldTargets is the matching target per slot. attackerModel, when set,
	// replaces the reentrant-attacker native: the sequence anchor's encoded
	// spec compiles to synthesized bytecode deployed at attackerAddr.
	worldAddrs    []state.Address
	worldTargets  []Target
	attackerModel AttackerModel
	// attackerCode memoizes attackerModel.Compile by the encoded spec's
	// content (see compileAttacker). It is per executor, like vm.
	attackerCode map[string][]byte
	inspector    *oracle.Inspector
	// prefixes is the campaign's checkpoint cache; nil disables the
	// intermediate-state optimization (ablation / replay).
	prefixes *prefixCache
	// branchIx interns the contract's branch edges; installed on every EVM so
	// the contract's trace events carry compact edge IDs.
	branchIx *analysis.BranchIndex
	// methods/selectors intern the ABI lookup and the keccak-derived 4-byte
	// selector per function name once per campaign (read-only) — the
	// pre-interning engine re-hashed the signature on every transaction.
	methods   map[string]abi.Method
	selectors map[string][4]byte
	// prog is the contract's compiled IR program, built once per campaign and
	// shared read-only with the detached replay executors (the decode-once
	// hot path).
	prog *evm.Program
	// noIR pins every EVM to the reference switch-loop interpreter
	// (Options.NoIR conformance ablation).
	noIR bool
	// trace is the reusable per-transaction event buffer. Branch events are
	// copied out of it before reuse, so recycling it across transactions and
	// executions is safe and saves seven slice allocations per transaction.
	trace *evm.Trace
	// txBuf is the reusable calldata encoding buffer. The EVM only reads
	// TopLevelInput during its own transaction and every consumer that retains
	// input bytes copies them, so one buffer per executor is safe.
	txBuf []byte
	// vm is the executor's persistent EVM, rebound to a fresh world state per
	// execution (natives, program cache, and frame pool stay warm). The state
	// holds the storage taint, so rebinding is all a new sequence needs.
	vm       *evm.EVM
	attacker *evm.ReentrantAttacker
	// scratch is the reusable working state: every execution re-forks its
	// start state (genesis or a checkpoint) into it via State.ForkInto, so
	// the per-execution fork allocates nothing. Checkpoint stores still take
	// real Forks — those states are retained by the cache.
	scratch *state.State
	// hashBuf is the reusable prefix-hash table backing (see prefixHashes).
	hashBuf []uint64
	// brArena is the bump allocator for per-transaction branch-event batches.
	// Batches are carved off its tail and never recycled (their ownership
	// transfers to outcomes, the prefix cache, and coverage folding), so one
	// chunk allocation amortizes over many transactions; only the unused tail
	// capacity is ever written again.
	brArena []evm.BranchEvent
	// recorded counts the executor's live transactions and the taint sinks
	// and overflow events the EVM recorded in them. The counts are work,
	// not results: no transcript, snapshot or decision reads them, and they
	// repeat exactly per seed, so a test can hold them to a budget.
	recorded struct{ txs, sinks, overflows int }
}

// detached returns an executor sharing the immutable substrate but owning a
// fresh EVM and buffers, and bypassing the prefix cache; replays and
// minimization use it so they neither consume nor pollute checkpoints.
func (x *executor) detached() *executor {
	nx := *x
	nx.prefixes = nil
	nx.trace = nil
	nx.txBuf = nil
	nx.vm = nil
	nx.attacker = nil
	nx.attackerCode = nil
	nx.scratch = nil
	nx.hashBuf = nil
	nx.brArena = nil
	return &nx
}

// workState forks s into the executor's reusable scratch state — the
// per-execution working copy nothing retains (checkpoint stores Fork the
// scratch again, so cache entries are always independent states). s must be
// frozen (genesis or a checkpoint entry).
func (x *executor) workState(s *state.State) *state.State {
	x.scratch = s.ForkInto(x.scratch)
	return x.scratch
}

// carveBranches reserves an n-event batch at the arena tail and returns it
// empty (len 0, cap n). The caller fills it with append; the reservation
// means later carves can never touch it, so handing the batch to long-lived
// owners (outcomes, the prefix cache) is safe.
func (x *executor) carveBranches(n int) []evm.BranchEvent {
	if cap(x.brArena)-len(x.brArena) < n {
		sz := 1024
		if n > sz {
			sz = n
		}
		x.brArena = make([]evm.BranchEvent, 0, sz)
	}
	tail := len(x.brArena)
	x.brArena = x.brArena[:tail+n]
	return x.brArena[tail : tail : tail+n]
}

// engine returns the executor's persistent EVM rebound to st. The EVM, its
// registered attacker native, the compiled program cache, and the frame pool
// are built once per executor and reused for every execution. When an
// attacker model is installed the native is NOT registered: the attacker
// account runs real synthesized bytecode instead (deployWorld installs it),
// so its callbacks flow through the ordinary interpreter and trace.
func (x *executor) engine(st *state.State) *evm.EVM {
	if x.vm == nil {
		x.vm = evm.New(st, campaignBlockCtx)
		x.vm.BranchIndex = x.branchIx
		x.vm.InspectedAddr = x.contractAddr
		x.vm.DisableIR = x.noIR
		x.vm.UseProgram(x.prog)
		if x.attackerModel == nil {
			x.attacker = &evm.ReentrantAttacker{Addr: x.attackerAddr, MaxReentries: 1}
			x.vm.RegisterNative(x.attackerAddr, x.attacker)
		}
		return x.vm
	}
	x.vm.State = st
	return x.vm
}

// deployWorld installs the campaign's contracts into a fresh genesis fork:
// every world member at its assigned address (or just the primary for
// single-contract campaigns), plus — when attacker synthesis is on — the
// bytecode compiled from the sequence anchor's attacker spec, deployed at
// the attacker account. A nil/invalid spec leaves the attacker a plain EOA.
func (x *executor) deployWorld(st *state.State, seq Sequence) {
	if len(x.worldAddrs) == 0 {
		x.target.Deploy(st, x.contractAddr, x.deployer)
	} else {
		for i, t := range x.worldTargets {
			t.Deploy(st, x.worldAddrs[i], x.deployer)
		}
	}
	if x.attackerModel != nil && len(seq) > 0 {
		if code := x.compileAttacker(seq[0].Attacker); len(code) > 0 {
			st.CreateContract(x.attackerAddr, code, x.deployer)
			st.Commit()
		}
	}
}

// attackerMemoCap bounds the attacker build memo. It matches the EVM's
// program cache bound, which is reset the same way when full.
const attackerMemoCap = 64

// compileAttacker is attackerModel.Compile memoized by the content of the
// encoded spec. Every deploy from genesis builds the anchor's attacker, and
// most of them repeat a spec already built. The memo hands back the same
// slice for the same spec, so the EVM's identity-keyed program cache hits
// too and the attacker's IR is not recompiled either. Code slices are
// never written after the build, which makes sharing them across
// executions safe. Specs churn as they mutate, so the memo is cleared when
// it reaches attackerMemoCap entries.
func (x *executor) compileAttacker(enc []byte) []byte {
	if code, ok := x.attackerCode[string(enc)]; ok {
		return code
	}
	code := x.attackerModel.Compile(enc)
	if x.attackerCode == nil {
		x.attackerCode = make(map[string][]byte, 8)
	} else if len(x.attackerCode) >= attackerMemoCap {
		clear(x.attackerCode)
	}
	x.attackerCode[string(enc)] = code
	return code
}

// calleeAddr resolves a transaction's destination: the primary contract for
// single-contract campaigns, the callee-indexed world member otherwise.
func (x *executor) calleeAddr(tx TxInput) state.Address {
	if len(x.worldAddrs) == 0 {
		return x.contractAddr
	}
	return x.worldAddrs[tx.Callee%len(x.worldAddrs)]
}

// resetTrace returns the executor's trace buffer, cleared for one
// transaction.
func (x *executor) resetTrace() *evm.Trace {
	if x.trace == nil {
		x.trace = evm.NewTrace()
	} else {
		x.trace.Reset()
	}
	return x.trace
}

// encodeTx builds the full calldata of a transaction from the interned
// selector table (no signature re-hash per transaction), reusing the
// executor's encoding buffer: the EVM only reads the calldata during its own
// transaction, and every consumer that retains input bytes (reentry events,
// proof-of-concept capture) copies them.
func (x *executor) encodeTx(tx TxInput) []byte {
	sel := x.selectors[tx.Func]
	out := append(x.txBuf[:0], sel[:]...)
	out = append(out, tx.Args...)
	x.txBuf = out
	return out
}

// internMethods builds the method and selector tables for a target,
// including the constructor pseudo-method.
func internMethods(t Target) (map[string]abi.Method, map[string][4]byte) {
	fns := t.Methods()
	methods := make(map[string]abi.Method, len(fns)+1)
	selectors := make(map[string][4]byte, len(fns)+1)
	ctor := t.Constructor()
	methods[ctor.Name] = ctor
	selectors[ctor.Name] = ctor.Selector()
	for _, m := range fns {
		methods[m.Name] = m
		selectors[m.Name] = m.Selector()
	}
	return methods, selectors
}

// run executes a sequence and returns its outcome. When a prefix of the
// sequence has a cached checkpoint (paper §VI's intermediate-state
// optimization), execution resumes from it and the prefix's recorded branch
// events stand in for re-execution.
//
// seedPrefix is the prefix-hash table of the round's seed (prefixHashes of
// its sequence), nil outside a round. It decides what the run checkpoints:
// every uncached, admissible boundary the run passes while its sequence
// still matches that seed, and nothing past the first mismatch. A round's
// children are mutants of its seed, so a child whose first mutated
// transaction is k resumes from the seed's checkpoint after k transactions;
// a boundary no sibling shares is never worth its fork. A run with no table
// stores nothing.
//
// All state handoffs are copy-on-write Forks: resuming from genesis or a
// checkpoint entry, and storing a new checkpoint, are O(accounts) pointer
// copies — the deep copy the pre-CoW engine paid per checkpoint and per
// resume is gone, and only accounts a live transaction actually writes get
// cloned (see the state package's memory model).
func (x *executor) run(seq Sequence, seedPrefix []uint64) execOutcome {
	// The outer batch list is exactly one entry per transaction; pre-sizing
	// makes it a single allocation instead of append growth.
	out := execOutcome{branchesByTx: make([][]evm.BranchEvent, 0, len(seq))}

	var st *state.State
	var e *evm.EVM
	start := 0

	// One pass computes every proper-prefix key; the resume lookup and the
	// store policy both index into it.
	var hashes []uint64
	if x.prefixes != nil {
		hashes = prefixHashes(seq, x.hashBuf)
		x.hashBuf = hashes
	}

	if entry := x.prefixes.lookupHashed(hashes); entry != nil {
		st = x.workState(entry.st)
		e = x.engine(st)
		start = entry.txs
		out.branchesByTx = append(out.branchesByTx, entry.branchesByTx...)
		out.reports = append(out.reports, entry.reports...)
	} else {
		st = x.workState(x.genesis)
		e = x.engine(st)
		x.deployWorld(st, seq)
	}
	out.firstLive = start

	for i := start; i < len(seq); i++ {
		tx := seq[i]
		data := x.encodeTx(tx)
		sender := x.senders[tx.Sender%len(x.senders)]
		value := tx.Value.And(txValueCap)
		e.Trace = x.resetTrace()
		_, err := e.Transact(sender, x.calleeAddr(tx), value, data, GasPerTx)
		x.recorded.txs++
		x.recorded.sinks += len(e.Trace.Sinks)
		x.recorded.overflows += len(e.Trace.Overflows)

		// Copy the trace's events (the contract's own, see
		// evm.EVM.BranchIndex) into an exact-size batch carved off the arena:
		// the batch's ownership transfers to the outcome (and possibly the
		// prefix cache), so it must never be written again — carving
		// advances the arena tail past it, and append-growth overshoot never
		// happens.
		var txBranches []evm.BranchEvent
		if n := len(e.Trace.Branches); n > 0 {
			txBranches = append(x.carveBranches(n), e.Trace.Branches...)
		}
		out.branchesByTx = append(out.branchesByTx, txBranches)

		if rep := x.inspector.Inspect(e.Trace, value, err == nil); !rep.Empty() {
			out.reports = append(out.reports, txReport{txIdx: i, report: rep})
		}

		// Checkpoint the boundary after tx i while the sequence still matches
		// the round's seed. The outcome accumulated so far is exactly the
		// checkpoint's payload.
		if i < len(hashes) && i < len(seedPrefix) && hashes[i] == seedPrefix[i] {
			if key := hashes[i]; x.prefixes.admissible(out.branchesByTx) && !x.prefixes.contains(key) {
				x.prefixes.storeKeyed(key, i+1, st.Fork(), out.branchesByTx, out.reports)
			}
		} else {
			seedPrefix = nil
		}
	}
	return out
}

// runFinalState executes seq from genesis — always, never through the prefix
// cache — and returns the resulting world state. It is the state-divergence
// primitive of witnessed reentrancy confirmation: the campaign replays a
// candidate sequence once with the synthesized attacker and once with the
// attacker stripped to a plain EOA, and compares the two final states. Call
// it only on detached executors; the returned state aliases the executor's
// scratch and is valid until the executor runs again.
func (x *executor) runFinalState(seq Sequence) *state.State {
	st := x.workState(x.genesis)
	e := x.engine(st)
	x.deployWorld(st, seq)
	for _, tx := range seq {
		data := x.encodeTx(tx)
		sender := x.senders[tx.Sender%len(x.senders)]
		value := tx.Value.And(txValueCap)
		e.Trace = x.resetTrace()
		e.Transact(sender, x.calleeAddr(tx), value, data, GasPerTx)
	}
	return st
}
