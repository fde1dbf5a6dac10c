package evm

import (
	"errors"
	"fmt"

	"mufuzz/internal/keccak"
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// Execution errors. ErrRevert distinguishes an orderly REVERT (state rolled
// back, no bug) from abnormal termination.
var (
	ErrOutOfGas       = errors.New("evm: out of gas")
	ErrStackUnderflow = errors.New("evm: stack underflow")
	ErrStackOverflow  = errors.New("evm: stack overflow")
	ErrInvalidJump    = errors.New("evm: invalid jump destination")
	ErrInvalidOpcode  = errors.New("evm: invalid opcode")
	ErrRevert         = errors.New("evm: execution reverted")
	ErrDepth          = errors.New("evm: max call depth exceeded")
	ErrStepLimit      = errors.New("evm: step limit exceeded")
	ErrMemLimit       = errors.New("evm: memory limit exceeded")
	ErrBalance        = errors.New("evm: insufficient balance for transfer")
	// ErrWriteProtection rejects state mutation (SSTORE, SELFDESTRUCT, value
	// transfer) inside a STATICCALL context, matching EIP-214: the offending
	// frame fails, its caller sees a zero status word.
	ErrWriteProtection = errors.New("evm: write protection (static call)")
)

const (
	maxStack     = 1024
	maxMemory    = 1 << 20 // 1 MiB per frame; fuzzed inputs must not OOM the host
	callStipend  = 2300    // gas stipend added to value-bearing calls (transfer/send)
	defaultDepth = 64
)

// BlockCtx is the block-level environment visible to contracts.
type BlockCtx struct {
	Timestamp  uint64
	Number     uint64
	Difficulty uint64
	GasLimit   uint64
	Coinbase   state.Address
}

// Native is a Go-implemented account. The fuzzer installs a reentrant
// attacker as a native so `msg.sender.call.value(x)()` can call back into the
// victim, reproducing the reentrancy precondition without a second compiled
// contract.
type Native interface {
	Run(evm *EVM, caller state.Address, value u256.Int, input []byte, gas uint64) ([]byte, error)
}

// EVM executes transactions against a world state. One EVM value handles one
// transaction at a time. Taint written to storage is kept in the state as
// the slot's tag, so it flows from one transaction to the next with the
// values, and a fork of the state carries it.
type EVM struct {
	// State is the world state the EVM executes against. Callers rebind it
	// to run the next sequence; the EVM's compiled programs, frame pool and
	// registered natives stay warm.
	State  *state.State
	Block  BlockCtx
	Origin state.Address
	// Trace receives execution events; nil disables tracing.
	Trace *Trace
	// MaxDepth bounds call nesting (default 64).
	MaxDepth int
	// MaxSteps bounds total instructions per transaction (default 200000).
	MaxSteps int
	// InspectedAddr is the contract the bug oracles inspect. Frames running
	// in its storage context (its own code, or code it delegatecalls) record
	// the taint sinks an oracle can fire on (see SinkSources) and the
	// overflow events; frames of other accounts record neither.
	InspectedAddr state.Address
	// BranchIndex selects the code whose branches the trace records: frames
	// that run InspectedAddr's own code in its own storage context record
	// every JUMPI as a BranchEvent carrying the indexer's compact edge ID.
	// Other frames (world members, attackers, code delegatecalled into the
	// inspected contract) record none. Nil records no branch events.
	BranchIndex BranchIndexer

	// TopLevelTo / TopLevelInput describe the outermost transaction; natives
	// (the reentrant attacker) use them to call back into the victim.
	TopLevelTo    state.Address
	TopLevelInput []byte

	// DisableIR forces the reference switch-loop interpreter instead of the
	// compiled-IR hot path (conformance ablation: Options.NoIR threads here).
	DisableIR bool

	natives     map[state.Address]Native
	steps       int
	callCounter int
	// activeFrames lists the storage contexts of the live frames, outermost
	// first, for reentry detection.
	activeFrames []state.Address
	// onStep, when set, is called at every executed instruction, fused
	// constituents included, with the frame's depth and the instruction's
	// pc. Package tests set it to observe the executed path; it is nil in
	// production.
	onStep func(depth int, pc uint64)
	// widenSinks adds taint bits to SinkSources in the frames that record
	// sinks. Package tests set it to see sinks of other taint, such as
	// calldata input; it is zero in production.
	widenSinks Taint
	// callIndex maps call ID -> index in Trace.Calls. IDs are assigned
	// densely from 1 per transaction, so a reslice-and-append slice replaces
	// the map the pre-IR engine cleared and re-populated per transaction.
	callIndex []int32
	// valueCallActive counts in-flight external calls that carried value and
	// more than the gas stipend — the enabler condition for reentrancy.
	valueCallActive int
	// staticDepth counts in-flight STATICCALL frames. While positive, every
	// nested frame — including plain CALLs issued from inside the static
	// context, the EIP-214 propagation rule — is write-protected: SSTORE,
	// SELFDESTRUCT, and value-bearing CALLs fail with ErrWriteProtection.
	staticDepth int
	// progCode/prog memoize the compiled Program of the last executed code
	// blob by slice identity (the same policy as the retired jumpdest memo);
	// executors reuse one EVM across a whole campaign, so compilation happens
	// once per contract. The jumpdest grid now lives on the Program. progs is
	// the bounded secondary cache behind the slot (multi-contract worlds).
	progCode []byte
	prog     *Program
	progs    map[*byte]*Program
	// cmpArena is the per-transaction CmpInfo allocation arena: comparison
	// provenance records are written once and never outlive the transaction
	// (BranchEvents copy them by value), so they are carved out of a reused
	// chunk instead of heap-allocated per comparison.
	cmpArena []CmpInfo
	// frames pools one reusable frame per call depth. Live frame depths are
	// always the dense set {1..k} (opCall uses parent depth+1 and the
	// attacker native uses len(activeFrames)+1), so at most one live frame
	// ever exists per depth; the busy flag guards the invariant defensively.
	frames []*frame
	// keccak32/keccak64 memoize KECCAK256 results for the two input shapes
	// Solidity storage layout hashes constantly (dynamic-array slots and
	// mapping keys). Fuzzing re-executes near-identical transactions, so the
	// same few keys dominate; hashing is pure, so the memo lives as long as
	// the EVM.
	keccak32 map[[32]byte]u256.Int
	keccak64 map[[64]byte]u256.Int
}

// keccakMemoCap bounds each keccak memo map; once full, further distinct
// inputs are hashed directly (no eviction — stale entries are never wrong).
const keccakMemoCap = 8192

// keccakOf returns the KECCAK256 of data, memoizing 32- and 64-byte inputs.
func (e *EVM) keccakOf(data []byte) u256.Int {
	switch len(data) {
	case 32:
		var k [32]byte
		copy(k[:], data)
		if v, ok := e.keccak32[k]; ok {
			return v
		}
		sum := keccak.Sum256(data)
		v := u256.FromBytes(sum[:])
		if e.keccak32 == nil {
			e.keccak32 = make(map[[32]byte]u256.Int, 64)
		}
		if len(e.keccak32) < keccakMemoCap {
			e.keccak32[k] = v
		}
		return v
	case 64:
		var k [64]byte
		copy(k[:], data)
		if v, ok := e.keccak64[k]; ok {
			return v
		}
		sum := keccak.Sum256(data)
		v := u256.FromBytes(sum[:])
		if e.keccak64 == nil {
			e.keccak64 = make(map[[64]byte]u256.Int, 64)
		}
		if len(e.keccak64) < keccakMemoCap {
			e.keccak64[k] = v
		}
		return v
	}
	sum := keccak.Sum256(data)
	return u256.FromBytes(sum[:])
}

// New constructs an EVM over the given state.
func New(st *state.State, block BlockCtx) *EVM {
	return &EVM{
		State:    st,
		Block:    block,
		MaxDepth: defaultDepth,
		MaxSteps: 200000,
		natives:  make(map[state.Address]Native),
	}
}

// RegisterNative installs a Go-implemented account at addr.
func (e *EVM) RegisterNative(addr state.Address, n Native) {
	e.natives[addr] = n
}

// Transact runs a top-level transaction: transfers value from sender to
// contract, executes the contract code, and rolls back all state effects if
// execution fails (including revert). The trace survives rollback so oracles
// still see what happened. Returns output data and the execution error.
func (e *EVM) Transact(sender, to state.Address, value u256.Int, input []byte, gas uint64) ([]byte, error) {
	e.steps = 0
	e.callCounter = 0
	e.activeFrames = e.activeFrames[:0]
	e.valueCallActive = 0
	e.staticDepth = 0
	e.callIndex = e.callIndex[:0]
	// CmpInfo pointers never outlive the transaction (BranchEvents copy the
	// record by value; stack metas die with their frames), so the arena is
	// reclaimed wholesale here.
	e.cmpArena = e.cmpArena[:0]
	e.Origin = sender
	e.TopLevelTo = to
	e.TopLevelInput = input

	snap := e.State.Snapshot()
	ret, _, err := e.call(CALL, sender, to, to, value, input, gas, 1)
	if err != nil {
		e.State.RevertTo(snap)
	} else {
		e.State.Commit()
	}
	return ret, err
}

// call implements the shared CALL/DELEGATECALL/STATICCALL machinery.
// selfAddr is the storage context; codeAddr supplies the code.
func (e *EVM) call(op OpCode, caller, selfAddr, codeAddr state.Address, value u256.Int, input []byte, gas uint64, depth int) ([]byte, uint64, error) {
	if depth > e.maxDepth() {
		return nil, gas, ErrDepth
	}
	snap := e.State.Snapshot()
	if op == CALL && !value.IsZero() {
		if !e.State.Transfer(caller, selfAddr, value) {
			e.State.RevertTo(snap)
			return nil, gas, ErrBalance
		}
	}

	// Reentry detection: entering a contract already active on the stack.
	for _, a := range e.activeFrames {
		if a == selfAddr {
			if e.Trace != nil {
				e.Trace.Reentries = append(e.Trace.Reentries, ReentryEvent{
					Addr:               selfAddr,
					EnabledByValueCall: e.valueCallActive > 0,
				})
			}
			break
		}
	}

	if n, ok := e.natives[selfAddr]; ok {
		ret, err := n.Run(e, caller, value, input, gas)
		if err != nil {
			e.State.RevertTo(snap)
		}
		return ret, gas, err
	}

	code := e.State.Code(codeAddr)
	if len(code) == 0 {
		// Plain value transfer to an EOA.
		return nil, gas, nil
	}

	e.activeFrames = append(e.activeFrames, selfAddr)
	p := e.program(code)
	f := e.frameFor(selfAddr, caller, value, input, code, gas, depth, p.dests)
	inspected := selfAddr == e.InspectedAddr
	f.records = e.BranchIndex != nil && inspected && selfAddr == codeAddr
	f.sinks = 0
	if inspected {
		f.sinks = SinkSources | e.widenSinks
	}
	f.delegated = selfAddr != codeAddr
	var ret []byte
	var err error
	if e.DisableIR {
		ret, err = f.run()
	} else {
		ret, err = f.runIR(p)
	}
	f.busy = false
	e.activeFrames = e.activeFrames[:len(e.activeFrames)-1]
	if err != nil {
		e.State.RevertTo(snap)
	}
	return ret, f.gas, err
}

// program returns the compiled Program for code, cached by slice identity. A
// fuzzing campaign executes one contract's code millions of times across
// thousands of frames; the cache makes per-frame compilation a pointer
// comparison. The single slot holds the most recent blob (the contract under
// test); a small identity-keyed map behind it keeps multi-contract worlds —
// where member codes alternate within one transaction — from recompiling on
// every context switch. Synthesized attacker code churns through distinct
// blobs as specs mutate, so the map is bounded and reset when full.
func (e *EVM) program(code []byte) *Program {
	if len(code) == len(e.progCode) && (len(code) == 0 || &code[0] == &e.progCode[0]) {
		return e.prog
	}
	key := &code[0]
	if p, ok := e.progs[key]; ok && len(p.code) == len(code) {
		e.progCode, e.prog = code, p
		return p
	}
	p := CompileProgram(code)
	e.progCode, e.prog = code, p
	if e.progs == nil {
		e.progs = make(map[*byte]*Program, 8)
	} else if len(e.progs) >= programCacheCap {
		clear(e.progs)
	}
	e.progs[key] = p
	return p
}

// programCacheCap bounds the secondary program cache map.
const programCacheCap = 64

// UseProgram seeds the program cache with a pre-compiled Program, so the
// executors of a campaign sharing one read-only Program skip even the first
// compile. The
// Program's code slice becomes the cache identity key.
func (e *EVM) UseProgram(p *Program) {
	if p == nil {
		return
	}
	e.progCode, e.prog = p.code, p
}

// frameFor returns a reset frame for the given call depth, reusing the pooled
// frame (and its stack/meta/memory capacity) from earlier calls at the same
// depth. If the pooled frame is somehow still live — the per-depth uniqueness
// invariant violated — a fresh frame is allocated instead of corrupting it.
func (e *EVM) frameFor(addr, caller state.Address, value u256.Int, input, code []byte, gas uint64, depth int, dests []bool) *frame {
	for len(e.frames) < depth {
		e.frames = append(e.frames, &frame{
			stack: make([]u256.Int, 0, 32),
			metas: make([]meta, 0, 32),
		})
	}
	f := e.frames[depth-1]
	if f.busy {
		f = &frame{
			stack: make([]u256.Int, 0, 32),
			metas: make([]meta, 0, 32),
		}
	}
	f.evm = e
	f.addr = addr
	f.caller = caller
	f.value = value
	f.input = input
	f.code = code
	f.gas = gas
	f.pc = 0
	f.stack = f.stack[:0]
	f.metas = f.metas[:0]
	f.mem = f.mem[:0]
	if f.memTainted {
		clear(f.memTaint)
		f.memTainted = false
	}
	f.retData = nil
	f.depth = depth
	f.dests = dests
	f.busy = true
	return f
}

func (e *EVM) maxDepth() int {
	if e.MaxDepth > 0 {
		return e.MaxDepth
	}
	return defaultDepth
}

func (e *EVM) maxSteps() int {
	if e.MaxSteps > 0 {
		return e.MaxSteps
	}
	return 200000
}

// meta is the shadow record tracked for every stack slot.
type meta struct {
	taint  Taint
	cmp    *CmpInfo
	callID int
}

func (m meta) merge(o meta) meta {
	out := meta{taint: m.taint | o.taint}
	if m.callID != 0 {
		out.callID = m.callID
	} else {
		out.callID = o.callID
	}
	return out
}

// frame is one call frame.
type frame struct {
	evm    *EVM
	addr   state.Address // storage context (self)
	caller state.Address
	value  u256.Int
	input  []byte
	code   []byte
	gas    uint64
	pc     uint64
	stack  []u256.Int
	metas  []meta
	mem    []byte
	// memTaint is allocated lazily on the first tainted memory write; most
	// frames only move untainted words and never pay for the map. memTainted
	// mirrors "the map would exist" under pooling: the pooled map is kept
	// allocated across executions but its live/empty state must match what a
	// fresh frame's nil/non-nil map would be.
	memTaint   map[uint64]Taint
	memTainted bool
	retData    []byte
	depth      int
	dests      []bool
	// records is set when the frame runs the inspected contract's own code
	// in its own storage context (see EVM.BranchIndex): only such frames
	// record branch events.
	records bool
	// sinks holds the taint bits whose sinks the frame records: SinkSources
	// (plus EVM.widenSinks) in the inspected contract's storage context,
	// none elsewhere. Frames with nonzero sinks also record overflow events.
	sinks Taint
	// delegated is set when the frame runs code other than its storage
	// context's own (DELEGATECALL to another contract); its calls are
	// marked CallEvent.Delegated.
	delegated bool
	// busy guards pooled reuse: set while the frame is executing.
	busy bool
}

// validDest reports whether dst is a JUMPDEST on the decoding grid.
func (f *frame) validDest(dst u256.Int) bool {
	return dst.FitsUint64() && dst.Uint64() < uint64(len(f.dests)) && f.dests[dst.Uint64()]
}

// setMemTaintWord overwrites the taint of one 32-byte-aligned memory word,
// allocating the taint map only when there is taint to record.
func (f *frame) setMemTaintWord(o uint64, t Taint) {
	if !f.memTainted {
		if t == 0 {
			return
		}
		if f.memTaint == nil {
			f.memTaint = make(map[uint64]Taint)
		}
		f.memTainted = true
	}
	f.memTaint[o] = t
}

// orMemTaintWord unions taint into one 32-byte-aligned memory word.
func (f *frame) orMemTaintWord(o uint64, t Taint) {
	if t == 0 {
		return
	}
	if !f.memTainted {
		if f.memTaint == nil {
			f.memTaint = make(map[uint64]Taint)
		}
		f.memTainted = true
	}
	f.memTaint[o] |= t
}

func (f *frame) push(v u256.Int, m meta) error {
	if len(f.stack) >= maxStack {
		return ErrStackOverflow
	}
	f.stack = append(f.stack, v)
	f.metas = append(f.metas, m)
	return nil
}

func (f *frame) pop() (u256.Int, meta, error) {
	if len(f.stack) == 0 {
		return u256.Zero, meta{}, ErrStackUnderflow
	}
	i := len(f.stack) - 1
	v, m := f.stack[i], f.metas[i]
	f.stack = f.stack[:i]
	f.metas = f.metas[:i]
	return v, m, nil
}

// ensureMem grows memory to cover [off, off+size). Capacity grows
// geometrically so repeated expansion amortizes to O(1) per byte, and pooled
// frames re-expand into their previous capacity without allocating; the newly
// exposed region is zeroed explicitly because pooled backing arrays are dirty
// from earlier executions.
func (f *frame) ensureMem(off, size uint64) error {
	if size == 0 {
		return nil
	}
	end := off + size
	if end < off || end > maxMemory {
		return ErrMemLimit
	}
	cur := uint64(len(f.mem))
	if cur >= end {
		return nil
	}
	if uint64(cap(f.mem)) >= end {
		f.mem = f.mem[:end]
		clear(f.mem[cur:end])
		return nil
	}
	newCap := uint64(cap(f.mem)) * 2
	if newCap < 256 {
		newCap = 256
	}
	for newCap < end {
		newCap *= 2
	}
	if newCap > maxMemory {
		newCap = maxMemory
	}
	grown := make([]byte, end, newCap)
	copy(grown, f.mem[:cur])
	f.mem = grown
	return nil
}

// memSlice returns memory [off, off+size) after expansion. A zero-size read
// touches no memory at any offset (EVM semantics: memory expansion is only
// charged and performed for size > 0), so it is served without bounds-checking
// off against the current allocation.
func (f *frame) memSlice(off, size uint64) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	if err := f.ensureMem(off, size); err != nil {
		return nil, err
	}
	return f.mem[off : off+size], nil
}

// memTaintRange unions taint over [off, off+size) at word granularity.
func (f *frame) memTaintRange(off, size uint64) Taint {
	if !f.memTainted {
		return 0
	}
	var t Taint
	for o, n := taintWords(off, size); n > 0; n-- {
		t |= f.memTaint[o]
		o += 32
	}
	return t
}

// taintWords returns where a walk of the memory-taint grid over
// [off, off+size) starts, the aligned word holding off, and how many words
// from there lie below off+size. Counting words rather than comparing
// offsets keeps the walk finite when a zero-size access (which may name any
// offset) names one in the last word below 2^64, where o += 32 wraps to 0.
func taintWords(off, size uint64) (first, n uint64) {
	first = off &^ 31
	return first, (off + size - first + 31) / 32
}

func (f *frame) useGas(amount uint64) error {
	if f.gas < amount {
		return ErrOutOfGas
	}
	f.gas -= amount
	return nil
}

// u64 converts a word to uint64 clamping to max on overflow. Memory bounds
// checks then reject absurd offsets.
func u64(v u256.Int) uint64 {
	if !v.FitsUint64() {
		return ^uint64(0)
	}
	return v.Uint64()
}

// recordSink appends a taint sink event when t holds a bit the frame
// records sinks for (see frame.sinks).
func (f *frame) recordSink(kind SinkKind, t Taint) {
	if t&f.sinks == 0 || f.evm.Trace == nil {
		return
	}
	f.evm.Trace.Sinks = append(f.evm.Trace.Sinks, TaintSink{PC: f.pc, Kind: kind, Taint: t})
}

// newCmp carves a CmpInfo out of the per-transaction arena. Records die with
// the transaction (BranchEvents copy them by value, stack metas die with
// their frames), so Transact reclaims every chunk at once; a full chunk is
// simply replaced — outstanding pointers keep the old chunk alive.
func (e *EVM) newCmp(op OpCode, a, b u256.Int) *CmpInfo {
	if len(e.cmpArena) == cap(e.cmpArena) {
		e.cmpArena = make([]CmpInfo, 0, 512)
	}
	e.cmpArena = append(e.cmpArena, CmpInfo{Op: op, A: a, B: b})
	return &e.cmpArena[len(e.cmpArena)-1]
}

// setCallIndex records call ID -> index in Trace.Calls. IDs are dense from 1
// per transaction but recorded out of order (a nested call's event lands
// before its parent's), so the slice grows with a -1 unset fill.
func (e *EVM) setCallIndex(id, idx int) {
	for len(e.callIndex) < id {
		e.callIndex = append(e.callIndex, -1)
	}
	e.callIndex[id-1] = int32(idx)
}

// callIndexOf returns the Trace.Calls index for a call ID, or -1 if unset.
func (e *EVM) callIndexOf(id int) int {
	if id < 1 || id > len(e.callIndex) {
		return -1
	}
	return int(e.callIndex[id-1])
}

// underflowErr and invalidOpErr build the interpreter's canonical per-opcode
// failure errors; the switch loop and the IR loop share them so error text
// stays byte-identical across engines.
func underflowErr(op OpCode, pc uint64) error {
	return fmt.Errorf("%w: %s at pc %d", ErrStackUnderflow, op, pc)
}

func invalidOpErr(op OpCode, pc uint64) error {
	return fmt.Errorf("%w: %s at pc %d", ErrInvalidOpcode, op, pc)
}

// recordBranch emits the JUMPI trace events: the branch event when the
// frame records branches, the checked-call mark when the condition derives
// from an external call's status word, and the tainted condition sink.
// Shared verbatim by the switch loop and every fused IR variant so
// transcripts cannot diverge. A recording frame runs the inspected
// contract's code, so its JUMPIs lie on the decode grid the index numbers.
func (f *frame) recordBranch(taken bool, condTaint Taint, hasCmp bool, cmp CmpInfo, callID int) {
	e := f.evm
	if tr := e.Trace; tr != nil {
		if f.records {
			if id, ok := e.BranchIndex.EdgeID(f.pc, taken); ok {
				tr.Branches = append(tr.Branches, BranchEvent{Edge: id, HasCmp: hasCmp, Cmp: cmp})
			}
		}
		if callID != 0 {
			if idx := e.callIndexOf(callID); idx >= 0 {
				tr.Calls[idx].Checked = true
			}
		}
	}
	f.recordSink(SinkJumpCond, condTaint)
}

// run executes the frame until termination. Returns the output data.
func (f *frame) run() ([]byte, error) {
	e := f.evm
	for {
		if f.pc >= uint64(len(f.code)) {
			return nil, nil // implicit STOP off the end of code
		}
		e.steps++
		if e.steps > e.maxSteps() {
			return nil, ErrStepLimit
		}
		if e.onStep != nil {
			e.onStep(f.depth, f.pc)
		}
		op := OpCode(f.code[f.pc])
		pop, _, known := op.Arity()
		if !known {
			return nil, invalidOpErr(op, f.pc)
		}
		if len(f.stack) < pop {
			return nil, underflowErr(op, f.pc)
		}
		if err := f.useGas(gasCost(op)); err != nil {
			return nil, err
		}

		switch {
		case op.IsPush():
			n := op.PushBytes()
			end := int(f.pc) + 1 + n
			if end > len(f.code) {
				end = len(f.code)
			}
			v := u256.FromBytes(rightPad(f.code[f.pc+1:end], n))
			if err := f.push(v, meta{}); err != nil {
				return nil, err
			}
			f.pc += uint64(n) + 1
			continue

		case op.IsDup():
			n := int(op-DUP1) + 1
			idx := len(f.stack) - n
			if err := f.push(f.stack[idx], f.metas[idx]); err != nil {
				return nil, err
			}

		case op.IsSwap():
			n := int(op-SWAP1) + 1
			top := len(f.stack) - 1
			f.stack[top], f.stack[top-n] = f.stack[top-n], f.stack[top]
			f.metas[top], f.metas[top-n] = f.metas[top-n], f.metas[top]

		case op.IsLog():
			// Pop offset, size and the topics; logs are not used by oracles.
			n := int(op-LOG0) + 2
			for i := 0; i < n; i++ {
				if _, _, err := f.pop(); err != nil {
					return nil, err
				}
			}

		default:
			done, out, err := f.execute(op)
			if err != nil {
				return nil, err
			}
			if done {
				return out, nil
			}
		}
		f.pc++
	}
}

func rightPad(b []byte, n int) []byte {
	if len(b) >= n {
		return b[:n]
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// execute handles all non-family opcodes. It returns done=true with the
// output when the frame terminates normally.
func (f *frame) execute(op OpCode) (done bool, out []byte, err error) {
	e := f.evm
	switch op {
	case STOP:
		return true, nil, nil

	case ADD, MUL, SUB:
		a, ma, _ := f.pop()
		b, mb, _ := f.pop()
		var z u256.Int
		var wrapped bool
		switch op {
		case ADD:
			z, wrapped = a.AddOverflow(b)
		case SUB:
			z, wrapped = a.SubUnderflow(b)
		case MUL:
			z, wrapped = a.MulOverflow(b)
		}
		m := ma.merge(mb)
		if wrapped {
			m.taint |= TaintOverflow
			if f.sinks != 0 && e.Trace != nil {
				e.Trace.Overflows = append(e.Trace.Overflows, OverflowEvent{PC: f.pc, Op: op})
			}
		}
		return false, nil, f.push(z, m)

	case DIV, SDIV, MOD, SMOD, EXP, SIGNEXTEND, AND, OR, XOR, BYTE, SHL, SHR, SAR:
		a, ma, _ := f.pop()
		b, mb, _ := f.pop()
		var z u256.Int
		switch op {
		case DIV:
			z = a.Div(b)
		case SDIV:
			z = a.SDiv(b)
		case MOD:
			z = a.Mod(b)
		case SMOD:
			z = a.SMod(b)
		case EXP:
			z = a.Exp(b)
		case SIGNEXTEND:
			z = b.SignExtend(a)
		case AND:
			z = a.And(b)
		case OR:
			z = a.Or(b)
		case XOR:
			z = a.Xor(b)
		case BYTE:
			z = b.Byte(a)
		case SHL:
			z = b.Lsh(uint(u64(a) & 0x1ff))
		case SHR:
			z = b.Rsh(uint(u64(a) & 0x1ff))
		case SAR:
			z = b.Sar(uint(u64(a) & 0x1ff))
		}
		m := ma.merge(mb)
		// Masking with AND keeps comparison provenance through solidity's
		// address/bool cleanup patterns.
		if op == AND && (ma.cmp != nil || mb.cmp != nil) {
			if ma.cmp != nil {
				m.cmp = ma.cmp
			} else {
				m.cmp = mb.cmp
			}
		}
		return false, nil, f.push(z, m)

	case ADDMOD, MULMOD:
		a, ma, _ := f.pop()
		b, mb, _ := f.pop()
		n, mn, _ := f.pop()
		var z u256.Int
		if op == ADDMOD {
			z = a.AddMod(b, n)
		} else {
			z = a.MulMod(b, n)
		}
		return false, nil, f.push(z, ma.merge(mb).merge(mn))

	case LT, GT, SLT, SGT, EQ:
		a, ma, _ := f.pop()
		b, mb, _ := f.pop()
		var truth bool
		switch op {
		case LT:
			truth = a.Lt(b)
		case GT:
			truth = a.Gt(b)
		case SLT:
			truth = a.Scmp(b) < 0
		case SGT:
			truth = a.Scmp(b) > 0
		case EQ:
			truth = a.Eq(b)
		}
		combined := ma.taint | mb.taint
		if combined != 0 {
			f.recordSink(SinkCompare, combined)
			if op == EQ {
				f.recordSink(SinkEq, combined)
			}
		}
		z := u256.Zero
		if truth {
			z = u256.One
		}
		m := meta{taint: combined, cmp: e.newCmp(op, a, b)}
		m.callID = ma.callID
		if m.callID == 0 {
			m.callID = mb.callID
		}
		return false, nil, f.push(z, m)

	case ISZERO:
		a, ma, _ := f.pop()
		z := u256.Zero
		if a.IsZero() {
			z = u256.One
		}
		// Keep comparison provenance: ISZERO is solidity's negation step
		// before JUMPI. If the operand had no provenance, it is itself the
		// quantity being tested against zero: record EQ(a, 0) so the branch
		// distance toward "a == 0" (or != 0) is |a|.
		m := ma
		if m.cmp == nil {
			m.cmp = e.newCmp(EQ, a, u256.Zero)
		}
		return false, nil, f.push(z, m)

	case NOT:
		a, ma, _ := f.pop()
		return false, nil, f.push(a.Not(), meta{taint: ma.taint, callID: ma.callID})

	case KECCAK256:
		offV, _, _ := f.pop()
		sizeV, _, _ := f.pop()
		off, size := u64(offV), u64(sizeV)
		data, err := f.memSlice(off, size)
		if err != nil {
			return false, nil, err
		}
		return false, nil, f.push(e.keccakOf(data), meta{taint: f.memTaintRange(off, size)})

	case ADDRESS:
		return false, nil, f.push(f.addr.Word(), meta{})
	case BALANCE:
		a, _, _ := f.pop()
		bal := e.State.Balance(state.AddressFromWord(a))
		return false, nil, f.push(bal, meta{taint: TaintBalance})
	case SELFBALANCE:
		return false, nil, f.push(e.State.Balance(f.addr), meta{taint: TaintBalance})
	case ORIGIN:
		return false, nil, f.push(e.Origin.Word(), meta{taint: TaintOrigin})
	case CALLER:
		return false, nil, f.push(f.caller.Word(), meta{taint: TaintCaller})
	case CALLVALUE:
		return false, nil, f.push(f.value, meta{taint: TaintInput})

	case CALLDATALOAD:
		offV, _, _ := f.pop()
		var buf [32]byte
		if offV.FitsUint64() {
			off := offV.Uint64()
			for i := uint64(0); i < 32; i++ {
				if off+i < uint64(len(f.input)) {
					buf[i] = f.input[off+i]
				}
			}
		}
		return false, nil, f.push(u256.FromBytes(buf[:]), meta{taint: TaintInput})

	case CALLDATASIZE:
		return false, nil, f.push(u256.New(uint64(len(f.input))), meta{taint: TaintInput})

	case CALLDATACOPY:
		dstV, _, _ := f.pop()
		srcV, _, _ := f.pop()
		szV, _, _ := f.pop()
		dst, src, sz := u64(dstV), u64(srcV), u64(szV)
		mem, err := f.memSlice(dst, sz)
		if err != nil {
			return false, nil, err
		}
		for i := uint64(0); i < sz; i++ {
			if src+i < uint64(len(f.input)) {
				mem[i] = f.input[src+i]
			} else {
				mem[i] = 0
			}
		}
		for o, n := taintWords(dst, sz); n > 0; n-- {
			f.orMemTaintWord(o, TaintInput)
			o += 32
		}
		return false, nil, nil

	case CODESIZE:
		return false, nil, f.push(u256.New(uint64(len(f.code))), meta{})

	case CODECOPY:
		dstV, _, _ := f.pop()
		srcV, _, _ := f.pop()
		szV, _, _ := f.pop()
		dst, src, sz := u64(dstV), u64(srcV), u64(szV)
		mem, err := f.memSlice(dst, sz)
		if err != nil {
			return false, nil, err
		}
		for i := uint64(0); i < sz; i++ {
			if src+i < uint64(len(f.code)) {
				mem[i] = f.code[src+i]
			} else {
				mem[i] = 0
			}
		}
		return false, nil, nil

	case GASPRICE:
		return false, nil, f.push(u256.New(1), meta{})

	case RETURNDATASIZE:
		return false, nil, f.push(u256.New(uint64(len(f.retData))), meta{})

	case RETURNDATACOPY:
		dstV, _, _ := f.pop()
		srcV, _, _ := f.pop()
		szV, _, _ := f.pop()
		dst, src, sz := u64(dstV), u64(srcV), u64(szV)
		mem, err := f.memSlice(dst, sz)
		if err != nil {
			return false, nil, err
		}
		for i := uint64(0); i < sz; i++ {
			if src+i < uint64(len(f.retData)) {
				mem[i] = f.retData[src+i]
			} else {
				mem[i] = 0
			}
		}
		return false, nil, nil

	case BLOCKHASH:
		n, _, _ := f.pop()
		w := n.Bytes32()
		return false, nil, f.push(e.keccakOf(w[:]), meta{taint: TaintNumber})
	case COINBASE:
		return false, nil, f.push(e.Block.Coinbase.Word(), meta{})
	case TIMESTAMP:
		return false, nil, f.push(u256.New(e.Block.Timestamp), meta{taint: TaintTimestamp})
	case NUMBER:
		return false, nil, f.push(u256.New(e.Block.Number), meta{taint: TaintNumber})
	case DIFFICULTY:
		return false, nil, f.push(u256.New(e.Block.Difficulty), meta{taint: TaintNumber})
	case GASLIMIT:
		return false, nil, f.push(u256.New(e.Block.GasLimit), meta{})

	case POP:
		_, _, err := f.pop()
		return false, nil, err

	case MLOAD:
		offV, _, _ := f.pop()
		off := u64(offV)
		mem, err := f.memSlice(off, 32)
		if err != nil {
			return false, nil, err
		}
		return false, nil, f.push(u256.FromBytes(mem), meta{taint: f.memTaintRange(off, 32)})

	case MSTORE:
		offV, _, _ := f.pop()
		val, mv, _ := f.pop()
		off := u64(offV)
		mem, err := f.memSlice(off, 32)
		if err != nil {
			return false, nil, err
		}
		w := val.Bytes32()
		copy(mem, w[:])
		f.setMemTaintWord(off&^31, mv.taint)
		if off%32 != 0 {
			f.orMemTaintWord((off&^31)+32, mv.taint)
		}
		return false, nil, nil

	case MSTORE8:
		offV, _, _ := f.pop()
		val, mv, _ := f.pop()
		off := u64(offV)
		mem, err := f.memSlice(off, 1)
		if err != nil {
			return false, nil, err
		}
		mem[0] = byte(val.Uint64())
		f.orMemTaintWord(off&^31, mv.taint)
		return false, nil, nil

	case SLOAD:
		slot, _, _ := f.pop()
		val, tag := e.State.GetStorage(f.addr, slot)
		return false, nil, f.push(val, meta{taint: Taint(tag)})

	case SSTORE:
		slot, _, _ := f.pop()
		val, mv, _ := f.pop()
		if e.staticDepth > 0 {
			return false, nil, fmt.Errorf("%w: SSTORE at pc %d", ErrWriteProtection, f.pc)
		}
		e.State.SetStorage(f.addr, slot, val, uint16(mv.taint))
		f.recordSink(SinkStore, mv.taint)
		return false, nil, nil

	case JUMP:
		dst, _, _ := f.pop()
		if !f.validDest(dst) {
			return false, nil, fmt.Errorf("%w: to %s at pc %d", ErrInvalidJump, dst, f.pc)
		}
		f.pc = dst.Uint64() - 1 // main loop will +1
		return false, nil, nil

	case JUMPI:
		dst, _, _ := f.pop()
		cond, mc, _ := f.pop()
		taken := !cond.IsZero()
		var cmp CmpInfo
		if mc.cmp != nil {
			cmp = *mc.cmp
		}
		f.recordBranch(taken, mc.taint, mc.cmp != nil, cmp, mc.callID)
		if taken {
			if !f.validDest(dst) {
				return false, nil, fmt.Errorf("%w: to %s at pc %d", ErrInvalidJump, dst, f.pc)
			}
			f.pc = dst.Uint64() - 1
		}
		return false, nil, nil

	case PC:
		return false, nil, f.push(u256.New(f.pc), meta{})
	case MSIZE:
		return false, nil, f.push(u256.New(uint64(len(f.mem))), meta{})
	case GAS:
		return false, nil, f.push(u256.New(f.gas), meta{})
	case JUMPDEST:
		return false, nil, nil

	case CALL, DELEGATECALL, STATICCALL:
		return f.opCall(op)

	case RETURN:
		offV, _, _ := f.pop()
		szV, _, _ := f.pop()
		data, err := f.memSlice(u64(offV), u64(szV))
		if err != nil {
			return false, nil, err
		}
		return true, append([]byte(nil), data...), nil

	case REVERT:
		offV, _, _ := f.pop()
		szV, _, _ := f.pop()
		data, err := f.memSlice(u64(offV), u64(szV))
		if err != nil {
			return false, nil, err
		}
		_ = data
		return false, nil, ErrRevert

	case INVALID:
		return false, nil, fmt.Errorf("%w: INVALID at pc %d", ErrInvalidOpcode, f.pc)

	case SELFDESTRUCT:
		benV, _, _ := f.pop()
		if e.staticDepth > 0 {
			return false, nil, fmt.Errorf("%w: SELFDESTRUCT at pc %d", ErrWriteProtection, f.pc)
		}
		ben := state.AddressFromWord(benV)
		creator := e.State.Creator(f.addr)
		if e.Trace != nil {
			e.Trace.SelfDestructs = append(e.Trace.SelfDestructs, SelfDestructEvent{
				Addr:            f.addr,
				CallerIsCreator: f.caller == creator,
				OriginIsCreator: e.Origin == creator,
			})
		}
		e.State.Destroy(f.addr, ben)
		return true, nil, nil

	default:
		return false, nil, fmt.Errorf("%w: %s at pc %d", ErrInvalidOpcode, op, f.pc)
	}
}

// opCall implements the CALL family. The steps every member shares — the
// operands, the input copy, the forwarded gas, the call itself, its call
// event, the return data and the status word — are written once. Each
// opcode adds only its own: CALL its value operand (write-protected, with
// the stipend that gates reentrancy) and its two sinks, DELEGATECALL its
// delegate event and the frame's caller, value and storage context, and
// STATICCALL the write protection of everything below it (EIP-214: while a
// static frame is live, SSTORE, SELFDESTRUCT and value-bearing CALLs fail
// with ErrWriteProtection).
func (f *frame) opCall(op OpCode) (bool, []byte, error) {
	e := f.evm
	gasV, _, _ := f.pop()
	toV, mTo, _ := f.pop()
	var valV u256.Int
	var mVal meta
	if op == CALL {
		valV, mVal, _ = f.pop()
	}
	inOffV, _, _ := f.pop()
	inSzV, _, _ := f.pop()
	outOffV, _, _ := f.pop()
	outSzV, _, _ := f.pop()

	to := state.AddressFromWord(toV)
	inOff, inSz := u64(inOffV), u64(inSzV)
	input, err := f.memSlice(inOff, inSz)
	if err != nil {
		return false, nil, err
	}
	input = append([]byte(nil), input...)

	// Gas forwarded: requested, capped by what the frame has.
	forward := min(u64(gasV), f.gas)
	f.gas -= forward

	caller, self, value := f.addr, to, valV
	switch op {
	case CALL:
		// Value-bearing calls get the transfer/send stipend on top.
		if !valV.IsZero() {
			if e.staticDepth > 0 {
				return false, nil, fmt.Errorf("%w: CALL with value at pc %d", ErrWriteProtection, f.pc)
			}
			forward += callStipend
		}
		f.recordSink(SinkCallValue, mVal.taint)
		f.recordSink(SinkCallTarget, mTo.taint)
	case DELEGATECALL:
		if e.Trace != nil {
			e.Trace.Delegates = append(e.Trace.Delegates, DelegateEvent{
				Addr:            f.addr,
				TargetTaint:     mTo.taint,
				InputTaint:      f.memTaintRange(inOff, inSz) | TaintInput&mTo.taint,
				CallerIsCreator: f.caller == e.State.Creator(f.addr),
			})
		}
		// The callee's code runs in this frame's storage context, with the
		// frame's caller and value.
		caller, self, value = f.caller, f.addr, f.value
	}

	e.callCounter++
	id := e.callCounter
	valueCall := !valV.IsZero() && forward > callStipend
	if valueCall {
		e.valueCallActive++
	}
	if op == STATICCALL {
		e.staticDepth++
	}
	ret, leftGas, callErr := e.call(op, caller, self, to, value, input, forward, f.depth+1)
	if op == STATICCALL {
		e.staticDepth--
	}
	if valueCall {
		e.valueCallActive--
	}
	f.gas += leftGas
	f.retData = ret

	success := callErr == nil
	if e.Trace != nil {
		e.Trace.Calls = append(e.Trace.Calls, CallEvent{
			ID: id, Op: op, From: f.addr, To: to, Value: valV, Gas: forward,
			Success: success, Depth: f.depth, Delegated: f.delegated,
		})
		e.setCallIndex(id, len(e.Trace.Calls)-1)
	}

	// Write return data into the requested output window.
	if outSz := u64(outSzV); outSz > 0 {
		mem, err := f.memSlice(u64(outOffV), outSz)
		if err != nil {
			return false, nil, err
		}
		clear(mem[copy(mem, ret):])
	}

	statusWord := u256.Zero
	if success {
		statusWord = u256.One
	}
	return false, nil, f.push(statusWord, meta{taint: TaintCallResult, callID: id})
}
