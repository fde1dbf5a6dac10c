package evm

import (
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// Taint is a bitmask recording which environment sources influenced a value.
// Taints propagate through arithmetic, memory, and (across transactions)
// storage; the bug oracles (paper §IV-D) match sources against sinks.
type Taint uint16

const (
	// TaintInput marks values derived from transaction calldata.
	TaintInput Taint = 1 << iota
	// TaintTimestamp marks values derived from block.timestamp.
	TaintTimestamp
	// TaintNumber marks values derived from block.number.
	TaintNumber
	// TaintOrigin marks values derived from tx.origin.
	TaintOrigin
	// TaintBalance marks values derived from a BALANCE/SELFBALANCE query.
	TaintBalance
	// TaintOverflow marks values produced by a wrapping ADD/SUB/MUL.
	TaintOverflow
	// TaintCallResult marks the success flag of an external call.
	TaintCallResult
	// TaintCaller marks values derived from msg.sender.
	TaintCaller
)

// Has reports whether t includes all bits of q.
func (t Taint) Has(q Taint) bool { return t&q == q }

// CmpInfo records the comparison that produced a boolean value, so branch
// distance (paper §IV-B, sFuzz-style) can be computed for the untaken side.
type CmpInfo struct {
	Op OpCode // LT, GT, SLT, SGT, EQ
	A  u256.Int
	B  u256.Int
}

// FlipDistance returns how far the comparison is from producing the opposite
// outcome — the branch distance toward the uncovered side. Zero means the
// comparison already flips (should not occur); 1 means "one unit away".
func (c CmpInfo) FlipDistance() u256.Int {
	switch c.Op {
	case EQ:
		if c.A.Eq(c.B) {
			return u256.One // any change of either operand flips it
		}
		return c.A.AbsDiff(c.B)
	case LT:
		if c.A.Lt(c.B) { // true; to make false need A >= B
			return c.B.Sub(c.A)
		}
		return c.A.Sub(c.B).Add(u256.One)
	case GT:
		if c.A.Gt(c.B) {
			return c.A.Sub(c.B)
		}
		return c.B.Sub(c.A).Add(u256.One)
	case SLT:
		if c.A.Scmp(c.B) < 0 {
			return c.B.Sub(c.A)
		}
		return c.A.Sub(c.B).Add(u256.One)
	case SGT:
		if c.A.Scmp(c.B) > 0 {
			return c.A.Sub(c.B)
		}
		return c.B.Sub(c.A).Add(u256.One)
	default:
		return u256.Max
	}
}

// BranchEvent records one executed JUMPI.
type BranchEvent struct {
	Addr      state.Address
	PC        uint64 // program counter of the JUMPI
	Taken     bool   // whether the jump was taken
	CondTaint Taint
	HasCmp    bool
	Cmp       CmpInfo
	Depth     int // call depth at execution
	// EdgeRef is the interned coverage identity of the edge, carried through
	// the trace so feedback folds index arrays instead of hashing BranchKeys.
	// It is 1 + the compact edge ID assigned by the EVM's BranchIndexer; 0
	// means unindexed (no indexer installed, or a foreign address). Read it
	// through IndexedEdge.
	EdgeRef int32
}

// IndexedEdge returns the event's compact edge ID and whether one was
// assigned at trace time.
func (b BranchEvent) IndexedEdge() (int32, bool) {
	return b.EdgeRef - 1, b.EdgeRef > 0
}

// BranchIndexer assigns campaign-stable compact IDs to branch edges; the
// analysis package's BranchIndex implements it over the contract CFG. An
// EVM with an indexer installed interns edge identities into BranchEvents
// as they are emitted.
type BranchIndexer interface {
	EdgeID(pc uint64, taken bool) (int32, bool)
}

// CallEvent records one external CALL / DELEGATECALL / STATICCALL.
type CallEvent struct {
	ID          int
	Op          OpCode
	From        state.Address
	To          state.Address
	Value       u256.Int
	Gas         uint64
	Success     bool
	Depth       int
	TargetTaint Taint // taint of the callee address operand
	ValueTaint  Taint // taint of the value operand
	Checked     bool  // success flag later consumed by a JUMPI
	Reentered   bool  // executing the callee re-entered an active contract
}

// OverflowEvent records a wrapping arithmetic operation.
type OverflowEvent struct {
	Addr state.Address
	PC   uint64
	Op   OpCode
	A, B u256.Int
	// Stored is set when the overflowed result (tracked by taint) later
	// reaches an SSTORE or a CALL value in the same transaction.
	Stored bool
}

// SinkKind classifies where a tainted value was consumed.
type SinkKind uint8

const (
	SinkJumpCond   SinkKind = iota // JUMPI condition
	SinkCompare                    // LT/GT/SLT/SGT/EQ operand
	SinkEq                         // EQ operand specifically
	SinkCallValue                  // CALL value argument
	SinkCallTarget                 // CALL target address
	SinkStore                      // SSTORE value
)

// TaintSink records a tainted value reaching an oracle-relevant sink.
type TaintSink struct {
	Addr  state.Address
	PC    uint64
	Kind  SinkKind
	Taint Taint
}

// SStoreEvent records one storage write.
type SStoreEvent struct {
	Addr  state.Address
	Slot  u256.Int
	Value u256.Int
	Taint Taint
}

// SelfDestructEvent records a SELFDESTRUCT execution.
type SelfDestructEvent struct {
	Addr            state.Address
	Beneficiary     state.Address
	CallerIsCreator bool
	OriginIsCreator bool
}

// DelegateEvent records a DELEGATECALL execution.
type DelegateEvent struct {
	Addr            state.Address
	TargetTaint     Taint
	InputTaint      Taint
	CallerIsCreator bool
}

// ReentryEvent records a re-entry: a frame began executing a contract that
// was already active further up the call stack.
type ReentryEvent struct {
	Addr state.Address
	// Selector of the re-entered function (zero when calldata < 4 bytes).
	Selector [4]byte
	// EnabledByValueCall is true when the enabling outer call carried value
	// and more than the 2300 gas stipend — the reentrancy precondition from
	// paper §IV-D.
	EnabledByValueCall bool
}

// Trace accumulates every event of one transaction execution.
type Trace struct {
	Branches      []BranchEvent
	Calls         []CallEvent
	Overflows     []OverflowEvent
	Sinks         []TaintSink
	SStores       []SStoreEvent
	SelfDestructs []SelfDestructEvent
	Delegates     []DelegateEvent
	Reentries     []ReentryEvent
	// ExecutedOps is the set of opcodes executed, used by campaign-level
	// oracles (e.g. ether freezing).
	ExecutedOps OpSet
	// ValueOutAttempted is set when the contract attempted to move value out
	// (CALL with value, SELFDESTRUCT) regardless of success.
	ValueOutAttempted bool
	// Reverted is set when the top-level call reverted or failed.
	Reverted bool
	// Steps counts executed instructions.
	Steps int
	// PCs is the ordered program-counter path of the top-level frame; the
	// path-prefix analysis (paper §IV-C, Algorithm 3) walks it.
	PCs []uint64
}

// OpSet is a dense opcode membership set. It replaces the map the trace used
// to allocate and clear per transaction: marking is an array store, reset is
// a 256-byte memclr.
type OpSet [256]bool

// Has reports whether op is in the set.
func (s *OpSet) Has(op OpCode) bool {
	return s[op]
}

// NewTrace returns an empty trace ready for one transaction.
func NewTrace() *Trace {
	return &Trace{}
}

// Reset clears the trace for reuse, keeping the capacity of its event
// buffers. Executors recycle one Trace across transactions so the hot path
// does not reallocate eight slices per execution.
func (t *Trace) Reset() {
	t.Branches = t.Branches[:0]
	t.Calls = t.Calls[:0]
	t.Overflows = t.Overflows[:0]
	t.Sinks = t.Sinks[:0]
	t.SStores = t.SStores[:0]
	t.SelfDestructs = t.SelfDestructs[:0]
	t.Delegates = t.Delegates[:0]
	t.Reentries = t.Reentries[:0]
	t.ExecutedOps = OpSet{}
	t.ValueOutAttempted = false
	t.Reverted = false
	t.Steps = 0
	t.PCs = t.PCs[:0]
}

// markOp records op execution.
func (t *Trace) markOp(op OpCode) {
	if t == nil {
		return
	}
	t.ExecutedOps[op] = true
}

// BranchKey identifies a branch edge: a JUMPI site plus the direction taken.
// The number of distinct BranchKeys covered is the paper's coverage metric
// ("basic block transitions").
type BranchKey struct {
	Addr  state.Address
	PC    uint64
	Taken bool
}

// Key returns the coverage key of a branch event.
func (b BranchEvent) Key() BranchKey {
	return BranchKey{Addr: b.Addr, PC: b.PC, Taken: b.Taken}
}
