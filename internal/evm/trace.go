package evm

import (
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// Taint is a bitmask recording which environment sources influenced a value.
// Taints propagate through arithmetic, memory, and (across transactions)
// storage, where the state keeps them as each slot's 16-bit tag; the bug
// oracles (paper §IV-D) match sources against sinks.
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

// BranchEvent records one executed JUMPI of the inspected contract's own
// code (see EVM.BranchIndex): the edge it took and the comparison behind its
// condition. Coverage, nesting depth and Algorithm 3's weights read only the
// edge; branch distance and operand splicing read the comparison.
type BranchEvent struct {
	// Edge is the compact ID the EVM's BranchIndexer assigned to the
	// (pc, direction) edge.
	Edge   int32
	HasCmp bool
	Cmp    CmpInfo
}

// BranchIndexer assigns campaign-stable compact IDs to branch edges; the
// analysis package's BranchIndex implements it over the contract CFG. An
// EVM with an indexer installed records a BranchEvent, carrying the edge's
// ID, for every JUMPI of the inspected contract's own code.
type BranchIndexer interface {
	EdgeID(pc uint64, taken bool) (int32, bool)
}

// CallEvent records one external CALL / DELEGATECALL / STATICCALL.
type CallEvent struct {
	ID      int
	Op      OpCode
	From    state.Address
	To      state.Address
	Value   u256.Int
	Gas     uint64
	Success bool
	Depth   int
	Checked bool // success flag later consumed by a JUMPI
	// Delegated marks a call issued by code that From delegatecalled: From
	// is the storage context, not the code that made the call.
	Delegated bool
}

// OverflowEvent records a wrapping arithmetic operation of the inspected
// contract's storage context (see EVM.InspectedAddr).
type OverflowEvent struct {
	PC uint64
	Op OpCode
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

// SinkSources is the set of taint sources the bug oracles match at sinks:
// block state (BD), the balance (SE), tx.origin (TO) and wrapped arithmetic
// (IO), paper §IV-D. A sink whose taint holds none of them can fire no
// oracle, so the EVM does not record it.
const SinkSources = TaintTimestamp | TaintNumber | TaintBalance | TaintOrigin | TaintOverflow

// TaintSink records a value tainted by a SinkSources bit reaching an
// oracle-relevant sink in the inspected contract's storage context (see
// EVM.InspectedAddr).
type TaintSink struct {
	PC    uint64
	Kind  SinkKind
	Taint Taint
}

// SelfDestructEvent records a SELFDESTRUCT execution.
type SelfDestructEvent struct {
	Addr            state.Address
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
	// EnabledByValueCall is true when the enabling outer call carried value
	// and more than the 2300 gas stipend — the reentrancy precondition from
	// paper §IV-D.
	EnabledByValueCall bool
}

// Trace accumulates the events of one transaction execution that the
// fuzzer's feedback (branch events) and the bug oracles (everything else)
// read.
type Trace struct {
	Branches      []BranchEvent
	Calls         []CallEvent
	Overflows     []OverflowEvent
	Sinks         []TaintSink
	SelfDestructs []SelfDestructEvent
	Delegates     []DelegateEvent
	Reentries     []ReentryEvent
}

// NewTrace returns an empty trace ready for one transaction.
func NewTrace() *Trace {
	return &Trace{}
}

// Reset clears the trace for reuse, keeping the capacity of its event
// buffers. Executors recycle one Trace across transactions so the hot path
// does not reallocate seven slices per execution.
func (t *Trace) Reset() {
	t.Branches = t.Branches[:0]
	t.Calls = t.Calls[:0]
	t.Overflows = t.Overflows[:0]
	t.Sinks = t.Sinks[:0]
	t.SelfDestructs = t.SelfDestructs[:0]
	t.Delegates = t.Delegates[:0]
	t.Reentries = t.Reentries[:0]
}

// BranchKey identifies a branch edge: a JUMPI site plus the direction taken.
// The number of distinct BranchKeys covered is the paper's coverage metric
// ("basic block transitions").
type BranchKey struct {
	Addr  state.Address
	PC    uint64
	Taken bool
}
