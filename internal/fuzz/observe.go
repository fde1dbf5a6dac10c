package fuzz

import "mufuzz/internal/oracle"

// BranchEdge names one branch edge of the contract under test by its program
// counter and direction. It is the stable, engine-independent edge identity
// used by conformance transcripts: interned edge IDs are an in-memory detail
// of one campaign, but (PC, Taken) pairs survive serialization and compare
// across engine variants, processes, and machines.
type BranchEdge struct {
	PC    uint64
	Taken bool
}

// ExecRecord is the observable feedback of exactly one campaign execution:
// the sequence that ran, the coverage delta it produced, and the oracle
// classes it newly discovered. A stream of ExecRecords is a complete semantic
// trace of a campaign — two engines that emit identical record streams made
// identical decisions execution for execution. Seq, NewEdges and NewClasses
// are fresh for every record, and the engine never writes a transaction's
// Args or Attacker in place, so an observer may keep a record as is.
type ExecRecord struct {
	// Index is the 1-based execution index (matches Result.Executions).
	Index int
	// Seq is a private clone of the executed sequence.
	Seq Sequence
	// NewEdges lists the branch edges this execution covered for the first
	// time in the campaign, in event order.
	NewEdges []BranchEdge
	// CoveredAfter is the campaign's covered-edge count after this execution.
	CoveredAfter int
	// NestedDepth is the deepest compile-time branch nesting reached.
	NestedDepth int
	// DistImproved reports whether the execution improved the minimum branch
	// distance of some uncovered edge.
	DistImproved bool
	// NewClasses are the bug classes first discovered by this execution, in
	// detection order.
	NewClasses []oracle.BugClass
}

// ExecObserver receives one ExecRecord per campaign execution. Calls happen
// on the campaign's goroutine, in execution index order — an observer needs
// no synchronization of its own. Observing is semantically inert: it must
// not (and cannot, through this interface) influence the campaign's
// decisions.
type ExecObserver interface {
	OnExec(ExecRecord)
}
