package fuzz

// AttackerMemo exposes one executor's memoized attacker build to the
// external tests, which can import internal/world (world imports fuzz).
type AttackerMemo struct{ x *executor }

// AttackerMemoCap is the memo's bound.
const AttackerMemoCap = attackerMemoCap

// NewAttackerMemo returns an empty memo over m.
func NewAttackerMemo(m AttackerModel) *AttackerMemo {
	return &AttackerMemo{x: &executor{attackerModel: m}}
}

// Compile is the memoized m.Compile.
func (a *AttackerMemo) Compile(enc []byte) []byte { return a.x.compileAttacker(enc) }

// Len is the number of specs the memo holds.
func (a *AttackerMemo) Len() int { return len(a.x.attackerCode) }

// TraceCounts returns how many transactions the campaign's executor ran
// live, and how many taint sinks and overflow events the EVM recorded in
// them.
func (c *Campaign) TraceCounts() (txs, sinks, overflows int) {
	r := c.exec.recorded
	return r.txs, r.sinks, r.overflows
}
