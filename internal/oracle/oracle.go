// Package oracle implements the nine bug oracles of paper §IV-D. Oracles
// consume EVM execution traces (taint sinks, call events, overflow events,
// reentry events) plus a little campaign-level state, and emit findings.
//
// The oracles are split into two halves so one transaction's verdict can
// outlive the execution that produced it:
//
//   - Inspector is the stateless per-execution half: it matches one trace
//     against the per-transaction rules and returns a Report. Inspectors are
//     immutable after construction. The executor caches the Reports of a
//     sequence prefix in the prefix's checkpoint, so a child resumed from
//     the checkpoint replays them instead of re-executing the prefix.
//   - Detector is the campaign-level aggregate: the campaign folds every
//     Report into it, cached or live, in transaction order; it dedups
//     findings and applies whole-campaign oracles (EF) at Finalize.
package oracle

import (
	"fmt"
	"sort"

	"mufuzz/internal/analysis"
	"mufuzz/internal/evm"
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// BugClass identifies one of the nine vulnerability classes of Table I.
type BugClass string

// The nine bug classes.
const (
	BD BugClass = "BD" // block dependency
	UD BugClass = "UD" // unprotected delegatecall
	EF BugClass = "EF" // ether freezing
	IO BugClass = "IO" // integer over-/under-flow
	RE BugClass = "RE" // reentrancy
	US BugClass = "US" // unprotected selfdestruct
	SE BugClass = "SE" // strict ether equality
	TO BugClass = "TO" // tx.origin use
	UE BugClass = "UE" // unhandled exception
)

// AllClasses lists every bug class in report order.
var AllClasses = []BugClass{BD, UD, EF, IO, RE, US, SE, TO, UE}

// Finding is one detected vulnerability instance.
type Finding struct {
	Class       BugClass
	Addr        state.Address
	PC          uint64
	Description string
}

// FindingKey is the dedup identity of a finding: its class and location.
// It is comparable, so it keys maps directly, and it is never encoded:
// State and Finalize order findings by class and PC.
type FindingKey struct {
	Class BugClass
	Addr  state.Address
	PC    uint64
}

// Key dedups findings per (class, location).
func (f Finding) Key() FindingKey {
	return FindingKey{Class: f.Class, Addr: f.Addr, PC: f.PC}
}

// Report is what one transaction's inspection observed: the findings the
// trace exhibits (deduped within the trace, in detection order) plus whether
// the transaction paid value into the contract (input to the EF oracle).
type Report struct {
	Findings      []Finding
	ReceivedValue bool
	// ValueOutOK marks a witnessed successful value-out execution (a
	// value-bearing CALL from the contract that succeeded, or a selfdestruct).
	// Only witnessed-mode inspectors set it; it feeds the trace-based EF
	// oracle, which replaces the static value-out-opcode scan in world mode.
	ValueOutOK bool
}

// Empty reports whether the inspection observed nothing of interest.
// ValueOutOK is only ever set by witnessed inspectors, so heuristic-mode
// campaigns surface exactly the reports they always did.
func (r Report) Empty() bool {
	return len(r.Findings) == 0 && !r.ReceivedValue && !r.ValueOutOK
}

// Inspector is the stateless per-execution oracle half. All fields are fixed
// at construction, so one Inspector may serve any number of concurrent
// executions.
type Inspector struct {
	addr state.Address

	// static fact about the code, for the ether-freezing oracle
	hasValueOutOp bool

	// witness switches the cross-contract oracles (RE, UD, EF) from taint
	// heuristics to witnessed-schedule rules over the real call trace:
	// reentrancy needs an actual reentrant frame (the campaign adds a
	// state-divergence confirm on top), dangerous delegatecall needs a
	// delegatecall into attacker-controlled code to have executed, and ether
	// freezing tracks whether a value-out ever succeeded instead of whether a
	// value-out opcode exists. World campaigns construct witnessed
	// inspectors; the single-contract path never sets this.
	witness bool
	// attacker is the account whose code the fuzzer synthesizes (witnessed
	// mode only): the UD oracle keys on delegatecalls into it.
	attacker state.Address
}

// NewInspector builds an inspector for the contract at addr with the given
// runtime code. The code is scanned once for value-out instructions (CALL,
// DELEGATECALL, SELFDESTRUCT) — a contract with none of them can never move
// ether out, the static half of the EF oracle.
func NewInspector(addr state.Address, code []byte) *Inspector {
	ins := &Inspector{addr: addr}
	for _, i := range analysis.Disassemble(code) {
		switch i.Op {
		case evm.CALL, evm.DELEGATECALL, evm.SELFDESTRUCT:
			ins.hasValueOutOp = true
		}
	}
	return ins
}

// NewWitnessedInspector builds a witnessed-mode inspector for world
// campaigns: RE/UD/EF key on the observed cross-contract schedule instead of
// taint shapes. attacker is the synthesized attacker account.
func NewWitnessedInspector(addr state.Address, code []byte, attacker state.Address) *Inspector {
	ins := NewInspector(addr, code)
	ins.witness = true
	ins.attacker = attacker
	return ins
}

// add records a finding unless the report already holds one with the same
// Key. A trace yields a handful of findings at most, so a scan of the
// report's own list dedups without building a set per inspection.
func (r *Report) add(f Finding) {
	k := f.Key()
	for _, g := range r.Findings {
		if g.Key() == k {
			return
		}
	}
	r.Findings = append(r.Findings, f)
}

// Inspect applies all per-transaction oracles to one execution trace and
// returns everything observed. txValue is the value sent with the
// transaction, txOK whether it succeeded. Inspect does not mutate the
// inspector; callers fold the Report into a Detector to dedup across the
// campaign.
func (ins *Inspector) Inspect(tr *evm.Trace, txValue u256.Int, txOK bool) Report {
	if tr == nil {
		return Report{}
	}
	var r Report
	if txOK && !txValue.IsZero() {
		r.ReceivedValue = true
	}
	ins.inspectSinks(tr, &r)
	ins.inspectOverflows(tr, &r)
	ins.inspectCalls(tr, &r)
	ins.inspectReentry(tr, &r)
	ins.inspectSelfDestructs(tr, &r)
	ins.inspectDelegates(tr, &r)
	if ins.witness {
		ins.inspectValueOut(tr, &r)
	}
	return r
}

// inspectValueOut (witnessed mode) records whether the contract actually
// moved value out in this execution: a successful value-bearing CALL it
// issued, or a selfdestruct (which sweeps the balance to the beneficiary).
// The detector aggregates this into the trace-based EF oracle.
func (ins *Inspector) inspectValueOut(tr *evm.Trace, r *Report) {
	for _, c := range tr.Calls {
		if c.Op == evm.CALL && c.From == ins.addr && c.Success && !c.Value.IsZero() {
			r.ValueOutOK = true
			return
		}
	}
	for _, sd := range tr.SelfDestructs {
		if sd.Addr == ins.addr {
			r.ValueOutOK = true
			return
		}
	}
}

// inspectSinks covers BD, SE, and TO, which are all source→sink taint rules.
// The EVM records sinks only in the inspected contract's storage context
// (evm.EVM.InspectedAddr), so every sink is the contract's.
func (ins *Inspector) inspectSinks(tr *evm.Trace, r *Report) {
	for _, s := range tr.Sinks {
		// BD: block state contaminates a CALL, JUMPI, or comparison.
		if s.Taint&(evm.TaintTimestamp|evm.TaintNumber) != 0 {
			switch s.Kind {
			case evm.SinkJumpCond, evm.SinkCompare, evm.SinkCallValue, evm.SinkCallTarget:
				r.add(Finding{
					Class: BD, Addr: ins.addr, PC: s.PC,
					Description: "block state (timestamp/number) influences a branch or call",
				})
			}
		}
		// SE: BALANCE flows into a strict equality comparison.
		if s.Kind == evm.SinkEq && s.Taint.Has(evm.TaintBalance) {
			r.add(Finding{
				Class: SE, Addr: ins.addr, PC: s.PC,
				Description: "contract balance compared with strict equality",
			})
		}
		// TO: tx.origin used in a comparison (authentication misuse).
		if (s.Kind == evm.SinkCompare || s.Kind == evm.SinkEq || s.Kind == evm.SinkJumpCond) &&
			s.Taint.Has(evm.TaintOrigin) {
			r.add(Finding{
				Class: TO, Addr: ins.addr, PC: s.PC,
				Description: "tx.origin used in a comparison/guard",
			})
		}
	}
}

// inspectOverflows covers IO: a wrapping ADD/SUB/MUL whose result reached
// persistent storage or a call value in the same transaction. Like sinks,
// overflow events are recorded only in the inspected contract's storage
// context.
func (ins *Inspector) inspectOverflows(tr *evm.Trace, r *Report) {
	if len(tr.Overflows) == 0 {
		return
	}
	sinkSeen := false
	for _, s := range tr.Sinks {
		if s.Taint.Has(evm.TaintOverflow) && (s.Kind == evm.SinkStore || s.Kind == evm.SinkCallValue) {
			sinkSeen = true
			break
		}
	}
	if !sinkSeen {
		return
	}
	for _, ov := range tr.Overflows {
		r.add(Finding{
			Class: IO, Addr: ins.addr, PC: ov.PC,
			Description: fmt.Sprintf("%s wraps mod 2^256 and the result persists", ov.Op),
		})
	}
}

// inspectCalls covers UE: an external call the contract's own code made
// failed and its status word was never consumed by a conditional jump. A
// call made by code the contract delegatecalled is that code's to check.
func (ins *Inspector) inspectCalls(tr *evm.Trace, r *Report) {
	for _, c := range tr.Calls {
		if c.From != ins.addr || c.Op != evm.CALL || c.Delegated {
			continue
		}
		if !c.Success && !c.Checked {
			r.add(Finding{
				Class: UE, Addr: c.From, PC: uint64(c.ID),
				Description: "external call failed and the status was not checked",
			})
		}
	}
}

// inspectReentry covers RE. Heuristic mode fires when the contract was
// re-entered while an outer value-bearing call with more than the gas
// stipend was in flight (the paper's precondition shape). Witnessed mode
// fires on any actual reentrant frame of the contract — the schedule really
// happened, value-enabled or not — and relies on the campaign's
// state-divergence confirm to discard harmless reentries before the finding
// is absorbed.
func (ins *Inspector) inspectReentry(tr *evm.Trace, r *Report) {
	for _, re := range tr.Reentries {
		if re.Addr != ins.addr {
			continue
		}
		if ins.witness {
			r.add(Finding{
				Class: RE, Addr: re.Addr, PC: 0,
				Description: "reentrant schedule executed against the contract and diverged state",
			})
			continue
		}
		if !re.EnabledByValueCall {
			continue
		}
		r.add(Finding{
			Class: RE, Addr: re.Addr, PC: 0,
			Description: "contract re-entered during a value call with forwarded gas",
		})
	}
}

// inspectSelfDestructs covers US: SELFDESTRUCT executed by a caller that is
// neither the creator nor sent by the creator.
func (ins *Inspector) inspectSelfDestructs(tr *evm.Trace, r *Report) {
	for _, sd := range tr.SelfDestructs {
		if sd.Addr != ins.addr {
			continue
		}
		if !sd.CallerIsCreator && !sd.OriginIsCreator {
			r.add(Finding{
				Class: US, Addr: sd.Addr, PC: 0,
				Description: "selfdestruct reachable by a non-owner caller",
			})
		}
	}
}

// inspectDelegates covers UD. Heuristic mode flags a DELEGATECALL whose
// target or input derives from transaction input, executed without an owner
// guard. Witnessed mode instead requires the delegatecall to have actually
// executed attacker-controlled code in the contract's storage context — the
// call trace shows a successful DELEGATECALL into the synthesized attacker
// account, which is the real exploit, not its taint shadow.
func (ins *Inspector) inspectDelegates(tr *evm.Trace, r *Report) {
	if ins.witness {
		for _, c := range tr.Calls {
			if c.Op == evm.DELEGATECALL && c.From == ins.addr && c.To == ins.attacker && c.Success {
				r.add(Finding{
					Class: UD, Addr: c.From, PC: 0,
					Description: "delegatecall executed attacker-controlled code in the contract's storage context",
				})
			}
		}
		return
	}
	for _, dg := range tr.Delegates {
		if dg.Addr != ins.addr {
			continue
		}
		userControlled := dg.TargetTaint.Has(evm.TaintInput) || dg.InputTaint.Has(evm.TaintInput)
		if userControlled && !dg.CallerIsCreator {
			r.add(Finding{
				Class: UD, Addr: dg.Addr, PC: 0,
				Description: "delegatecall with user-controlled target reachable by non-owner",
			})
		}
	}
}

// Detector accumulates findings for one contract across a fuzzing campaign.
// It is the coordinator-side aggregate: Absorb reports in execution order on
// one goroutine, then Finalize.
type Detector struct {
	insp *Inspector

	receivedValue bool
	// valueOutSeen aggregates witnessed-mode ValueOutOK reports: some
	// execution of the campaign actually moved value out of the contract.
	valueOutSeen bool
	findings     map[FindingKey]Finding
	// classes is the set of classes findings holds, kept in step with it so
	// Absorb and Classes never walk the findings.
	classes map[BugClass]bool
}

// NewDetector builds a detector (and its embedded inspector) for the
// contract at addr with the given runtime code.
func NewDetector(addr state.Address, code []byte) *Detector {
	return newDetector(NewInspector(addr, code))
}

// NewWitnessedDetector is NewDetector over a witnessed-mode inspector (world
// campaigns; see NewWitnessedInspector).
func NewWitnessedDetector(addr state.Address, code []byte, attacker state.Address) *Detector {
	return newDetector(NewWitnessedInspector(addr, code, attacker))
}

func newDetector(insp *Inspector) *Detector {
	return &Detector{
		insp:     insp,
		findings: make(map[FindingKey]Finding),
		classes:  make(map[BugClass]bool),
	}
}

// Inspector exposes the stateless half for concurrent executors.
func (d *Detector) Inspector() *Inspector {
	return d.insp
}

func (d *Detector) add(f Finding) {
	k := f.Key()
	if _, dup := d.findings[k]; !dup {
		d.findings[k] = f
		d.classes[f.Class] = true
	}
}

// Absorb folds one transaction's Report into the aggregate. It returns the
// bug classes newly discovered by the report (empty for repeats of known
// findings), in the report's detection order.
func (d *Detector) Absorb(r Report) []BugClass {
	if r.ReceivedValue {
		d.receivedValue = true
	}
	if r.ValueOutOK {
		d.valueOutSeen = true
	}
	var fresh []BugClass
	for _, f := range r.Findings {
		// A class is fresh when no finding held it before this one; adding
		// the finding puts it in the set, so later findings of the same
		// class in this report are not reported again.
		if !d.classes[f.Class] {
			fresh = append(fresh, f.Class)
		}
		d.add(f)
	}
	return fresh
}

// Inspect applies all per-transaction oracles to one execution trace and
// absorbs the result — the single-threaded convenience path.
func (d *Detector) Inspect(tr *evm.Trace, txValue u256.Int, txOK bool) []BugClass {
	return d.Absorb(d.insp.Inspect(tr, txValue, txOK))
}

// State captures the detector's serializable campaign-level state: the
// received-value flag and every finding absorbed so far, in deterministic
// (class, PC) order. Together with the embedded inspector's construction
// inputs (contract address and code, both campaign constants) it fully
// describes the detector, so a snapshotted campaign restores oracle
// aggregation exactly.
func (d *Detector) State() (receivedValue bool, findings []Finding) {
	out := make([]Finding, 0, len(d.findings))
	for _, f := range d.findings {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].PC < out[j].PC
	})
	return d.receivedValue, out
}

// Restore overwrites the detector's aggregate state with a snapshot taken by
// State. The inspector half is untouched (it is stateless).
func (d *Detector) Restore(receivedValue bool, findings []Finding) {
	d.receivedValue = receivedValue
	d.findings = make(map[FindingKey]Finding, len(findings))
	d.classes = make(map[BugClass]bool)
	for _, f := range findings {
		d.findings[f.Key()] = f
		d.classes[f.Class] = true
	}
}

// frozen is the campaign-level EF condition: the contract accepted ether
// but can never pay it out. The heuristic inspector proves "never" by the
// absence of value-out opcodes; the witnessed inspector by no execution of
// the whole campaign ever moving value out successfully.
func (d *Detector) frozen() bool {
	if !d.receivedValue {
		return false
	}
	if d.insp.witness {
		return !d.valueOutSeen
	}
	return !d.insp.hasValueOutOp
}

// efDescription renders the mode-appropriate EF explanation.
func (d *Detector) efDescription() string {
	if d.insp.witness {
		return "contract accepted ether and no execution ever moved value out"
	}
	return "contract accepts ether but has no value-transferring instruction"
}

// Finalize applies campaign-level oracles (EF) and returns all findings in
// deterministic order. It does not mutate the aggregate: in witnessed mode
// the EF verdict is retractable — a later execution can move value out and
// clear frozen() — so persisting it here would bake a stale verdict into
// snapshots taken after a mid-campaign result. The finding is recomputed
// from (receivedValue, valueOutSeen) on every call and reappears identically
// at the true end whenever the condition still holds.
func (d *Detector) Finalize() []Finding {
	out := make([]Finding, 0, len(d.findings)+1)
	for _, f := range d.findings {
		out = append(out, f)
	}
	if d.frozen() {
		ef := Finding{
			Class: EF, Addr: d.insp.addr, PC: 0,
			Description: d.efDescription(),
		}
		if _, dup := d.findings[ef.Key()]; !dup {
			out = append(out, ef)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// Classes returns the distinct bug classes found so far.
func (d *Detector) Classes() map[BugClass]bool {
	out := make(map[BugClass]bool, len(d.classes)+1)
	for class := range d.classes {
		out[class] = true
	}
	if d.frozen() {
		out[EF] = true
	}
	return out
}

// ValueOutSeen exposes the witnessed value-out aggregate for snapshots.
func (d *Detector) ValueOutSeen() bool { return d.valueOutSeen }

// SetValueOutSeen restores the witnessed value-out aggregate from a
// snapshot.
func (d *Detector) SetValueOutSeen(v bool) { d.valueOutSeen = v }
