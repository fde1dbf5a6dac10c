package evm

import (
	"mufuzz/internal/u256"
)

// This file implements the decode-once interpreter IR: bytecode is decoded
// and lightly compiled exactly once per code blob, and the hot execution loop
// runs over the pre-decoded instruction stream instead of re-reading raw
// bytes (and re-materializing PUSH immediates) on every execution.
//
// The IR is a pure performance layer. Its contract with the switch-loop
// interpreter in interpreter.go is byte-identical observable behavior: the
// same trace events in the same order, the same gas at every failure point,
// the same step accounting, the same errors. The conformance differential
// matrix runs whole campaigns with the IR disabled (Options.NoIR) and
// requires identical transcripts; anything the IR wants to shortcut must
// either preserve those semantics exactly or fall back to the plain
// per-instruction path.

// Instr is one decoded instruction on the bytecode's PC grid. It is the
// shared decoder element for every consumer of disassembly in the tree —
// the interpreter's IR compiler, analysis.BuildCFG, cmd/disasm, and the
// ingest dispatcher recovery all read this shape (analysis.Instruction is an
// alias of it).
type Instr struct {
	PC uint64
	Op OpCode
	// Imm is the PUSH immediate as a sub-slice of code (truncated, not
	// padded, when the push runs off the end of code), nil for other ops.
	Imm []byte
}

// Decode disassembles code into its instruction sequence, skipping PUSH
// immediates on the PC grid.
func Decode(code []byte) []Instr {
	out := make([]Instr, 0, len(code)/2+1)
	for pc := 0; pc < len(code); {
		op := OpCode(code[pc])
		ins := Instr{PC: uint64(pc), Op: op}
		if n := op.PushBytes(); n > 0 {
			end := pc + 1 + n
			if end > len(code) {
				end = len(code)
			}
			ins.Imm = code[pc+1 : end]
			pc = end
		} else {
			pc++
		}
		out = append(out, ins)
	}
	return out
}

// irKind discriminates the per-instruction fast paths of frame.runIR. Plain
// instructions still dispatch through frame.execute — the IR only inlines
// the families the switch loop also inlines (PUSH/DUP/SWAP/LOG) plus the
// pc-mutating jumps, which need their successor re-mapped to an instruction
// index.
type irKind uint8

const (
	irPlain irKind = iota // dispatch through frame.execute, successor i+1
	irPush                // pre-resolved immediate push
	irDup
	irSwap
	irLog
	irJump // JUMP/JUMPI: execute, then re-map f.pc through pcToIdx
)

// Fused superinstruction kinds, annotated on the head instruction of a
// recognized pattern. Constituent instructions stay in the stream unchanged:
// control flow can only enter a pattern at its head (no constituent is a
// JUMPDEST, so no jump lands mid-pattern), and when a runtime guard fails —
// near the step limit, low on gas, stack out of range — the head simply
// executes unfused and the following constituents run plain, reproducing the
// switch loop's exact per-instruction semantics at every failure point.
const (
	fuseNone uint8 = iota
	// fuseDispatch is the solc/MiniSol dispatcher arm
	// DUP1 PUSH4 <sel> EQ PUSHn <dst> JUMPI (5 constituents).
	fuseDispatch
	// fuseCmpJumpi is LT/GT/SLT/SGT/EQ PUSHn <dst> JUMPI (3 constituents),
	// with the branch-distance comparison recorded inline.
	fuseCmpJumpi
	// fuseIsZeroJumpi is ISZERO PUSHn <dst> JUMPI (3 constituents).
	fuseIsZeroJumpi
	// fusePushJump / fusePushJumpi are the static-jump pairs (2 constituents).
	fusePushJump
	fusePushJumpi
	// fuseDupSload is DUPn SLOAD (2 constituents).
	fuseDupSload
)

// irInstr is one compiled instruction.
type irInstr struct {
	op   OpCode
	kind irKind
	// fuse is the superinstruction annotation when this instruction heads a
	// fused pattern (fuseNone otherwise).
	fuse uint8
	// n is the family parameter: DUPn/SWAPn depth, LOG pop count.
	n uint8
	// fSteps/fGas are the constituent count and total gas of the fused
	// pattern; the fast path batches both only when the whole pattern fits.
	fSteps uint8
	fGas   uint16
	// blockStart marks basic-block leaders (entry, JUMPDESTs, instructions
	// after a terminator).
	blockStart bool
	pc         uint32
	// fTarget is the instruction index of the fused pattern's statically
	// validated jump destination.
	fTarget int32
	// imm is the pre-resolved (right-padded) PUSH immediate.
	imm u256.Int
	// fSel is the dispatcher pattern's PUSH4 selector word (the EQ operand).
	fSel u256.Int
}

// Program is the compiled IR of one code blob: the decoded instruction
// stream with pre-resolved immediates, the pc→instruction-index table that
// makes JUMP/JUMPI resolution O(1), the valid-JUMPDEST grid, basic-block
// leaders, and fused superinstruction annotations. A Program is immutable
// after CompileProgram and safe to share read-only across worker EVMs.
type Program struct {
	code   []byte
	instrs []irInstr
	// pcToIdx maps every grid pc to its instruction index; index len(code)
	// and pcs inside PUSH immediates hold len(instrs) (implicit STOP — the
	// interpreter never jumps into an immediate, JUMPDEST validation rejects
	// it first).
	pcToIdx []int32
	// dests is the valid-JUMPDEST grid, indexed by pc. This is the single
	// source of jump-destination truth; the switch loop's frames use it too.
	dests  []bool
	blocks int
}

// Code returns the bytecode the program was compiled from.
func (p *Program) Code() []byte { return p.code }

// NumInstrs returns the instruction count of the decoded stream.
func (p *Program) NumInstrs() int { return len(p.instrs) }

// NumBlocks returns the number of basic blocks (leader count).
func (p *Program) NumBlocks() int { return p.blocks }

// NumFused returns how many instructions head a fused superinstruction.
func (p *Program) NumFused() int {
	n := 0
	for i := range p.instrs {
		if p.instrs[i].fuse != fuseNone {
			n++
		}
	}
	return n
}

// JumpDests returns the valid-JUMPDEST grid (shared, read-only).
func (p *Program) JumpDests() []bool { return p.dests }

// CompileProgram decodes and compiles one code blob. Compilation is O(len
// code) and runs once per blob per campaign (see EVM.program); everything it
// precomputes — immediates, jump tables, fusion — is paid back millions of
// times on the execution hot path.
func CompileProgram(code []byte) *Program {
	dec := Decode(code)
	p := &Program{
		code:    code,
		instrs:  make([]irInstr, len(dec)),
		pcToIdx: make([]int32, len(code)+1),
		dests:   make([]bool, len(code)),
	}
	for i := range p.pcToIdx {
		p.pcToIdx[i] = int32(len(dec))
	}
	for i, d := range dec {
		ins := &p.instrs[i]
		ins.op = d.Op
		ins.pc = uint32(d.PC)
		ins.fTarget = -1
		p.pcToIdx[d.PC] = int32(i)
		switch {
		case d.Op.IsPush():
			ins.kind = irPush
			ins.imm = u256.FromBytes(rightPad(d.Imm, d.Op.PushBytes()))
		case d.Op.IsDup():
			ins.kind = irDup
			ins.n = uint8(d.Op-DUP1) + 1
		case d.Op.IsSwap():
			ins.kind = irSwap
			ins.n = uint8(d.Op-SWAP1) + 1
		case d.Op.IsLog():
			ins.kind = irLog
			ins.n = uint8(d.Op-LOG0) + 2
		case d.Op == JUMP || d.Op == JUMPI:
			ins.kind = irJump
		default:
			if d.Op == JUMPDEST {
				p.dests[d.PC] = true
			}
			ins.kind = irPlain
		}
	}
	p.markBlocks()
	p.fuse()
	return p
}

// markBlocks flags basic-block leaders: instruction 0, JUMPDESTs, and the
// instruction after any terminator.
func (p *Program) markBlocks() {
	ins := p.instrs
	for i := range ins {
		if i == 0 || ins[i].op == JUMPDEST {
			ins[i].blockStart = true
			continue
		}
		switch ins[i-1].op {
		case JUMP, JUMPI, STOP, RETURN, REVERT, INVALID, SELFDESTRUCT:
			ins[i].blockStart = true
		}
	}
	for i := range ins {
		if ins[i].blockStart {
			p.blocks++
		}
	}
}

// staticTargetIdx resolves a PUSH immediate as a jump target: the
// instruction index of the destination when it is a valid JUMPDEST, or
// (-1, false). Patterns whose target fails validation are left unfused so
// the plain path reproduces the exact ErrInvalidJump.
func (p *Program) staticTargetIdx(v u256.Int) (int32, bool) {
	if !v.FitsUint64() {
		return -1, false
	}
	d := v.Uint64()
	if d >= uint64(len(p.dests)) || !p.dests[d] {
		return -1, false
	}
	return p.pcToIdx[d], true
}

// fuse annotates superinstruction heads. Gas totals use the same cost model
// as the plain path (gasCost per constituent); step totals are the
// constituent counts.
func (p *Program) fuse() {
	ins := p.instrs
	for i := range ins {
		// Dispatcher arm: DUP1 PUSH4 EQ PUSHn JUMPI.
		if ins[i].op == DUP1 && i+4 < len(ins) &&
			ins[i+1].op == PUSH1+3 && ins[i+2].op == EQ &&
			ins[i+3].op.IsPush() && ins[i+4].op == JUMPI {
			if t, ok := p.staticTargetIdx(ins[i+3].imm); ok {
				ins[i].fuse = fuseDispatch
				ins[i].fSteps = 5
				ins[i].fGas = uint16(4*gasCost(DUP1) + gasCost(JUMPI))
				ins[i].fSel = ins[i+1].imm
				ins[i].fTarget = t
				continue
			}
		}
		// Comparison straight into a static branch: cmp PUSHn JUMPI.
		if (ins[i].op.IsComparison() || ins[i].op == ISZERO) && i+2 < len(ins) &&
			ins[i+1].op.IsPush() && ins[i+2].op == JUMPI {
			if t, ok := p.staticTargetIdx(ins[i+1].imm); ok {
				if ins[i].op == ISZERO {
					ins[i].fuse = fuseIsZeroJumpi
				} else {
					ins[i].fuse = fuseCmpJumpi
				}
				ins[i].fSteps = 3
				ins[i].fGas = uint16(2*gasCost(EQ) + gasCost(JUMPI))
				ins[i].fTarget = t
				continue
			}
		}
		// Static jumps: PUSHn JUMP / PUSHn JUMPI.
		if ins[i].op.IsPush() && i+1 < len(ins) &&
			(ins[i+1].op == JUMP || ins[i+1].op == JUMPI) {
			if t, ok := p.staticTargetIdx(ins[i].imm); ok {
				if ins[i+1].op == JUMP {
					ins[i].fuse = fusePushJump
				} else {
					ins[i].fuse = fusePushJumpi
				}
				ins[i].fSteps = 2
				ins[i].fGas = uint16(gasCost(PUSH1) + gasCost(JUMP))
				ins[i].fTarget = t
				continue
			}
		}
		// Storage read of a duplicated slot: DUPn SLOAD.
		if ins[i].op.IsDup() && i+1 < len(ins) && ins[i+1].op == SLOAD {
			ins[i].fuse = fuseDupSload
			ins[i].fSteps = 2
			ins[i].fGas = uint16(gasCost(DUP1) + gasCost(SLOAD))
		}
	}
}

// runIR executes the frame over the compiled instruction stream. It is the
// IR twin of frame.run: every observable effect — trace events and their
// order, step counts, gas at each possible failure point, error values —
// matches the switch loop exactly.
func (f *frame) runIR(p *Program) ([]byte, error) {
	e := f.evm
	instrs := p.instrs
	maxSt := e.maxSteps()
	i := int(p.pcToIdx[f.pc])
	for {
		if i >= len(instrs) {
			return nil, nil // implicit STOP off the end of code
		}
		ins := &instrs[i]

		if ins.fuse != fuseNone {
			if ni, ok := f.runFused(p, i, ins); ok {
				i = ni
				continue
			}
			// A guard failed (step limit near, gas low, stack out of range):
			// fall through and execute the head instruction unfused; the
			// constituents after it run plain on subsequent iterations.
		}

		f.pc = uint64(ins.pc)
		e.steps++
		if e.steps > maxSt {
			return nil, ErrStepLimit
		}
		if e.onStep != nil {
			e.onStep(f.depth, f.pc)
		}
		op := ins.op

		switch ins.kind {
		case irPush:
			if err := f.useGas(gasCost(op)); err != nil {
				return nil, err
			}
			if err := f.push(ins.imm, meta{}); err != nil {
				return nil, err
			}
			i++

		case irDup:
			n := int(ins.n)
			if len(f.stack) < n {
				return nil, underflowErr(op, f.pc)
			}
			if err := f.useGas(gasCost(op)); err != nil {
				return nil, err
			}
			idx := len(f.stack) - n
			if err := f.push(f.stack[idx], f.metas[idx]); err != nil {
				return nil, err
			}
			i++

		case irSwap:
			n := int(ins.n)
			if len(f.stack) < n+1 {
				return nil, underflowErr(op, f.pc)
			}
			if err := f.useGas(gasCost(op)); err != nil {
				return nil, err
			}
			top := len(f.stack) - 1
			f.stack[top], f.stack[top-n] = f.stack[top-n], f.stack[top]
			f.metas[top], f.metas[top-n] = f.metas[top-n], f.metas[top]
			i++

		case irLog:
			n := int(ins.n)
			if len(f.stack) < n {
				return nil, underflowErr(op, f.pc)
			}
			if err := f.useGas(gasCost(op)); err != nil {
				return nil, err
			}
			f.stack = f.stack[:len(f.stack)-n]
			f.metas = f.metas[:len(f.metas)-n]
			i++

		case irJump:
			pop, _, _ := op.Arity()
			if len(f.stack) < pop {
				return nil, underflowErr(op, f.pc)
			}
			if err := f.useGas(gasCost(op)); err != nil {
				return nil, err
			}
			if _, _, err := f.execute(op); err != nil {
				return nil, err
			}
			// execute left f.pc at dst-1 (taken) or at the jump itself (not
			// taken); either way the successor sits at f.pc+1 on the grid.
			i = int(p.pcToIdx[f.pc+1])

		default: // irPlain
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
			done, out, err := f.execute(op)
			if err != nil {
				return nil, err
			}
			if done {
				return out, nil
			}
			i++
		}
	}
}

// runFused executes the fused superinstruction headed at instruction i and
// returns the next instruction index. ok=false means a runtime guard failed
// and the caller must execute the head unfused. Guards are strict enough
// that the fused body cannot fail: once they pass, steps, gas, and stack
// effects of every constituent are batched with no intermediate error
// point, which is sound exactly because no constituent could have erred.
func (f *frame) runFused(p *Program, i int, ins *irInstr) (int, bool) {
	e := f.evm
	L := len(f.stack)
	if e.steps+int(ins.fSteps) > e.maxSteps() || f.gas < uint64(ins.fGas) {
		return 0, false
	}
	// Per-pattern stack guards: enough operands for every constituent's
	// arity check and headroom for every transient push.
	switch ins.fuse {
	case fuseDispatch:
		if L < 1 || L+2 > maxStack {
			return 0, false
		}
	case fuseCmpJumpi:
		if L < 2 {
			return 0, false
		}
	case fuseIsZeroJumpi, fusePushJumpi:
		if L < 1 || L+1 > maxStack {
			return 0, false
		}
	case fusePushJump:
		if L+1 > maxStack {
			return 0, false
		}
	case fuseDupSload:
		if L < int(ins.n) || L+1 > maxStack {
			return 0, false
		}
	}

	e.steps += int(ins.fSteps)
	f.gas -= uint64(ins.fGas)
	if e.onStep != nil {
		for k := i; k < i+int(ins.fSteps); k++ {
			e.onStep(f.depth, uint64(p.instrs[k].pc))
		}
	}

	switch ins.fuse {
	case fuseDispatch:
		// DUP1 PUSH4 EQ PUSHn JUMPI with the calldata word v on top of the
		// stack: net stack effect is nil (v stays), so the dup/push/pop
		// churn — five 32-byte copies — is skipped entirely.
		v := f.stack[L-1]
		mv := f.metas[L-1]
		sel := ins.fSel
		taken := sel.Eq(v)
		if mv.taint != 0 {
			f.pc = uint64(p.instrs[i+2].pc) // the EQ
			f.recordSink(SinkCompare, mv.taint)
			f.recordSink(SinkEq, mv.taint)
		}
		f.pc = uint64(p.instrs[i+4].pc) // the JUMPI
		f.recordBranch(taken, mv.taint, true, CmpInfo{Op: EQ, A: sel, B: v}, mv.callID)
		if taken {
			return int(ins.fTarget), true
		}
		return i + 5, true

	case fuseCmpJumpi:
		a, ma := f.stack[L-1], f.metas[L-1]
		b, mb := f.stack[L-2], f.metas[L-2]
		f.stack = f.stack[:L-2]
		f.metas = f.metas[:L-2]
		var truth bool
		switch ins.op {
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
			f.pc = uint64(ins.pc)
			f.recordSink(SinkCompare, combined)
			if ins.op == EQ {
				f.recordSink(SinkEq, combined)
			}
		}
		callID := ma.callID
		if callID == 0 {
			callID = mb.callID
		}
		f.pc = uint64(p.instrs[i+2].pc)
		f.recordBranch(truth, combined, true, CmpInfo{Op: ins.op, A: a, B: b}, callID)
		if truth {
			return int(ins.fTarget), true
		}
		return i + 3, true

	case fuseIsZeroJumpi:
		a, ma := f.stack[L-1], f.metas[L-1]
		f.stack = f.stack[:L-1]
		f.metas = f.metas[:L-1]
		taken := a.IsZero()
		cmp := CmpInfo{Op: EQ, A: a, B: u256.Zero}
		if ma.cmp != nil {
			cmp = *ma.cmp
		}
		f.pc = uint64(p.instrs[i+2].pc)
		f.recordBranch(taken, ma.taint, true, cmp, ma.callID)
		if taken {
			return int(ins.fTarget), true
		}
		return i + 3, true

	case fusePushJump:
		return int(ins.fTarget), true

	case fusePushJumpi:
		cond, mc := f.stack[L-1], f.metas[L-1]
		f.stack = f.stack[:L-1]
		f.metas = f.metas[:L-1]
		taken := !cond.IsZero()
		var cmp CmpInfo
		hasCmp := mc.cmp != nil
		if hasCmp {
			cmp = *mc.cmp
		}
		f.pc = uint64(p.instrs[i+1].pc)
		f.recordBranch(taken, mc.taint, hasCmp, cmp, mc.callID)
		if taken {
			return int(ins.fTarget), true
		}
		return i + 2, true

	default: // fuseDupSload
		slot := f.stack[L-int(ins.n)]
		val, tag := e.State.GetStorage(f.addr, slot)
		f.stack = append(f.stack, val)
		f.metas = append(f.metas, meta{taint: Taint(tag)})
		return i + 2, true
	}
}
