package evm

import (
	"errors"
	"reflect"
	"testing"

	"mufuzz/internal/keccak"
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// testEnv bundles a fresh state + EVM with a deployed code blob. The
// contract is the inspected one, so its oracle-source sinks are recorded,
// and its branches are indexed by stubIndexer, so its JUMPIs are recorded
// and stubTaken reads their direction.
func testEnv(t testing.TB, code []byte) (*EVM, state.Address, state.Address) {
	t.Helper()
	st := state.New()
	sender := state.AddressFromUint(0xaaaa)
	contract := state.AddressFromUint(0xc0de)
	st.SetBalance(sender, u256.New(1_000_000))
	st.CreateContract(contract, code, sender)
	st.Commit()
	e := New(st, BlockCtx{Timestamp: 1_700_000_000, Number: 123, GasLimit: 30_000_000})
	e.Trace = NewTrace()
	e.BranchIndex = stubIndexer{}
	e.InspectedAddr = contract
	return e, sender, contract
}

// hasSink reports whether the trace holds a sink of kind whose taint
// includes t.
func hasSink(tr *Trace, kind SinkKind, t Taint) bool {
	for _, s := range tr.Sinks {
		if s.Kind == kind && s.Taint.Has(t) {
			return true
		}
	}
	return false
}

// run executes a tx against the contract returning output.
func run(t testing.TB, e *EVM, from, to state.Address, value u256.Int, input []byte) ([]byte, error) {
	t.Helper()
	return e.Transact(from, to, value, input, 10_000_000)
}

// returnTop returns code that executes prog then returns the top of stack as
// a 32-byte value.
func returnTop(prog func(a *Assembler)) []byte {
	a := NewAssembler()
	prog(a)
	// MSTORE result at 0, return 32 bytes.
	a.PushUint(0).Op(MSTORE).PushUint(32).PushUint(0).Op(RETURN)
	return a.MustBuild()
}

func wantWord(t *testing.T, out []byte, want u256.Int) {
	t.Helper()
	if len(out) != 32 {
		t.Fatalf("output length %d, want 32", len(out))
	}
	got := u256.FromBytes(out)
	if !got.Eq(want) {
		t.Errorf("result = %s, want %s", got, want)
	}
}

func TestArithmeticOpcodes(t *testing.T) {
	cases := []struct {
		name string
		prog func(a *Assembler)
		want u256.Int
	}{
		{"add", func(a *Assembler) { a.PushUint(2).PushUint(3).Op(ADD) }, u256.New(5)},
		{"sub", func(a *Assembler) { a.PushUint(3).PushUint(10).Op(SUB) }, u256.New(7)}, // SUB pops a then b, computes a-b with a=top
		{"mul", func(a *Assembler) { a.PushUint(6).PushUint(7).Op(MUL) }, u256.New(42)},
		{"div", func(a *Assembler) { a.PushUint(3).PushUint(12).Op(DIV) }, u256.New(4)},
		{"div0", func(a *Assembler) { a.PushUint(0).PushUint(12).Op(DIV) }, u256.Zero},
		{"mod", func(a *Assembler) { a.PushUint(5).PushUint(12).Op(MOD) }, u256.New(2)},
		{"exp", func(a *Assembler) { a.PushUint(8).PushUint(2).Op(EXP) }, u256.New(256)},
		{"lt_true", func(a *Assembler) { a.PushUint(5).PushUint(3).Op(LT) }, u256.One},
		{"gt_false", func(a *Assembler) { a.PushUint(5).PushUint(3).Op(GT) }, u256.Zero},
		{"eq", func(a *Assembler) { a.PushUint(9).PushUint(9).Op(EQ) }, u256.One},
		{"iszero", func(a *Assembler) { a.PushUint(0).Op(ISZERO) }, u256.One},
		{"and", func(a *Assembler) { a.PushUint(0b1100).PushUint(0b1010).Op(AND) }, u256.New(0b1000)},
		{"or", func(a *Assembler) { a.PushUint(0b1100).PushUint(0b1010).Op(OR) }, u256.New(0b1110)},
		{"xor", func(a *Assembler) { a.PushUint(0b1100).PushUint(0b1010).Op(XOR) }, u256.New(0b0110)},
		{"shl", func(a *Assembler) { a.PushUint(1).PushUint(4).Op(SHL) }, u256.New(16)},
		{"shr", func(a *Assembler) { a.PushUint(16).PushUint(4).Op(SHR) }, u256.One},
		{"addmod", func(a *Assembler) { a.PushUint(7).PushUint(5).PushUint(9).Op(ADDMOD) }, u256.New(0)},
		{"mulmod", func(a *Assembler) { a.PushUint(7).PushUint(5).PushUint(3).Op(MULMOD) }, u256.One},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, sender, contract := testEnv(t, returnTop(tc.prog))
			out, err := run(t, e, sender, contract, u256.Zero, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantWord(t, out, tc.want)
		})
	}
}

// EVM stack order note: "PUSH a; PUSH b; SUB" computes b - a because SUB pops
// the top (b) first. The sub test above relies on this; verify explicitly.
func TestSubOperandOrder(t *testing.T) {
	e, sender, contract := testEnv(t, returnTop(func(a *Assembler) {
		a.PushUint(1).PushUint(100).Op(SUB) // 100 - 1
	}))
	out, err := run(t, e, sender, contract, u256.Zero, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantWord(t, out, u256.New(99))
}

func TestCalldataAndEnvironment(t *testing.T) {
	e, sender, contract := testEnv(t, returnTop(func(a *Assembler) {
		a.PushUint(0).Op(CALLDATALOAD)
	}))
	arg := u256.New(0xabcdef).Bytes32()
	out, err := run(t, e, sender, contract, u256.Zero, arg[:])
	if err != nil {
		t.Fatal(err)
	}
	wantWord(t, out, u256.New(0xabcdef))

	e, sender, contract = testEnv(t, returnTop(func(a *Assembler) { a.Op(CALLER) }))
	out, err = run(t, e, sender, contract, u256.Zero, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantWord(t, out, sender.Word())

	e, sender, contract = testEnv(t, returnTop(func(a *Assembler) { a.Op(CALLVALUE) }))
	out, err = run(t, e, sender, contract, u256.New(55), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantWord(t, out, u256.New(55))

	e, sender, contract = testEnv(t, returnTop(func(a *Assembler) { a.Op(TIMESTAMP) }))
	out, err = run(t, e, sender, contract, u256.Zero, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantWord(t, out, u256.New(1_700_000_000))
}

func TestStoragePersistsAcrossTransactions(t *testing.T) {
	// tx: SSTORE(slot0, calldata word); read back with second program.
	store := NewAssembler()
	store.PushUint(0).Op(CALLDATALOAD).PushUint(0).Op(SSTORE).Op(STOP)
	e, sender, contract := testEnv(t, store.MustBuild())
	v := u256.New(777).Bytes32()
	if _, err := run(t, e, sender, contract, u256.Zero, v[:]); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.State.GetStorage(contract, u256.Zero); !got.Eq(u256.New(777)) {
		t.Fatalf("storage = %s, want 777", got)
	}
}

func TestRevertRollsBackState(t *testing.T) {
	a := NewAssembler()
	a.PushUint(42).PushUint(0).Op(SSTORE) // write slot0 = 42
	a.PushUint(0).PushUint(0).Op(REVERT)
	e, sender, contract := testEnv(t, a.MustBuild())
	_, err := run(t, e, sender, contract, u256.Zero, nil)
	if !errors.Is(err, ErrRevert) {
		t.Fatalf("err = %v, want ErrRevert", err)
	}
	if got, _ := e.State.GetStorage(contract, u256.Zero); !got.IsZero() {
		t.Error("storage write survived revert")
	}
}

func TestValueTransferOnTransact(t *testing.T) {
	e, sender, contract := testEnv(t, []byte{byte(STOP)})
	if _, err := run(t, e, sender, contract, u256.New(100), nil); err != nil {
		t.Fatal(err)
	}
	if !e.State.Balance(contract).Eq(u256.New(100)) {
		t.Errorf("contract balance = %s", e.State.Balance(contract))
	}
	if !e.State.Balance(sender).Eq(u256.New(999_900)) {
		t.Errorf("sender balance = %s", e.State.Balance(sender))
	}
	// Insufficient balance fails and moves nothing.
	if _, err := run(t, e, sender, contract, u256.New(10_000_000), nil); !errors.Is(err, ErrBalance) {
		t.Fatalf("err = %v, want ErrBalance", err)
	}
	if !e.State.Balance(contract).Eq(u256.New(100)) {
		t.Error("failed transfer moved funds")
	}
}

func TestJumpAndBranchEvents(t *testing.T) {
	// if calldata[0] != 0 goto L else fall through; both sides SSTORE marker.
	a := NewAssembler()
	a.PushUint(0).Op(CALLDATALOAD)
	a.JumpITo("taken")
	a.PushUint(1).PushUint(0).Op(SSTORE).Op(STOP)
	a.Label("taken")
	a.PushUint(2).PushUint(0).Op(SSTORE).Op(STOP)
	code := a.MustBuild()

	e, sender, contract := testEnv(t, code)
	one := u256.One.Bytes32()
	if _, err := run(t, e, sender, contract, u256.Zero, one[:]); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.State.GetStorage(contract, u256.Zero); !got.Eq(u256.New(2)) {
		t.Fatalf("taken branch storage = %s", got)
	}
	if len(e.Trace.Branches) != 1 {
		t.Fatalf("branches = %d, want 1", len(e.Trace.Branches))
	}
	if !stubTaken(e.Trace.Branches[0]) {
		t.Error("branch should be taken")
	}
	// Calldata is no oracle source: its sinks are recorded only when the
	// test widens the source set.
	if n := len(e.Trace.Sinks); n != 0 {
		t.Errorf("%d sinks recorded for an input-tainted condition, want 0", n)
	}
	e.Trace = NewTrace()
	e.widenSinks = TaintInput
	if _, err := run(t, e, sender, contract, u256.Zero, one[:]); err != nil {
		t.Fatal(err)
	}
	if !hasSink(e.Trace, SinkJumpCond, TaintInput) {
		t.Error("condition should carry input taint")
	}

	// Untaken direction.
	e.Trace = NewTrace()
	zero := u256.Zero.Bytes32()
	if _, err := run(t, e, sender, contract, u256.Zero, zero[:]); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.State.GetStorage(contract, u256.Zero); !got.Eq(u256.One) {
		t.Fatalf("fallthrough storage = %s", got)
	}
	if stubTaken(e.Trace.Branches[0]) {
		t.Error("branch should not be taken")
	}
}

func TestBranchCmpProvenanceAndDistance(t *testing.T) {
	// condition: calldata word < 100 → JUMPI. Cmp info must surface operands.
	a := NewAssembler()
	a.PushUint(100).PushUint(0).Op(CALLDATALOAD).Op(LT) // arg < 100
	a.JumpITo("yes")
	a.Op(STOP)
	a.Label("yes")
	a.Op(STOP)
	e, sender, contract := testEnv(t, a.MustBuild())

	arg := u256.New(150).Bytes32() // 150 < 100 is false → not taken
	if _, err := run(t, e, sender, contract, u256.Zero, arg[:]); err != nil {
		t.Fatal(err)
	}
	br := e.Trace.Branches[0]
	if stubTaken(br) {
		t.Fatal("150 < 100 should be false")
	}
	if !br.HasCmp || br.Cmp.Op != LT {
		t.Fatalf("cmp provenance missing: %+v", br)
	}
	// Distance to flip (make 150 < 100 true): 150-100+1 = 51.
	if d := br.Cmp.FlipDistance(); !d.Eq(u256.New(51)) {
		t.Errorf("flip distance = %s, want 51", d)
	}
}

func TestISZEROPreservesCmpProvenance(t *testing.T) {
	// solidity-style: LT; ISZERO; JUMPI — distance must still be computable.
	a := NewAssembler()
	a.PushUint(100).PushUint(0).Op(CALLDATALOAD).Op(LT).Op(ISZERO)
	a.JumpITo("no")
	a.Op(STOP)
	a.Label("no")
	a.Op(STOP)
	e, sender, contract := testEnv(t, a.MustBuild())
	arg := u256.New(7).Bytes32()
	if _, err := run(t, e, sender, contract, u256.Zero, arg[:]); err != nil {
		t.Fatal(err)
	}
	br := e.Trace.Branches[0]
	if !br.HasCmp {
		t.Fatal("ISZERO dropped cmp provenance")
	}
	if br.Cmp.Op != LT {
		t.Errorf("cmp op = %s, want LT", br.Cmp.Op)
	}
}

func TestInvalidJumpFails(t *testing.T) {
	a := NewAssembler()
	a.PushUint(3).Op(JUMP) // 3 is not a JUMPDEST
	e, sender, contract := testEnv(t, a.MustBuild())
	if _, err := run(t, e, sender, contract, u256.Zero, nil); !errors.Is(err, ErrInvalidJump) {
		t.Fatalf("err = %v, want ErrInvalidJump", err)
	}
}

func TestJumpdestInsidePushImmediateRejected(t *testing.T) {
	// PUSH2 0x5b5b embeds JUMPDEST bytes that must not be valid targets.
	code := []byte{byte(PUSH1) + 1, 0x5b, 0x5b, byte(PUSH1), 1, byte(JUMP)}
	e, sender, contract := testEnv(t, code)
	if _, err := run(t, e, sender, contract, u256.Zero, nil); !errors.Is(err, ErrInvalidJump) {
		t.Fatalf("err = %v, want ErrInvalidJump", err)
	}
}

func TestStackUnderflowAndOverflow(t *testing.T) {
	e, sender, contract := testEnv(t, []byte{byte(ADD)})
	if _, err := run(t, e, sender, contract, u256.Zero, nil); !errors.Is(err, ErrStackUnderflow) {
		t.Fatalf("err = %v, want ErrStackUnderflow", err)
	}

	// Push loop exceeding 1024 entries.
	a := NewAssembler()
	a.Label("loop").PushUint(1).JumpTo("loop")
	e, sender, contract = testEnv(t, a.MustBuild())
	if _, err := run(t, e, sender, contract, u256.Zero, nil); !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("err = %v, want ErrStackOverflow", err)
	}
}

func TestInfiniteLoopHitsGasOrStepLimit(t *testing.T) {
	a := NewAssembler()
	a.Label("loop").JumpTo("loop")
	e, sender, contract := testEnv(t, a.MustBuild())
	_, err := run(t, e, sender, contract, u256.Zero, nil)
	if !errors.Is(err, ErrOutOfGas) && !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want gas/step exhaustion", err)
	}
}

func TestOverflowEventRecorded(t *testing.T) {
	a := NewAssembler()
	a.Push(u256.Max).PushUint(1).Op(ADD) // 1 + MAX wraps
	a.PushUint(0).Op(SSTORE)             // store the wrapped value
	a.Op(STOP)
	e, sender, contract := testEnv(t, a.MustBuild())
	if _, err := run(t, e, sender, contract, u256.Zero, nil); err != nil {
		t.Fatal(err)
	}
	if len(e.Trace.Overflows) != 1 {
		t.Fatalf("overflows = %d, want 1", len(e.Trace.Overflows))
	}
	// The overflowed value reached SSTORE: a store sink with overflow taint.
	found := false
	for _, s := range e.Trace.Sinks {
		if s.Kind == SinkStore && s.Taint.Has(TaintOverflow) {
			found = true
		}
	}
	if !found {
		t.Error("missing SinkStore with TaintOverflow")
	}
}

func TestTimestampTaintReachesJumpi(t *testing.T) {
	a := NewAssembler()
	a.PushUint(5).Op(TIMESTAMP).Op(GT) // timestamp > 5
	a.JumpITo("x")
	a.Op(STOP)
	a.Label("x").Op(STOP)
	e, sender, contract := testEnv(t, a.MustBuild())
	if _, err := run(t, e, sender, contract, u256.Zero, nil); err != nil {
		t.Fatal(err)
	}
	if len(e.Trace.Branches) != 1 {
		t.Fatalf("branches = %d, want 1", len(e.Trace.Branches))
	}
	if !hasSink(e.Trace, SinkJumpCond, TaintTimestamp) {
		t.Error("JUMPI condition should carry timestamp taint")
	}
}

func TestStorageTaintPersistsAcrossTx(t *testing.T) {
	// tx1 stores TIMESTAMP to slot 0; tx2 compares slot 0 — BD taint must flow.
	a := NewAssembler()
	a.PushUint(0).Op(CALLDATALOAD)
	a.JumpITo("read")
	a.Op(TIMESTAMP).PushUint(0).Op(SSTORE).Op(STOP)
	a.Label("read")
	a.PushUint(5).PushUint(0).Op(SLOAD).Op(GT)
	a.JumpITo("z")
	a.Op(STOP)
	a.Label("z").Op(STOP)
	e, sender, contract := testEnv(t, a.MustBuild())

	zero := u256.Zero.Bytes32()
	if _, err := run(t, e, sender, contract, u256.Zero, zero[:]); err != nil {
		t.Fatal(err)
	}
	e.Trace = NewTrace()
	one := u256.One.Bytes32()
	if _, err := run(t, e, sender, contract, u256.Zero, one[:]); err != nil {
		t.Fatal(err)
	}
	if !hasSink(e.Trace, SinkJumpCond, TaintTimestamp) {
		t.Error("timestamp taint should persist through storage to tx2 branch")
	}
}

// TestStorageTaintSurvivesRevert: a transaction that stores TIMESTAMP and
// then reverts restores the slot's value but leaves the taint on it, as the
// state keeps a reverted slot's tag, so the next transaction's JUMPI on the
// slot records a timestamp sink, on both engines. The read is DUP1 SLOAD,
// which the IR runs fused.
func TestStorageTaintSurvivesRevert(t *testing.T) {
	a := NewAssembler()
	a.PushUint(0).Op(CALLDATALOAD)
	a.JumpITo("read")
	a.Op(TIMESTAMP).PushUint(0).Op(SSTORE)
	a.PushUint(0).PushUint(0).Op(REVERT)
	a.Label("read")
	a.PushUint(0).Op(DUP1, SLOAD, GT)
	a.JumpITo("z")
	a.Op(STOP)
	a.Label("z").Op(STOP)
	code := a.MustBuild()
	for _, noIR := range []bool{false, true} {
		e, sender, contract := testEnv(t, code)
		e.DisableIR = noIR
		zero := u256.Zero.Bytes32()
		if _, err := run(t, e, sender, contract, u256.Zero, zero[:]); !errors.Is(err, ErrRevert) {
			t.Fatalf("noIR=%v: store tx: %v, want a revert", noIR, err)
		}
		if v, tag := e.State.GetStorage(contract, u256.Zero); !v.IsZero() || Taint(tag) != TaintTimestamp {
			t.Fatalf("noIR=%v: after the revert slot 0 holds %s with taint %#x, want 0 with the timestamp taint", noIR, v, tag)
		}
		e.Trace = NewTrace()
		one := u256.One.Bytes32()
		if _, err := run(t, e, sender, contract, u256.Zero, one[:]); err != nil {
			t.Fatal(err)
		}
		if !hasSink(e.Trace, SinkJumpCond, TaintTimestamp) {
			t.Errorf("noIR=%v: a reverted store's timestamp taint should reach the next tx's branch", noIR)
		}
	}
}

func TestCallTransfersValueAndReportsStatus(t *testing.T) {
	// Contract sends 10 wei to an EOA via CALL and stores the status word.
	dest := state.AddressFromUint(0xbeef)
	a := NewAssembler()
	a.PushUint(0).PushUint(0).PushUint(0).PushUint(0) // outSz outOff inSz inOff
	a.PushUint(10)                                    // value
	a.Push(dest.Word())                               // to
	a.PushUint(50_000)                                // gas
	a.Op(CALL)
	a.PushUint(0).Op(SSTORE).Op(STOP)
	e, sender, contract := testEnv(t, a.MustBuild())
	e.State.SetBalance(contract, u256.New(100))
	e.State.Commit()

	if _, err := run(t, e, sender, contract, u256.Zero, nil); err != nil {
		t.Fatal(err)
	}
	if !e.State.Balance(dest).Eq(u256.New(10)) {
		t.Errorf("dest balance = %s", e.State.Balance(dest))
	}
	if got, _ := e.State.GetStorage(contract, u256.Zero); !got.Eq(u256.One) {
		t.Error("successful call should store status 1")
	}
	if len(e.Trace.Calls) != 1 || !e.Trace.Calls[0].Success {
		t.Fatalf("call events: %+v", e.Trace.Calls)
	}
	if !e.Trace.Calls[0].Value.Eq(u256.New(10)) {
		t.Errorf("call event value = %s, want 10", e.Trace.Calls[0].Value)
	}
}

func TestFailedCallStatusZeroAndUncheckedDetection(t *testing.T) {
	// Value transfer exceeding balance → CALL fails, status 0, unchecked.
	dest := state.AddressFromUint(0xbeef)
	a := NewAssembler()
	a.PushUint(0).PushUint(0).PushUint(0).PushUint(0)
	a.PushUint(1_000_000) // more than the contract has
	a.Push(dest.Word())
	a.PushUint(50_000)
	a.Op(CALL)
	a.Op(POP) // discard status without checking → UE pattern
	a.Op(STOP)
	e, sender, contract := testEnv(t, a.MustBuild())
	if _, err := run(t, e, sender, contract, u256.Zero, nil); err != nil {
		t.Fatal(err)
	}
	if len(e.Trace.Calls) != 1 {
		t.Fatalf("calls = %d", len(e.Trace.Calls))
	}
	ev := e.Trace.Calls[0]
	if ev.Success {
		t.Error("call should have failed")
	}
	if ev.Checked {
		t.Error("status was never checked")
	}
}

func TestCheckedCallMarksEvent(t *testing.T) {
	dest := state.AddressFromUint(0xbeef)
	a := NewAssembler()
	a.PushUint(0).PushUint(0).PushUint(0).PushUint(0)
	a.PushUint(1_000_000)
	a.Push(dest.Word())
	a.PushUint(50_000)
	a.Op(CALL)
	a.JumpITo("ok") // checks the status
	a.Op(STOP)
	a.Label("ok").Op(STOP)
	e, sender, contract := testEnv(t, a.MustBuild())
	if _, err := run(t, e, sender, contract, u256.Zero, nil); err != nil {
		t.Fatal(err)
	}
	if !e.Trace.Calls[0].Checked {
		t.Error("JUMPI consumed the status; event must be Checked")
	}
}

func TestReentrantAttackerCallsBack(t *testing.T) {
	// Victim: sends CALLVALUE/2 to CALLER with full gas (call.value pattern),
	// tracking a counter in slot 0 so reentry is observable.
	a := NewAssembler()
	a.PushUint(0).Op(SLOAD).PushUint(1).Op(ADD).PushUint(0).Op(SSTORE) // slot0++
	a.PushUint(0).PushUint(0).PushUint(0).PushUint(0)
	a.PushUint(10) // value
	a.Op(CALLER)   // to = msg.sender
	a.PushUint(9_000_000)
	a.Op(CALL).Op(POP).Op(STOP)
	e, _, contract := testEnv(t, a.MustBuild())
	e.State.SetBalance(contract, u256.New(1000))

	attacker := &ReentrantAttacker{Addr: state.AddressFromUint(0x666), MaxReentries: 1}
	e.RegisterNative(attacker.Addr, attacker)
	e.State.SetBalance(attacker.Addr, u256.New(1000))
	e.State.Commit()

	if _, err := run(t, e, attacker.Addr, contract, u256.Zero, nil); err != nil {
		t.Fatal(err)
	}
	if attacker.Reentered == 0 {
		t.Fatal("attacker never got control")
	}
	if len(e.Trace.Reentries) == 0 {
		t.Fatal("reentry event missing")
	}
	if !e.Trace.Reentries[0].EnabledByValueCall {
		t.Error("reentry should be marked as enabled by a value call")
	}
	// Counter incremented twice: original + reentrant call.
	if got, _ := e.State.GetStorage(contract, u256.Zero); !got.Eq(u256.New(2)) {
		t.Errorf("counter = %s, want 2 (reentered)", got)
	}
}

func TestTransferStipendBlocksReentry(t *testing.T) {
	// Same victim but forwards 0 gas (transfer pattern → only the stipend).
	a := NewAssembler()
	a.PushUint(0).PushUint(0).PushUint(0).PushUint(0)
	a.PushUint(10)
	a.Op(CALLER)
	a.PushUint(0) // gas 0 + stipend 2300
	a.Op(CALL).Op(POP).Op(STOP)
	e, _, contract := testEnv(t, a.MustBuild())
	e.State.SetBalance(contract, u256.New(1000))
	attacker := &ReentrantAttacker{Addr: state.AddressFromUint(0x666)}
	e.RegisterNative(attacker.Addr, attacker)
	e.State.Commit()

	if _, err := run(t, e, attacker.Addr, contract, u256.Zero, nil); err != nil {
		t.Fatal(err)
	}
	if attacker.Reentered != 0 {
		t.Error("stipend-only call must not allow reentry")
	}
}

func TestSelfDestructEvent(t *testing.T) {
	a := NewAssembler()
	a.Op(CALLER).Op(SELFDESTRUCT)
	e, sender, contract := testEnv(t, a.MustBuild())
	e.State.SetBalance(contract, u256.New(500))
	e.State.Commit()
	other := state.AddressFromUint(0x7777)
	e.State.SetBalance(other, u256.New(1))
	e.State.Commit()

	// Called by a non-creator.
	if _, err := run(t, e, other, contract, u256.Zero, nil); err != nil {
		t.Fatal(err)
	}
	if len(e.Trace.SelfDestructs) != 1 {
		t.Fatalf("selfdestructs = %d", len(e.Trace.SelfDestructs))
	}
	ev := e.Trace.SelfDestructs[0]
	if ev.CallerIsCreator {
		t.Error("caller is not the creator")
	}
	if !e.State.Destroyed(contract) {
		t.Error("contract should be destroyed")
	}
	if !e.State.Balance(other).Eq(u256.New(501)) {
		t.Errorf("beneficiary balance = %s", e.State.Balance(other))
	}
	_ = sender
}

func TestDelegatecallRunsInCallerContext(t *testing.T) {
	// Library code: SSTORE(0, 99).
	lib := NewAssembler()
	lib.PushUint(99).PushUint(0).Op(SSTORE).Op(STOP)
	libAddr := state.AddressFromUint(0x11b)

	// Caller: DELEGATECALL lib.
	a := NewAssembler()
	a.PushUint(0).PushUint(0).PushUint(0).PushUint(0)
	a.Push(libAddr.Word())
	a.PushUint(100_000)
	a.Op(DELEGATECALL).Op(POP).Op(STOP)
	e, sender, contract := testEnv(t, a.MustBuild())
	e.State.CreateContract(libAddr, lib.MustBuild(), sender)
	e.State.Commit()

	if _, err := run(t, e, sender, contract, u256.Zero, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.State.GetStorage(contract, u256.Zero); !got.Eq(u256.New(99)) {
		t.Error("delegatecall must write the caller's storage")
	}
	if got, _ := e.State.GetStorage(libAddr, u256.Zero); !got.IsZero() {
		t.Error("library storage must be untouched")
	}
	if len(e.Trace.Delegates) != 1 {
		t.Fatalf("delegate events = %d", len(e.Trace.Delegates))
	}
}

func TestKeccakOpcode(t *testing.T) {
	// keccak256 of 32 zero bytes.
	e, sender, contract := testEnv(t, returnTop(func(a *Assembler) {
		a.PushUint(32).PushUint(0).Op(KECCAK256)
	}))
	out, err := run(t, e, sender, contract, u256.Zero, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := u256.FromBytes(keccakZero32())
	wantWord(t, out, want)
}

func keccakZero32() []byte {
	// computed via the keccak package to avoid a hex constant here
	var buf [32]byte
	sum := keccak.Sum256(buf[:])
	return sum[:]
}

func TestBalanceOpcodeTaint(t *testing.T) {
	a := NewAssembler()
	a.PushUint(88).Op(ADDRESS).Op(BALANCE).Op(EQ) // balance(this) == 88 → SE pattern
	a.JumpITo("x")
	a.Op(STOP)
	a.Label("x").Op(STOP)
	e, sender, contract := testEnv(t, a.MustBuild())
	if _, err := run(t, e, sender, contract, u256.Zero, nil); err != nil {
		t.Fatal(err)
	}
	var eqSink bool
	for _, s := range e.Trace.Sinks {
		if s.Kind == SinkEq && s.Taint.Has(TaintBalance) {
			eqSink = true
		}
	}
	if !eqSink {
		t.Error("BALANCE == const must produce an EQ sink with balance taint")
	}
}

func TestOriginTaint(t *testing.T) {
	a := NewAssembler()
	a.Op(CALLER).Op(ORIGIN).Op(EQ)
	a.JumpITo("x")
	a.Op(STOP)
	a.Label("x").Op(STOP)
	e, sender, contract := testEnv(t, a.MustBuild())
	if _, err := run(t, e, sender, contract, u256.Zero, nil); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range e.Trace.Sinks {
		if s.Kind == SinkCompare && s.Taint.Has(TaintOrigin) {
			found = true
		}
	}
	if !found {
		t.Error("ORIGIN comparison sink missing")
	}
}

// TestCollectPCs observes the top-level executed path through the step
// hook, on both engines.
func TestCollectPCs(t *testing.T) {
	a := NewAssembler()
	a.PushUint(1).Op(POP).Op(STOP)
	for _, disableIR := range []bool{false, true} {
		e, sender, contract := testEnv(t, a.MustBuild())
		e.DisableIR = disableIR
		var pcs []uint64
		e.onStep = func(depth int, pc uint64) {
			if depth == 1 {
				pcs = append(pcs, pc)
			}
		}
		if _, err := run(t, e, sender, contract, u256.Zero, nil); err != nil {
			t.Fatal(err)
		}
		if want := []uint64{0, 2, 3}; !reflect.DeepEqual(pcs, want) {
			t.Errorf("DisableIR=%v: pcs = %v, want %v", disableIR, pcs, want)
		}
	}
}

func TestAssemblerErrors(t *testing.T) {
	a := NewAssembler()
	a.JumpTo("nowhere")
	if _, err := a.Build(); err == nil {
		t.Error("undefined label should fail")
	}
	b := NewAssembler()
	b.Label("x").Label("x")
	if _, err := b.Build(); err == nil {
		t.Error("duplicate label should fail")
	}
}

func BenchmarkTransactSimpleStore(b *testing.B) {
	a := NewAssembler()
	a.PushUint(0).Op(CALLDATALOAD).PushUint(0).Op(SSTORE).Op(STOP)
	e, sender, contract := testEnv(b, a.MustBuild())
	arg := u256.New(9).Bytes32()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Trace = NewTrace()
		if _, err := e.Transact(sender, contract, u256.Zero, arg[:], 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransactLoop(b *testing.B) {
	// Loop 100 times decrementing a counter.
	a := NewAssembler()
	a.PushUint(100)
	a.Label("loop")
	a.PushUint(1).Op(SWAP1).Op(SUB) // counter-1
	a.Op(DUP1)
	a.JumpITo("loop")
	a.Op(STOP)
	e, sender, contract := testEnv(b, a.MustBuild())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Trace = NewTrace()
		if _, err := e.Transact(sender, contract, u256.Zero, nil, 10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
