package evm

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// TestSignedOpcodes pins the signed-arithmetic opcode family.
func TestSignedOpcodes(t *testing.T) {
	minusTen := u256.New(10).Neg()
	cases := []struct {
		name string
		prog func(a *Assembler)
		want u256.Int
	}{
		{"sdiv", func(a *Assembler) { a.PushUint(2).Push(minusTen).Op(SDIV) }, u256.New(5).Neg()},
		{"smod", func(a *Assembler) { a.PushUint(3).Push(minusTen).Op(SMOD) }, u256.One.Neg()},
		{"slt_true", func(a *Assembler) { a.PushUint(1).Push(minusTen).Op(SLT) }, u256.One},
		{"sgt_false", func(a *Assembler) { a.PushUint(1).Push(minusTen).Op(SGT) }, u256.Zero},
		{"signextend", func(a *Assembler) { a.PushUint(0xff).PushUint(0).Op(SIGNEXTEND) }, u256.Max},
		{"sar", func(a *Assembler) { a.Push(u256.New(8).Neg()).PushUint(2).Op(SAR) }, u256.New(2).Neg()},
		{"byte", func(a *Assembler) { a.PushUint(0xab).PushUint(31).Op(BYTE) }, u256.New(0xab)},
		{"not", func(a *Assembler) { a.PushUint(0).Op(NOT) }, u256.Max},
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

func TestMemoryLimitEnforced(t *testing.T) {
	// MSTORE far beyond the 1 MiB cap must fail cleanly, not OOM.
	a := NewAssembler()
	a.PushUint(1).Push(u256.New(1 << 30)).Op(MSTORE).Op(STOP)
	e, sender, contract := testEnv(t, a.MustBuild())
	if _, err := run(t, e, sender, contract, u256.Zero, nil); !errors.Is(err, ErrMemLimit) {
		t.Fatalf("err = %v, want ErrMemLimit", err)
	}
	// Absurd offsets (non-uint64) also fail.
	b := NewAssembler()
	b.PushUint(1).Push(u256.Max).Op(MSTORE).Op(STOP)
	e, sender, contract = testEnv(t, b.MustBuild())
	if _, err := run(t, e, sender, contract, u256.Zero, nil); !errors.Is(err, ErrMemLimit) {
		t.Fatalf("err = %v, want ErrMemLimit", err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	// A contract that calls itself with all gas recurses until the depth cap.
	a := NewAssembler()
	a.PushUint(0).PushUint(0).PushUint(0).PushUint(0)
	a.PushUint(0) // value 0
	a.Op(ADDRESS) // to = self
	a.Op(GAS)     // all gas
	a.Op(CALL).Op(POP).Op(STOP)
	e, sender, contract := testEnv(t, a.MustBuild())
	e.MaxDepth = 8
	if _, err := run(t, e, sender, contract, u256.Zero, nil); err != nil {
		t.Fatalf("outer call should survive inner depth errors: %v", err)
	}
	// innermost call failed with depth error: at least one unsuccessful call
	failed := false
	for _, c := range e.Trace.Calls {
		if !c.Success {
			failed = true
		}
	}
	if !failed {
		t.Error("expected an inner call to fail at the depth limit")
	}
}

func TestMSTORE8AndMLOAD(t *testing.T) {
	e, sender, contract := testEnv(t, returnTop(func(a *Assembler) {
		a.PushUint(0x42).PushUint(5).Op(MSTORE8) // mem[5] = 0x42
		a.PushUint(0).Op(MLOAD)
	}))
	out, err := run(t, e, sender, contract, u256.Zero, nil)
	if err != nil {
		t.Fatal(err)
	}
	// byte 5 of the first word holds 0x42
	if out[5] != 0x42 {
		t.Errorf("mem byte = %#x, want 0x42", out[5])
	}
}

func TestCalldataCopyAndSize(t *testing.T) {
	// copy calldata[0:8] into memory and return the first word
	a := NewAssembler()
	a.PushUint(8).PushUint(0).PushUint(0).Op(CALLDATACOPY)
	a.Op(CALLDATASIZE).PushUint(32).Op(MSTORE)
	a.PushUint(64).PushUint(0).Op(RETURN)
	e, sender, contract := testEnv(t, a.MustBuild())
	input := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	out, err := run(t, e, sender, contract, u256.Zero, input)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if out[i] != input[i] {
			t.Errorf("copied byte %d = %d, want %d", i, out[i], input[i])
		}
	}
	size := u256.FromBytes(out[32:64])
	if !size.Eq(u256.New(10)) {
		t.Errorf("calldatasize = %s, want 10", size)
	}
}

func TestReturndataPlumbing(t *testing.T) {
	// callee returns 0xbeef; caller forwards it via RETURNDATACOPY
	callee := NewAssembler()
	callee.PushUint(0xbeef).PushUint(0).Op(MSTORE).PushUint(32).PushUint(0).Op(RETURN)
	calleeAddr := state.AddressFromUint(0xca11)

	caller := NewAssembler()
	caller.PushUint(0).PushUint(0).PushUint(0).PushUint(0)
	caller.PushUint(0)
	caller.Push(calleeAddr.Word())
	caller.PushUint(100_000)
	caller.Op(CALL).Op(POP)
	caller.Op(RETURNDATASIZE).PushUint(32).Op(MSTORE)
	caller.PushUint(32).PushUint(0).PushUint(0).Op(RETURNDATACOPY)
	caller.PushUint(64).PushUint(0).Op(RETURN)

	e, sender, contract := testEnv(t, caller.MustBuild())
	e.State.CreateContract(calleeAddr, callee.MustBuild(), sender)
	e.State.Commit()
	out, err := run(t, e, sender, contract, u256.Zero, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := u256.FromBytes(out[:32]); !got.Eq(u256.New(0xbeef)) {
		t.Errorf("returndata = %s, want 0xbeef", got)
	}
	if got := u256.FromBytes(out[32:]); !got.Eq(u256.New(32)) {
		t.Errorf("returndatasize = %s, want 32", got)
	}
}

func TestFlipDistanceProperties(t *testing.T) {
	// FlipDistance is positive for any comparison outcome and exactly
	// |a-b| (or 1) for EQ.
	f := func(a, b uint64) bool {
		cmp := CmpInfo{Op: EQ, A: u256.New(a), B: u256.New(b)}
		d := cmp.FlipDistance()
		if a == b {
			return d.Eq(u256.One)
		}
		return d.Eq(u256.New(a).AbsDiff(u256.New(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b uint64) bool {
		lt := CmpInfo{Op: LT, A: u256.New(a), B: u256.New(b)}
		d := lt.FlipDistance()
		if a < b {
			return d.Eq(u256.New(b - a))
		}
		return d.Eq(u256.New(a - b + 1))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestArityCoversAllExecutedOpcodes(t *testing.T) {
	// every opcode the interpreter claims to support reports an arity
	ops := []OpCode{
		STOP, ADD, MUL, SUB, DIV, SDIV, MOD, SMOD, ADDMOD, MULMOD, EXP,
		SIGNEXTEND, LT, GT, SLT, SGT, EQ, ISZERO, AND, OR, XOR, NOT, BYTE,
		SHL, SHR, SAR, KECCAK256, ADDRESS, BALANCE, ORIGIN, CALLER,
		CALLVALUE, CALLDATALOAD, CALLDATASIZE, CALLDATACOPY, CODESIZE,
		CODECOPY, GASPRICE, RETURNDATASIZE, RETURNDATACOPY, BLOCKHASH,
		COINBASE, TIMESTAMP, NUMBER, DIFFICULTY, GASLIMIT, SELFBALANCE, POP,
		MLOAD, MSTORE, MSTORE8, SLOAD, SSTORE, JUMP, JUMPI, PC, MSIZE, GAS,
		JUMPDEST, PUSH1, PUSH32, DUP1, DUP16, SWAP1, SWAP16, LOG0, LOG4,
		CALL, RETURN, DELEGATECALL, STATICCALL, REVERT, INVALID, SELFDESTRUCT,
	}
	for _, op := range ops {
		if _, _, ok := op.Arity(); !ok {
			t.Errorf("opcode %s has no arity", op)
		}
	}
	if _, _, ok := OpCode(0x21).Arity(); ok {
		t.Error("undefined opcode should have no arity")
	}
}

func TestOpcodeStringCoverage(t *testing.T) {
	for _, tc := range []struct {
		op   OpCode
		want string
	}{
		{PUSH1, "PUSH1"}, {PUSH32, "PUSH32"}, {DUP1, "DUP1"}, {DUP16, "DUP16"},
		{SWAP1, "SWAP1"}, {SWAP16, "SWAP16"}, {LOG0, "LOG0"}, {LOG4, "LOG4"},
		{KECCAK256, "KECCAK256"}, {OpCode(0x21), "op(0x21)"},
	} {
		if got := tc.op.String(); got != tc.want {
			t.Errorf("%v.String() = %q, want %q", byte(tc.op), got, tc.want)
		}
	}
}

// stubIndexer is a test BranchIndexer mapping every pc to 10*pc (+1 when
// taken).
type stubIndexer struct{}

func (stubIndexer) EdgeID(pc uint64, taken bool) (int32, bool) {
	id := int32(pc) * 10
	if taken {
		id++
	}
	return id, true
}

// stubTaken reads the direction of an event recorded under stubIndexer.
func stubTaken(br BranchEvent) bool { return br.Edge%10 == 1 }

// jumpiPCs lists the pcs of code's JUMPIs on the decode grid.
func jumpiPCs(code []byte) []uint64 {
	var out []uint64
	for _, ins := range Decode(code) {
		if ins.Op == JUMPI {
			out = append(out, ins.PC)
		}
	}
	return out
}

// TestBranchEventEdgeInterning pins the interning contract: with an indexer
// installed for the executing address, JUMPI events carry the compact edge
// ID; without one, or for a foreign address, nothing is recorded.
func TestBranchEventEdgeInterning(t *testing.T) {
	// if (calldata word != 0) jump over a STOP to a JUMPDEST.
	a := NewAssembler()
	a.PushUint(0).Op(CALLDATALOAD)
	a.JumpITo("over")
	a.Op(STOP)
	a.Label("over")
	a.Op(STOP)
	code := a.MustBuild()
	pc := jumpiPCs(code)[0]

	e, sender, contract := testEnv(t, code)
	arg := make([]byte, 32)
	arg[31] = 1
	if _, err := run(t, e, sender, contract, u256.Zero, arg); err != nil {
		t.Fatal(err)
	}
	if len(e.Trace.Branches) != 1 {
		t.Fatalf("branches = %d, want 1", len(e.Trace.Branches))
	}
	if got, want := e.Trace.Branches[0].Edge, int32(pc)*10+1; got != want {
		t.Errorf("edge id = %d, want %d (taken edge of pc %d)", got, want, pc)
	}

	// A foreign InspectedAddr, or no indexer: nothing is recorded.
	for _, foreign := range []bool{true, false} {
		e2, sender2, contract2 := testEnv(t, code)
		if foreign {
			e2.InspectedAddr = state.AddressFromUint(0xdead)
		} else {
			e2.BranchIndex = nil
		}
		if _, err := run(t, e2, sender2, contract2, u256.Zero, arg); err != nil {
			t.Fatal(err)
		}
		if n := len(e2.Trace.Branches); n != 0 {
			t.Errorf("foreign=%v: %d branch events recorded, want 0", foreign, n)
		}
	}
}

// TestBranchEventsOnlyForOwnCode pins which frames record branches: the
// inspected contract's own code in its own storage context. Library code it
// delegatecalls runs in its storage context but is not its code, and the
// library's own frames run at another address; neither records, while the
// contract's own JUMPIs on both sides of the calls still do. The checked-call
// mark is recorded for every frame, and the condition sink for the frames
// in the contract's storage context: the delegatecalled library frame, not
// the library frame the plain CALL runs at the library's own address.
func TestBranchEventsOnlyForOwnCode(t *testing.T) {
	// Library: if (block.timestamp == 0) skip; STOP. Its JUMPI condition
	// carries an oracle source, so a library frame in the contract's
	// storage context leaves a SinkJumpCond.
	lib := NewAssembler()
	lib.Op(TIMESTAMP).Op(ISZERO)
	lib.JumpITo("end")
	lib.Label("end").Op(STOP)
	libAddr := state.AddressFromUint(0x11b)
	libCode := lib.MustBuild()

	// Contract: JUMPI, DELEGATECALL lib, CALL lib, JUMPI on the call status.
	a := NewAssembler()
	a.PushUint(1)
	a.JumpITo("go")
	a.Label("go")
	a.PushUint(0).PushUint(0).PushUint(32).PushUint(0)
	a.Push(libAddr.Word()).Op(GAS).Op(DELEGATECALL).Op(POP)
	a.PushUint(0).PushUint(0).PushUint(32).PushUint(0).PushUint(0)
	a.Push(libAddr.Word()).Op(GAS).Op(CALL)
	a.JumpITo("end")
	a.Label("end").Op(STOP)
	code := a.MustBuild()
	pcs := jumpiPCs(code)
	libPC := jumpiPCs(libCode)[0]

	for _, disableIR := range []bool{false, true} {
		e, sender, contract := testEnv(t, code)
		e.DisableIR = disableIR
		e.State.CreateContract(libAddr, libCode, sender)
		e.State.Commit()
		var libJumpis int
		e.onStep = func(depth int, pc uint64) {
			if depth == 2 && pc == libPC {
				libJumpis++
			}
		}
		if _, err := run(t, e, sender, contract, u256.Zero, nil); err != nil {
			t.Fatal(err)
		}
		if libJumpis != 2 {
			t.Fatalf("DisableIR=%v: library JUMPIs executed = %d, want 2", disableIR, libJumpis)
		}
		var got []int32
		for _, br := range e.Trace.Branches {
			got = append(got, br.Edge)
		}
		if want := []int32{int32(pcs[0])*10 + 1, int32(pcs[1])*10 + 1}; !reflect.DeepEqual(got, want) {
			t.Errorf("DisableIR=%v: recorded edges %v, want %v (the contract's own JUMPIs only)", disableIR, got, want)
		}
		if len(e.Trace.Calls) != 2 || !e.Trace.Calls[1].Checked {
			t.Errorf("DisableIR=%v: calls %+v, want the CALL's status checked", disableIR, e.Trace.Calls)
		}
		var libSinks int
		for _, s := range e.Trace.Sinks {
			if s.Kind == SinkJumpCond && s.PC == libPC {
				libSinks++
			}
		}
		if libSinks != 1 {
			t.Errorf("DisableIR=%v: library condition sinks = %d, want 1", disableIR, libSinks)
		}
	}
}

// TestBranchEventSize pins the event's footprint: the edge ID plus the
// comparison, 80 bytes on 64-bit hosts.
func TestBranchEventSize(t *testing.T) {
	if n := unsafe.Sizeof(BranchEvent{}); n != 80 {
		t.Errorf("BranchEvent is %d bytes, want 80", n)
	}
}

// TestTaintSinkSize pins the sink's footprint: pc, kind and taint, 16 bytes
// on 64-bit hosts. A sink carries no address: only frames in the inspected
// contract's storage context record one.
func TestTaintSinkSize(t *testing.T) {
	if n := unsafe.Sizeof(TaintSink{}); n != 16 {
		t.Errorf("TaintSink is %d bytes, want 16", n)
	}
}

// TestSinksAndOverflowsOnlyInInspectedContext pins which frames record
// sinks and overflow events: those in the inspected contract's storage
// context. A library that wraps an ADD and stores the result leaves one
// overflow event and one overflow-tainted SinkStore when the contract
// delegatecalls it, and nothing when the contract calls it at the
// library's own address.
func TestSinksAndOverflowsOnlyInInspectedContext(t *testing.T) {
	lib := NewAssembler()
	lib.Push(u256.Max).PushUint(1).Op(ADD) // 1 + MAX wraps
	lib.PushUint(0).Op(SSTORE).Op(STOP)
	libAddr := state.AddressFromUint(0x11b)
	libCode := lib.MustBuild()
	libAdd := Decode(libCode)[2].PC

	for _, op := range []OpCode{CALL, DELEGATECALL} {
		a := NewAssembler()
		a.PushUint(0).PushUint(0).PushUint(0).PushUint(0)
		if op == CALL {
			a.PushUint(0) // value
		}
		a.Push(libAddr.Word()).Op(GAS).Op(op).Op(STOP)
		for _, disableIR := range []bool{false, true} {
			e, sender, contract := testEnv(t, a.MustBuild())
			e.DisableIR = disableIR
			e.State.CreateContract(libAddr, libCode, sender)
			e.State.Commit()
			if _, err := run(t, e, sender, contract, u256.Zero, nil); err != nil {
				t.Fatal(err)
			}
			want := 0
			if op == DELEGATECALL {
				want = 1
			}
			if n := len(e.Trace.Overflows); n != want {
				t.Errorf("%s, DisableIR=%v: %d overflow events, want %d", op, disableIR, n, want)
			} else if n == 1 && e.Trace.Overflows[0] != (OverflowEvent{PC: libAdd, Op: ADD}) {
				t.Errorf("%s, DisableIR=%v: overflow %+v, want the library's ADD at pc %d", op, disableIR, e.Trace.Overflows[0], libAdd)
			}
			if n := len(e.Trace.Sinks); n != want {
				t.Errorf("%s, DisableIR=%v: %d sinks %+v, want %d", op, disableIR, n, e.Trace.Sinks, want)
			} else if n == 1 && !hasSink(e.Trace, SinkStore, TaintOverflow) {
				t.Errorf("%s, DisableIR=%v: sink %+v, want an overflow-tainted SinkStore", op, disableIR, e.Trace.Sinks[0])
			}
		}
	}
}

// TestZeroSizeAccessAtTopOfAddressSpace pins that the memory-taint walk of
// a zero-size access ends. Such an access touches no memory, so it may name
// any offset; in the last word below 2^64, stepping o += 32 wraps to 0.
func TestZeroSizeAccessAtTopOfAddressSpace(t *testing.T) {
	a := NewAssembler()
	a.PushUint(0).PushUint(0).Push(u256.Max).Op(CALLDATACOPY) // size 0, src 0, dst 2^256-1
	a.PushUint(0).Push(u256.Max).Op(KECCAK256).Op(POP)        // size 0 at the same offset
	a.Op(STOP)
	for _, disableIR := range []bool{false, true} {
		e, sender, contract := testEnv(t, a.MustBuild())
		e.DisableIR = disableIR
		if _, err := run(t, e, sender, contract, u256.Zero, nil); err != nil {
			t.Fatalf("DisableIR=%v: %v", disableIR, err)
		}
	}
}
