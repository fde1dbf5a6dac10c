package evm

import (
	"testing"

	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// selfCallCode builds the recursive probe the call-machinery tests share: on
// entry with empty calldata it performs one CALL (parameterized by the
// builder), on entry with calldata it runs the "inner" branch. The entry
// call's status word is returned.
func dispatchCode(entry, inner func(a *Assembler)) []byte {
	a := NewAssembler()
	a.Op(CALLDATASIZE)
	a.JumpITo("inner")
	entry(a)
	a.PushUint(0).Op(MSTORE).PushUint(32).PushUint(0).Op(RETURN)
	a.Label("inner")
	inner(a)
	a.Op(STOP)
	return a.MustBuild()
}

// TestCallDepthLimit1024 pins the mainnet depth semantics at the full 1024
// ceiling: a contract that recurses into itself with all remaining gas must
// place exactly MaxDepth CALLs — one per live depth — with only the last
// rejected by ErrDepth, and the rejection must not abort the outer frames.
func TestCallDepthLimit1024(t *testing.T) {
	a := NewAssembler()
	a.PushUint(0).PushUint(0).PushUint(0).PushUint(0)
	a.PushUint(0) // value 0
	a.Op(ADDRESS) // to = self
	a.Op(GAS)     // forward everything
	a.Op(CALL).Op(POP).Op(STOP)
	e, sender, contract := testEnv(t, a.MustBuild())
	e.MaxDepth = 1024
	e.MaxSteps = 1 << 20
	if _, err := e.Transact(sender, contract, u256.Zero, nil, 30_000_000); err != nil {
		t.Fatalf("outer frame must absorb the inner depth error: %v", err)
	}
	if got := len(e.Trace.Calls); got != 1024 {
		t.Fatalf("%d CALLs placed, want one per depth = 1024", got)
	}
	// Events append as calls complete — deepest first — so the one failure
	// must be the CALL placed by the frame at the 1024 ceiling.
	var failedDepths []int
	for _, c := range e.Trace.Calls {
		if !c.Success {
			failedDepths = append(failedDepths, c.Depth)
		}
	}
	if len(failedDepths) != 1 || failedDepths[0] != 1024 {
		t.Fatalf("failed CALL depths = %v, want exactly [1024]", failedDepths)
	}
}

// TestReentrantCallValueTransfer pins the value/stipend semantics of a
// reentrant CALL — the distinction the witnessed reentrancy oracle and the
// attacker template's arm gate are built on. A full-gas value call marks the
// reentry as value-enabled; a stipend-only transfer (gas request 0, so the
// callee gets exactly the 2300 stipend) re-enters without arming it. In both
// shapes the self-transfer must conserve the contract's balance.
func TestReentrantCallValueTransfer(t *testing.T) {
	cases := []struct {
		name         string
		gasArg       func(a *Assembler)
		wantGas      uint64 // 0 = only assert > callStipend
		valueEnabled bool
	}{
		{"full_gas_value_call", func(a *Assembler) { a.Op(GAS) }, 0, true},
		{"stipend_only_transfer", func(a *Assembler) { a.PushUint(0) }, callStipend, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := dispatchCode(func(a *Assembler) {
				a.PushUint(0).PushUint(0)
				a.PushUint(1).PushUint(0) // in=[0,1): non-empty calldata for the callee
				a.PushUint(7)             // value
				a.Op(ADDRESS)             // to = self (reentry)
				tc.gasArg(a)
				a.Op(CALL)
			}, func(a *Assembler) {}) // inner branch: plain STOP
			e, sender, contract := testEnv(t, code)
			out, err := e.Transact(sender, contract, u256.New(100), nil, 10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			wantWord(t, out, u256.One) // the reentrant call itself succeeds
			if got := e.State.Balance(contract); !got.Eq(u256.New(100)) {
				t.Fatalf("self-transfer broke balance conservation: %s", got)
			}
			if len(e.Trace.Reentries) != 1 {
				t.Fatalf("%d reentry events, want 1", len(e.Trace.Reentries))
			}
			re := e.Trace.Reentries[0]
			if re.Addr != contract || re.EnabledByValueCall != tc.valueEnabled {
				t.Fatalf("reentry = %+v, want addr=%v enabledByValue=%v", re, contract, tc.valueEnabled)
			}
			call := e.Trace.Calls[0]
			if !call.Value.Eq(u256.New(7)) {
				t.Fatalf("CallEvent.Value = %s, want 7", call.Value)
			}
			if tc.wantGas != 0 && call.Gas != tc.wantGas {
				t.Fatalf("CallEvent.Gas = %d, want exactly the %d stipend", call.Gas, tc.wantGas)
			}
			if tc.wantGas == 0 && call.Gas <= callStipend {
				t.Fatalf("CallEvent.Gas = %d, want > stipend for a full-gas call", call.Gas)
			}
		})
	}
}

// TestStaticCallWriteRejection drives every state-mutating operation through
// a STATICCALL frame — the shape a read-only view call into a synthesized
// attacker callback takes — and checks EIP-214 semantics: the write fails
// with ErrWriteProtection inside the static frame, the STATICCALL reports
// status 0 to its caller, and no state effect survives.
func TestStaticCallWriteRejection(t *testing.T) {
	cases := []struct {
		name  string
		write func(a *Assembler)
		check func(t *testing.T, e *EVM, contract state.Address)
	}{
		{
			"sstore",
			func(a *Assembler) { a.PushUint(1).PushUint(0).Op(SSTORE) },
			func(t *testing.T, e *EVM, contract state.Address) {
				if got, _ := e.State.GetStorage(contract, u256.Zero); !got.IsZero() {
					t.Fatalf("SSTORE landed under STATICCALL: slot0=%s", got)
				}
			},
		},
		{
			"selfdestruct",
			func(a *Assembler) { a.Op(CALLER).Op(SELFDESTRUCT) },
			func(t *testing.T, e *EVM, contract state.Address) {
				if e.State.Destroyed(contract) {
					t.Fatal("SELFDESTRUCT landed under STATICCALL")
				}
			},
		},
		{
			"value_call",
			func(a *Assembler) {
				a.PushUint(0).PushUint(0).PushUint(0).PushUint(0)
				a.PushUint(1) // value 1: forbidden in a static context
				a.Op(CALLER)
				a.PushUint(0)
				a.Op(CALL).Op(POP)
			},
			func(t *testing.T, e *EVM, contract state.Address) {
				if got := e.State.Balance(contract); !got.Eq(u256.New(50)) {
					t.Fatalf("value left the contract under STATICCALL: balance=%s", got)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := dispatchCode(func(a *Assembler) {
				a.PushUint(0).PushUint(0)
				a.PushUint(1).PushUint(0) // in=[0,1): route the callee to the write branch
				a.Op(ADDRESS)             // to = self
				a.Op(GAS)
				a.Op(STATICCALL)
			}, tc.write)
			e, sender, contract := testEnv(t, code)
			out, err := e.Transact(sender, contract, u256.New(50), nil, 10_000_000)
			if err != nil {
				t.Fatalf("outer frame must absorb the static violation: %v", err)
			}
			wantWord(t, out, u256.Zero) // the static callee failed
			last := e.Trace.Calls[len(e.Trace.Calls)-1]
			if last.Op != STATICCALL || last.Success {
				t.Fatalf("STATICCALL event = %+v, want unsuccessful STATICCALL", last)
			}
			tc.check(t, e, contract)
		})
	}
}

// TestCallGasForwardingTruncation pins the gas-forwarding rule the trace
// exposes through CallEvent.Gas: the requested gas is truncated to what the
// frame actually holds, and the 2300 stipend rides on top only for
// value-bearing calls.
func TestCallGasForwardingTruncation(t *testing.T) {
	eoa := state.AddressFromUint(0xbeef)
	const txGas = 100_000
	cases := []struct {
		name    string
		gas     u256.Int
		value   uint64
		wantGas func(t *testing.T, gas uint64)
	}{
		{"huge_request_truncates", u256.Max, 0, func(t *testing.T, gas uint64) {
			if gas == 0 || gas > txGas {
				t.Fatalf("forwarded %d, want truncation into (0, %d]", gas, txGas)
			}
		}},
		{"zero_request_zero_value", u256.Zero, 0, func(t *testing.T, gas uint64) {
			if gas != 0 {
				t.Fatalf("forwarded %d, want 0", gas)
			}
		}},
		{"zero_request_with_value_gets_stipend", u256.Zero, 3, func(t *testing.T, gas uint64) {
			if gas != callStipend {
				t.Fatalf("forwarded %d, want exactly the %d stipend", gas, callStipend)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAssembler()
			a.PushUint(0).PushUint(0).PushUint(0).PushUint(0)
			a.PushUint(tc.value)
			a.Push(u256.FromBytes(eoa[:]))
			a.Push(tc.gas)
			a.Op(CALL).Op(POP).Op(STOP)
			e, sender, contract := testEnv(t, a.MustBuild())
			if _, err := e.Transact(sender, contract, u256.New(10), nil, txGas); err != nil {
				t.Fatal(err)
			}
			if len(e.Trace.Calls) != 1 {
				t.Fatalf("%d call events, want 1", len(e.Trace.Calls))
			}
			call := e.Trace.Calls[0]
			if !call.Success {
				t.Fatalf("EOA call failed: %+v", call)
			}
			tc.wantGas(t, call.Gas)
			if tc.value != 0 {
				if got := e.State.Balance(eoa); !got.Eq(u256.New(tc.value)) {
					t.Fatalf("EOA balance = %s, want %d", got, tc.value)
				}
			}
		})
	}
}

// FuzzWorldNoCrash executes arbitrary bytecode in a three-contract world —
// two fuzzed contracts that can address each other plus a reentering
// attacker-style callback contract — and requires the interpreter to survive
// any resulting call graph: cross-contract calls, mutual recursion,
// reentrancy through the callback, delegatecalls into foreign code. Errors
// are expected; only panics fail the target.
func FuzzWorldNoCrash(f *testing.F) {
	primary := state.AddressFromUint(0xc0de)
	member := state.AddressFromUint(0xc101)
	attacker := state.AddressFromUint(0xa77c)

	// callTo(code) = PUSH20 addr prefix the seeds use to aim CALLs.
	callSeed := func(to state.Address) []byte {
		a := NewAssembler()
		a.PushUint(0).PushUint(0).PushUint(0).PushUint(0).PushUint(0)
		a.Push(u256.FromBytes(to[:]))
		a.Op(GAS).Op(CALL).Op(POP).Op(STOP)
		return a.MustBuild()
	}
	f.Add(callSeed(member), callSeed(primary), []byte{1, 2, 3, 4}, uint64(0))
	f.Add(callSeed(attacker), callSeed(attacker), []byte{}, uint64(7))
	// delegatecall into the member's code
	dg := NewAssembler()
	dg.PushUint(0).PushUint(0).PushUint(0).PushUint(0)
	dg.Push(u256.FromBytes(member[:]))
	dg.Op(GAS).Op(DELEGATECALL).Op(POP).Op(STOP)
	f.Add(dg.MustBuild(), []byte{0x60, 0x01, 0x60, 0x00, 0x55, 0x00}, []byte{0xff}, uint64(1))

	// The attacker-style contract is fixed: on first entry (slot 0 unset) it
	// marks itself live and re-enters its caller with 4 bytes of calldata —
	// the minimal callback shape the world synthesizer emits.
	cb := NewAssembler()
	cb.PushUint(0).Op(SLOAD)
	cb.JumpITo("done")
	cb.PushUint(1).PushUint(0).Op(SSTORE)
	cb.PushUint(0).PushUint(0)
	cb.PushUint(4).PushUint(0)
	cb.PushUint(0)
	cb.Op(CALLER).Op(GAS)
	cb.Op(CALL).Op(POP)
	cb.Label("done")
	cb.Op(STOP)
	callbackCode := cb.MustBuild()

	f.Fuzz(func(t *testing.T, codeA, codeB, input []byte, seed uint64) {
		if len(codeA) > 2048 || len(codeB) > 2048 || len(input) > 1024 {
			return // size adds no new call-graph behavior
		}
		sender := state.AddressFromUint(0x0a11)
		deployer := state.AddressFromUint(0xd431)
		st := state.New()
		st.SetBalance(sender, u256.One.Lsh(120))
		st.CreateContract(primary, codeA, deployer)
		st.CreateContract(member, codeB, deployer)
		st.CreateContract(attacker, callbackCode, deployer)
		st.Commit()

		e := New(st, BlockCtx{Timestamp: 1_700_000_000, Number: 1_000_000, GasLimit: 30_000_000})
		e.Trace = NewTrace()
		e.BranchIndex = stubIndexer{}
		e.InspectedAddr = primary
		// Two transactions so state mutated by the first shapes the second —
		// the minimal world schedule.
		first, second := primary, member
		if seed%2 == 1 {
			first, second = member, primary
		}
		_, _ = e.Transact(sender, first, u256.New(seed%1_000), input, 300_000)
		_, _ = e.Transact(sender, second, u256.Zero, input, 300_000)
	})
}
