package world

import (
	"slices"
	"testing"

	"mufuzz/internal/corpus"
	"mufuzz/internal/evm"
	"mufuzz/internal/minisol"
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// sinkOps names the instructions each sink kind is recorded at.
var sinkOps = map[evm.SinkKind][]evm.OpCode{
	evm.SinkJumpCond:   {evm.JUMPI},
	evm.SinkCompare:    {evm.LT, evm.GT, evm.SLT, evm.SGT, evm.EQ},
	evm.SinkEq:         {evm.EQ},
	evm.SinkCallValue:  {evm.CALL},
	evm.SinkCallTarget: {evm.CALL},
	evm.SinkStore:      {evm.SSTORE},
}

// TestWorldSinksOnlyFromInspectedContext replays a bank + token + attacker
// sequence, once with each of the three accounts as the EVM's inspected
// one, on both engines, and checks what the trace records for the oracles:
//   - every sink carries an oracle source (evm.SinkSources);
//   - every sink and overflow event sits at an instruction of the inspected
//     account's code that its kind names (no account here delegatecalls,
//     so an account's storage context runs only its own code);
//   - a transaction that never runs in the inspected account's storage
//     context records neither.
//
// The token's wrapping mint is the control: with the token inspected, its
// overflow and the overflow-tainted store are recorded; with the bank or
// the attacker inspected, they are not.
func TestWorldSinksOnlyFromInspectedContext(t *testing.T) {
	bankComp, err := minisol.Compile(corpus.BankReentrant())
	if err != nil {
		t.Fatal(err)
	}
	tokenComp, err := minisol.Compile(corpus.Token())
	if err != nil {
		t.Fatal(err)
	}
	deployer, user := state.AddressFromUint(0xd431), state.AddressFromUint(0x0a11)
	bank, token, attacker := state.AddressFromUint(0xc0de), state.AddressFromUint(0xc0ffe), state.AddressFromUint(0xa77c)
	withdraw, _ := bankComp.ABI.MethodByName("withdraw")
	attackerCode := CompileSpec(EncodeSpec(AttackerSpec{Selector: withdraw.Selector(), Depth: 1}))
	codes := map[state.Address][]byte{bank: bankComp.Code, token: tokenComp.Code, attacker: attackerCode}
	call := func(comp *minisol.Compiled, fn string, args ...u256.Int) []byte {
		data, err := comp.CallData(fn, args...)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	seq := []struct {
		from, to state.Address
		value    uint64
		data     []byte
	}{
		{deployer, token, 0, call(tokenComp, "mint", user.Word(), u256.Max)},
		{deployer, token, 0, call(tokenComp, "mint", deployer.Word(), u256.One)}, // totalSupply wraps
		{user, token, 0, call(tokenComp, "transfer", attacker.Word(), u256.New(5))},
		{user, bank, 1000, call(bankComp, "deposit")},
		{attacker, bank, 100, call(bankComp, "deposit")},
		{attacker, bank, 0, call(bankComp, "withdraw")}, // the attacker re-enters withdraw
	}

	for _, inspected := range []state.Address{bank, token, attacker} {
		ops := make(map[uint64]evm.OpCode)
		for _, ins := range evm.Decode(codes[inspected]) {
			ops[ins.PC] = ins.Op
		}
		for _, disableIR := range []bool{false, true} {
			st := state.New()
			for _, a := range []state.Address{deployer, user, attacker} {
				st.SetBalance(a, u256.One.Lsh(120))
			}
			st.CreateContract(attacker, attackerCode, deployer)
			st.Commit()
			e := evm.New(st, evm.BlockCtx{Timestamp: 1_700_000_000, Number: 1_000_000, GasLimit: 30_000_000})
			e.InspectedAddr = inspected
			e.DisableIR = disableIR
			for addr, comp := range map[state.Address]*minisol.Compiled{bank: bankComp, token: tokenComp} {
				if err := minisol.Deploy(e, deployer, addr, comp, nil, u256.Zero, 10_000_000); err != nil {
					t.Fatal(err)
				}
			}
			var overflows, overflowStores int
			for i, tx := range seq {
				e.Trace = evm.NewTrace()
				if _, err := e.Transact(tx.from, tx.to, u256.New(tx.value), tx.data, 2_000_000); err != nil {
					t.Fatalf("tx %d: %v", i, err)
				}
				tr := e.Trace
				if i == len(seq)-1 && (len(tr.Reentries) == 0 || tr.Reentries[0].Addr != bank) {
					t.Fatalf("tx %d: the attacker did not re-enter the bank (reentries %+v)", i, tr.Reentries)
				}
				entered := tx.to == inspected
				for _, c := range tr.Calls {
					entered = entered || c.Op != evm.DELEGATECALL && c.To == inspected
				}
				if !entered && len(tr.Sinks)+len(tr.Overflows) > 0 {
					t.Errorf("inspected %s, DisableIR=%v: tx %d never runs in its storage context but records sinks %+v and overflows %+v",
						inspected, disableIR, i, tr.Sinks, tr.Overflows)
				}
				for _, s := range tr.Sinks {
					if s.Taint&evm.SinkSources == 0 {
						t.Errorf("inspected %s, DisableIR=%v: tx %d sink %+v has no oracle source", inspected, disableIR, i, s)
					}
					if !slices.Contains(sinkOps[s.Kind], ops[s.PC]) {
						t.Errorf("inspected %s, DisableIR=%v: tx %d sink %+v is not at an instruction of its code (%s at pc %d)",
							inspected, disableIR, i, s, ops[s.PC], s.PC)
					}
					if s.Kind == evm.SinkStore && s.Taint.Has(evm.TaintOverflow) {
						overflowStores++
					}
				}
				for _, ov := range tr.Overflows {
					if ops[ov.PC] != ov.Op {
						t.Errorf("inspected %s, DisableIR=%v: tx %d overflow %+v is not at an instruction of its code (%s at pc %d)",
							inspected, disableIR, i, ov, ops[ov.PC], ov.PC)
					}
					overflows++
				}
			}
			if got, want := overflows > 0 && overflowStores > 0, inspected == token; got != want {
				t.Errorf("inspected %s, DisableIR=%v: %d overflow events and %d overflow-tainted stores recorded, want them only with the token inspected",
					inspected, disableIR, overflows, overflowStores)
			}
		}
	}
}
