package evm

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// Fixed actors of the single-contract fuzz worlds.
var (
	fuzzDeployer = state.AddressFromUint(0xd431)
	fuzzSender   = state.AddressFromUint(0x0a11)
	fuzzContract = state.AddressFromUint(0xc0de)
)

// fuzzRun is what one fuzzTx observed.
type fuzzRun struct {
	st    *state.State
	trace *Trace
	ret   []byte
	err   error
	// steps is the EVM's step count; path is every executed (depth, pc), in
	// order, as the step hook saw it.
	steps int
	path  [][2]uint64
}

// fuzzTx runs one transaction of code on a fresh world — a funded sender and
// the contract deployed by fuzzDeployer, inspected with its branches indexed
// and its sinks recorded for every taint source — and returns what it
// observed. Gas and the step ceiling bound the run time.
func fuzzTx(code, input []byte, valueSeed uint64, disableIR bool) fuzzRun {
	st := state.New()
	st.SetBalance(fuzzSender, u256.One.Lsh(120))
	st.CreateContract(fuzzContract, code, fuzzDeployer)
	st.Commit()

	e := New(st, BlockCtx{Timestamp: 1_700_000_000, Number: 1_000_000, GasLimit: 30_000_000})
	e.Trace = NewTrace()
	e.BranchIndex = stubIndexer{}
	e.InspectedAddr = fuzzContract
	e.widenSinks = ^Taint(0)
	e.DisableIR = disableIR
	r := fuzzRun{st: st, trace: e.Trace}
	e.onStep = func(depth int, pc uint64) {
		r.path = append(r.path, [2]uint64{uint64(depth), pc})
	}
	r.ret, r.err = e.Transact(fuzzSender, fuzzContract, u256.New(valueSeed%1_000_000), input, 200_000)
	r.steps = e.steps
	return r
}

// FuzzInterpreterNoCrash runs arbitrary bytecode through the interpreter:
// whatever the code does — invalid opcodes, stack underflow, jumps into
// immediates, unbounded loops, self-calls — execution must return (an error
// or a result), never panic.
func FuzzInterpreterNoCrash(f *testing.F) {
	// a plausible code seed: PUSH1 0 CALLDATALOAD PUSH1 8 JUMPI JUMPDEST STOP
	f.Add([]byte{0x60, 0x00, 0x35, 0x60, 0x08, 0x57, 0x5b, 0x00}, []byte{1}, uint64(0))
	// storage write + call + selfdestruct
	f.Add([]byte{0x60, 0x01, 0x60, 0x00, 0x55, 0x33, 0xff}, []byte{}, uint64(5))
	f.Add([]byte{}, []byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, code, input []byte, valueSeed uint64) {
		if len(code) > 4096 || len(input) > 4096 {
			return // keep individual executions fast; size adds no new behavior
		}
		_ = fuzzTx(code, input, valueSeed, false) // errors are expected; only panics fail the target
	})
}

// FuzzIRMatchesSwitch is the unit-level IR ≡ switch-loop check: every
// (code, input, value) runs on two identically built fresh worlds, once on
// the compiled IR (fused superinstructions included) and once on the
// reference switch loop, and the two runs must agree on the error, the
// return data, every account's final state with every storage slot's taint
// tag, the whole trace — branch events by edge with their comparison
// operands, calls, overflows, sinks of every taint source, self-destructs,
// delegates and reentries — the step count, and the executed (depth, pc)
// path at every depth.
// The seeds are the dispatcher arms of the runtime bytecode fixtures, so the
// fused dispatcher and compare-and-branch patterns run from the first input.
func FuzzIRMatchesSwitch(f *testing.F) {
	for _, name := range []string{"crowdsale-buggy", "erc20", "magic-gate", "bank-reentrant"} {
		code := loadRuntimeFixture(f, name)
		for _, sel := range dispatcherSelectors(code) {
			input := append(sel, make([]byte, 64)...)
			input[35], input[67] = 1, 2 // two small argument words
			f.Add(code, input, uint64(0))
			f.Add(code, input, uint64(1000))
		}
	}
	// The fixtures branch on ISZERO, so the compare-and-branch pattern gets a
	// seed of its own: each comparison of a calldata word straight into a
	// JUMPI.
	a := NewAssembler()
	for i, op := range []OpCode{LT, GT, SLT, SGT, EQ} {
		label := fmt.Sprintf("l%d", i)
		a.PushUint(uint64(2+i)).PushUint(uint64(32*i)).Op(CALLDATALOAD, op).JumpITo(label).Label(label)
	}
	input := make([]byte, 5*32)
	for i := range input {
		input[i] = 0xff // negative words for SLT/SGT; above every constant for LT/GT
	}
	f.Add(a.Op(STOP).MustBuild(), input, uint64(0))
	f.Fuzz(func(t *testing.T, code, input []byte, valueSeed uint64) {
		if len(code) > 4096 || len(input) > 4096 {
			return
		}
		ir := fuzzTx(code, input, valueSeed, false)
		sw := fuzzTx(code, input, valueSeed, true)
		if fmt.Sprint(ir.err) != fmt.Sprint(sw.err) {
			t.Fatalf("error: IR %v, switch %v", ir.err, sw.err)
		}
		if !bytes.Equal(ir.ret, sw.ret) {
			t.Fatalf("return data: IR %x, switch %x", ir.ret, sw.ret)
		}
		if a, b := ir.st.Accounts(), sw.st.Accounts(); !reflect.DeepEqual(a, b) {
			t.Fatalf("accounts: IR %v, switch %v", a, b)
		}
		for _, addr := range ir.st.Accounts() {
			if !ir.st.AccountEqual(sw.st, addr) {
				t.Fatalf("account %s differs: IR bal=%s storage=%v, switch bal=%s storage=%v", addr,
					ir.st.Balance(addr), ir.st.StorageDump(addr), sw.st.Balance(addr), sw.st.StorageDump(addr))
			}
			if a, b := ir.st.StorageTags(addr), sw.st.StorageTags(addr); !reflect.DeepEqual(a, b) {
				t.Fatalf("account %s storage tags: IR %v, switch %v", addr, a, b)
			}
		}
		if !reflect.DeepEqual(ir.trace, sw.trace) {
			t.Fatalf("trace differs: %s", traceDiff(ir.trace, sw.trace))
		}
		if ir.steps != sw.steps {
			t.Fatalf("steps: IR %d, switch %d", ir.steps, sw.steps)
		}
		for i := 0; i < len(ir.path) || i < len(sw.path); i++ {
			if i >= len(ir.path) || i >= len(sw.path) || ir.path[i] != sw.path[i] {
				t.Fatalf("executed path differs at step %d of IR %d, switch %d", i, len(ir.path), len(sw.path))
			}
		}
	})
}

// traceDiff names the first Trace field on which a and b disagree.
func traceDiff(a, b *Trace) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if fa, fb := va.Field(i).Interface(), vb.Field(i).Interface(); !reflect.DeepEqual(fa, fb) {
			return fmt.Sprintf("%s: IR %+v, switch %+v", va.Type().Field(i).Name, fa, fb)
		}
	}
	return "no field differs"
}

// loadRuntimeFixture reads a fixture's hex-encoded runtime bytecode.
func loadRuntimeFixture(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "fixtures", name+".bin"))
	if err != nil {
		tb.Fatalf("fixture missing (regen with `go run ./cmd/corpusgen -fixtures fixtures`): %v", err)
	}
	code, err := hex.DecodeString(strings.TrimPrefix(strings.TrimSpace(string(raw)), "0x"))
	if err != nil {
		tb.Fatalf("fixture %s: %v", name, err)
	}
	return code
}

// dispatcherSelectors returns the 4-byte selectors of code's dispatcher
// arms: every PUSH4 immediate compared by the EQ that follows it.
func dispatcherSelectors(code []byte) [][]byte {
	var out [][]byte
	dec := Decode(code)
	for i := 0; i+1 < len(dec); i++ {
		if dec[i].Op == PUSH1+3 && len(dec[i].Imm) == 4 && dec[i+1].Op == EQ {
			out = append(out, append([]byte(nil), dec[i].Imm...))
		}
	}
	return out
}
