package oracle

import (
	"testing"

	"mufuzz/internal/evm"
	"mufuzz/internal/minisol"
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// rig is a compiled+deployed contract with a detector attached.
type rig struct {
	comp     *minisol.Compiled
	evm      *evm.EVM
	det      *Detector
	addr     state.Address
	deployer state.Address
	user     state.Address
	attacker *evm.ReentrantAttacker
}

func newRig(t testing.TB, src string) *rig {
	t.Helper()
	comp, err := minisol.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	st := state.New()
	deployer := state.AddressFromUint(0xd431)
	user := state.AddressFromUint(0x0537)
	addr := state.AddressFromUint(0xc0de)
	rich := u256.One.Lsh(120)
	st.SetBalance(deployer, rich)
	st.SetBalance(user, rich)
	st.Commit()
	e := evm.New(st, evm.BlockCtx{Timestamp: 1_700_000_001, Number: 42})
	e.Trace = evm.NewTrace()
	e.InspectedAddr = addr // the EVM records sinks for the detector's contract only

	attacker := &evm.ReentrantAttacker{Addr: state.AddressFromUint(0xa77), MaxReentries: 1}
	e.RegisterNative(attacker.Addr, attacker)
	e.State.SetBalance(attacker.Addr, rich)
	e.State.Commit()

	if err := minisol.Deploy(e, deployer, addr, comp, nil, u256.Zero, 10_000_000); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return &rig{
		comp: comp, evm: e, det: NewDetector(addr, comp.Code),
		addr: addr, deployer: deployer, user: user, attacker: attacker,
	}
}

// tx executes one transaction and feeds the trace to the detector.
func (r *rig) tx(t testing.TB, from state.Address, value u256.Int, fn string, args ...u256.Int) error {
	t.Helper()
	data, err := r.comp.CallData(fn, args...)
	if err != nil {
		t.Fatalf("calldata: %v", err)
	}
	r.evm.Trace = evm.NewTrace()
	_, execErr := r.evm.Transact(from, r.addr, value, data, 10_000_000)
	r.det.Inspect(r.evm.Trace, value, execErr == nil)
	return execErr
}

func (r *rig) classes() map[BugClass]bool { return r.det.Classes() }

func wantClass(t *testing.T, r *rig, class BugClass, want bool) {
	t.Helper()
	got := r.classes()[class]
	if got != want {
		t.Errorf("%s detected = %v, want %v (all: %v)", class, got, want, r.classes())
	}
}

// --- BD ---

func TestBlockDependencyDetected(t *testing.T) {
	r := newRig(t, `contract C {
		uint256 x;
		function play() public payable {
			if (block.timestamp % 2 == 0) { x = 1; } else { x = 2; }
		}
	}`)
	r.tx(t, r.user, u256.Zero, "play")
	wantClass(t, r, BD, true)
}

func TestBlockNumberDependencyDetected(t *testing.T) {
	r := newRig(t, `contract C {
		uint256 x;
		function play() public {
			require(block.number > 10);
			x = 1;
		}
	}`)
	r.tx(t, r.user, u256.Zero, "play")
	wantClass(t, r, BD, true)
}

func TestNoBlockDependencyOnCleanContract(t *testing.T) {
	r := newRig(t, `contract C {
		uint256 x;
		function set(uint256 v) public { if (v > 5) { x = v; } }
	}`)
	r.tx(t, r.user, u256.Zero, "set", u256.New(9))
	wantClass(t, r, BD, false)
}

// --- SE ---

func TestStrictEtherEqualityDetected(t *testing.T) {
	r := newRig(t, `contract C {
		uint256 x;
		function check() public payable {
			if (this.balance == 88) { x = 1; }
		}
	}`)
	r.tx(t, r.user, u256.New(3), "check")
	wantClass(t, r, SE, true)
}

func TestBalanceInequalityIsNotSE(t *testing.T) {
	r := newRig(t, `contract C {
		uint256 x;
		function check() public payable {
			if (this.balance > 88) { x = 1; }
		}
	}`)
	r.tx(t, r.user, u256.New(100), "check")
	wantClass(t, r, SE, false)
	// it IS a balance-influenced branch, but not strict equality
}

// --- TO ---

func TestTxOriginDetected(t *testing.T) {
	r := newRig(t, `contract C {
		address owner;
		uint256 x;
		constructor() public { owner = msg.sender; }
		function guarded() public {
			require(tx.origin == owner);
			x = 1;
		}
	}`)
	r.tx(t, r.deployer, u256.Zero, "guarded")
	wantClass(t, r, TO, true)
}

func TestMsgSenderGuardIsNotTO(t *testing.T) {
	r := newRig(t, `contract C {
		address owner;
		uint256 x;
		constructor() public { owner = msg.sender; }
		function guarded() public {
			require(msg.sender == owner);
			x = 1;
		}
	}`)
	r.tx(t, r.deployer, u256.Zero, "guarded")
	wantClass(t, r, TO, false)
}

// --- IO ---

func TestIntegerOverflowDetected(t *testing.T) {
	r := newRig(t, `contract C {
		uint256 total;
		function add(uint256 n) public { total += n; }
	}`)
	r.tx(t, r.user, u256.Zero, "add", u256.Max)    // 0 + max ok
	r.tx(t, r.user, u256.Zero, "add", u256.New(5)) // wraps
	wantClass(t, r, IO, true)
}

func TestGuardedArithmeticIsNotIO(t *testing.T) {
	r := newRig(t, `contract C {
		uint256 total;
		function add(uint256 n) public {
			require(n < 1000);
			require(total < 1000000);
			total += n;
		}
	}`)
	r.tx(t, r.user, u256.Zero, "add", u256.New(999))
	r.tx(t, r.user, u256.Zero, "add", u256.New(999))
	wantClass(t, r, IO, false)
}

func TestUnderflowDetected(t *testing.T) {
	r := newRig(t, `contract C {
		uint256 bal;
		function take(uint256 n) public { bal -= n; }
	}`)
	r.tx(t, r.user, u256.Zero, "take", u256.New(7)) // 0 - 7 underflows
	wantClass(t, r, IO, true)
}

// --- UE ---

func TestUncheckedSendDetected(t *testing.T) {
	r := newRig(t, `contract C {
		function pay(address to, uint256 amt) public {
			to.send(amt);
		}
	}`)
	// contract has no funds → send fails, status ignored
	r.tx(t, r.user, u256.Zero, "pay", r.user.Word(), u256.New(1000))
	wantClass(t, r, UE, true)
}

func TestCheckedSendIsNotUE(t *testing.T) {
	r := newRig(t, `contract C {
		uint256 failed;
		function pay(address to, uint256 amt) public {
			if (to.send(amt)) { failed = 0; } else { failed = 1; }
		}
	}`)
	r.tx(t, r.user, u256.Zero, "pay", r.user.Word(), u256.New(1000))
	wantClass(t, r, UE, false)
}

func TestRequiredCallValueIsNotUE(t *testing.T) {
	r := newRig(t, `contract C {
		function pay(address to, uint256 amt) public {
			require(to.call.value(amt)());
		}
	}`)
	r.tx(t, r.user, u256.Zero, "pay", r.user.Word(), u256.New(1000))
	wantClass(t, r, UE, false)
}

// TestDelegatedCallIsNotUE: a failing, unchecked send made by library code
// the contract delegatecalls runs in the contract's storage context, but it
// is the library's call, not the contract's. The contract's own unchecked
// send still is UE.
func TestDelegatedCallIsNotUE(t *testing.T) {
	r := newRig(t, `contract C {
		function run(address lib, uint256 sel) public {
			lib.delegatecall(sel);
		}
		function pay(address to, uint256 amt) public {
			to.send(amt);
		}
	}`)
	lib, err := minisol.Compile(`contract L {
		function pay() public { msg.sender.send(1000); }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	libAddr := state.AddressFromUint(0x11b)
	if err := minisol.Deploy(r.evm, r.deployer, libAddr, lib, nil, u256.Zero, 10_000_000); err != nil {
		t.Fatal(err)
	}
	data, err := lib.CallData("pay")
	if err != nil {
		t.Fatal(err)
	}
	var word [32]byte
	copy(word[:], data[:4])
	r.tx(t, r.user, u256.Zero, "run", libAddr.Word(), u256.FromBytes(word[:]))
	calls := r.evm.Trace.Calls // the send ends, and is recorded, first
	if len(calls) != 2 || calls[0].Op != evm.CALL || calls[0].From != r.addr || calls[0].Success || !calls[0].Delegated {
		t.Fatalf("call events %+v, want the library's failed send from the contract's context, marked delegated", calls)
	}
	wantClass(t, r, UE, false)

	r.tx(t, r.user, u256.Zero, "pay", r.user.Word(), u256.New(1000))
	wantClass(t, r, UE, true)
}

// --- US ---

func TestUnprotectedSelfDestructDetected(t *testing.T) {
	r := newRig(t, `contract C {
		function kill() public { selfdestruct(msg.sender); }
	}`)
	r.tx(t, r.user, u256.Zero, "kill") // user is not the creator
	wantClass(t, r, US, true)
}

func TestGuardedSelfDestructIsNotUS(t *testing.T) {
	r := newRig(t, `contract C {
		address owner;
		constructor() public { owner = msg.sender; }
		function kill() public {
			require(msg.sender == owner);
			selfdestruct(msg.sender);
		}
	}`)
	// Non-owner attempt reverts before SELFDESTRUCT.
	r.tx(t, r.user, u256.Zero, "kill")
	// Owner executes it legitimately.
	r.tx(t, r.deployer, u256.Zero, "kill")
	wantClass(t, r, US, false)
}

// --- RE ---

func TestReentrancyDetected(t *testing.T) {
	r := newRig(t, `contract C {
		mapping(address => uint256) bal;
		function deposit() public payable { bal[msg.sender] += msg.value; }
		function withdraw() public {
			uint256 amount = bal[msg.sender];
			if (amount > 0) {
				require(msg.sender.call.value(amount)());
				bal[msg.sender] = 0;
			}
		}
	}`)
	if err := r.tx(t, r.attacker.Addr, u256.New(100), "deposit"); err != nil {
		t.Fatal(err)
	}
	if err := r.tx(t, r.attacker.Addr, u256.Zero, "withdraw"); err != nil {
		t.Fatal(err)
	}
	wantClass(t, r, RE, true)
	if r.attacker.Reentered == 0 {
		t.Error("attacker should have re-entered")
	}
}

func TestTransferPatternIsNotRE(t *testing.T) {
	r := newRig(t, `contract C {
		mapping(address => uint256) bal;
		function deposit() public payable { bal[msg.sender] += msg.value; }
		function withdraw() public {
			uint256 amount = bal[msg.sender];
			if (amount > 0) {
				bal[msg.sender] = 0;
				msg.sender.transfer(amount);
			}
		}
	}`)
	r.tx(t, r.attacker.Addr, u256.New(100), "deposit")
	r.tx(t, r.attacker.Addr, u256.Zero, "withdraw")
	wantClass(t, r, RE, false)
}

// --- UD ---

func TestUnprotectedDelegatecallDetected(t *testing.T) {
	r := newRig(t, `contract C {
		function run(address lib, uint256 x) public {
			lib.delegatecall(x);
		}
	}`)
	r.tx(t, r.user, u256.Zero, "run", u256.New(0x11b), u256.New(1))
	wantClass(t, r, UD, true)
}

func TestOwnerDelegatecallIsNotUD(t *testing.T) {
	r := newRig(t, `contract C {
		address owner;
		constructor() public { owner = msg.sender; }
		function run(address lib, uint256 x) public {
			require(msg.sender == owner);
			lib.delegatecall(x);
		}
	}`)
	r.tx(t, r.user, u256.Zero, "run", u256.New(0x11b), u256.New(1))     // reverts
	r.tx(t, r.deployer, u256.Zero, "run", u256.New(0x11b), u256.New(1)) // owner
	wantClass(t, r, UD, false)
}

// --- EF ---

func TestEtherFreezingDetected(t *testing.T) {
	r := newRig(t, `contract C {
		uint256 count;
		function donate() public payable { count += 1; }
	}`)
	r.tx(t, r.user, u256.New(1000), "donate")
	wantClass(t, r, EF, true)
}

func TestWithdrawableContractIsNotEF(t *testing.T) {
	r := newRig(t, `contract C {
		uint256 count;
		function donate() public payable { count += 1; }
		function withdraw(uint256 n) public { msg.sender.transfer(n); }
	}`)
	r.tx(t, r.user, u256.New(1000), "donate")
	wantClass(t, r, EF, false)
}

// --- aggregation behaviour ---

func TestFindingsDeduplicated(t *testing.T) {
	r := newRig(t, `contract C {
		uint256 x;
		function play() public {
			if (block.timestamp > 5) { x = 1; }
		}
	}`)
	for i := 0; i < 5; i++ {
		r.tx(t, r.user, u256.Zero, "play")
	}
	finds := r.det.Finalize()
	byClass := map[BugClass]int{}
	for _, f := range finds {
		byClass[f.Class]++
	}
	if byClass[BD] > 2 {
		t.Errorf("BD findings = %d; repeats of one site must dedup", byClass[BD])
	}
}

func TestFinalizeDeterministicOrder(t *testing.T) {
	r := newRig(t, `contract C {
		uint256 x;
		function a() public { if (block.timestamp > 1) { x = 1; } }
		function b() public { require(tx.origin == msg.sender); x = 2; }
	}`)
	r.tx(t, r.user, u256.Zero, "a")
	r.tx(t, r.user, u256.Zero, "b")
	f1 := r.det.Finalize()
	f2 := r.det.Finalize()
	if len(f1) != len(f2) {
		t.Fatal("Finalize not idempotent")
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Error("Finalize order not deterministic")
		}
	}
}
