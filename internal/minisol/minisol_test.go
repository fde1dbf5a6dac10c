package minisol

import (
	"errors"
	"strings"
	"testing"

	"mufuzz/internal/abi"
	"mufuzz/internal/evm"
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

// crowdsaleSrc is the paper's Fig. 1 motivating contract, in MiniSol.
const crowdsaleSrc = `
contract Crowdsale {
    uint256 phase = 0; // 0: Active, 1: Success
    uint256 goal;
    uint256 invested;
    address owner;
    mapping(address => uint256) invests;

    constructor() public {
        goal = 100 ether;
        invested = 0;
        owner = msg.sender;
    }
    function invest(uint256 donations) public payable {
        if (invested < goal) {
            invests[msg.sender] += donations;
            invested += donations;
            phase = 0;
        } else {
            phase = 1;
        }
    }
    function refund() public {
        if (phase == 0) {
            msg.sender.transfer(invests[msg.sender]);
            invests[msg.sender] = 0;
        }
    }
    function withdraw() public {
        if (phase == 1) {
            owner.transfer(invested);
        }
    }
}`

// gameSrc is the paper's Fig. 4 guess-number contract, in MiniSol.
const gameSrc = `
contract Game {
    mapping(address => uint256) balance;

    function guessNum(uint256 number) public payable {
        uint256 random = keccak256(block.timestamp, now) % 200;
        require(msg.value == 88 finney);
        if (number < random) {
            uint256 luckyNum = number % 2;
            if (luckyNum == 0) {
                balance[msg.sender] += msg.value * 10;
            } else {
                balance[msg.sender] += msg.value * 5;
            }
        }
    }
}`

// --- Harness ---

type testContract struct {
	comp     *Compiled
	evm      *evm.EVM
	addr     state.Address
	deployer state.Address
	user     state.Address
}

func compileAndDeploy(t testing.TB, src string, ctorArgs ...u256.Int) *testContract {
	t.Helper()
	comp, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	st := state.New()
	deployer := state.AddressFromUint(0xd431)
	user := state.AddressFromUint(0x0537)
	addr := state.AddressFromUint(0xc0de)
	big := u256.New(1_000_000).Mul(u256.New(1_000_000_000_000_000)) // 1e21 wei
	st.SetBalance(deployer, big)
	st.SetBalance(user, big)
	st.Commit()
	e := evm.New(st, evm.BlockCtx{Timestamp: 1_700_000_000, Number: 99, GasLimit: 30_000_000})
	e.Trace = evm.NewTrace()
	e.BranchIndex, e.InspectedAddr = pcIndexer{}, addr
	args := make([]abi.Value, len(comp.Ctor.Inputs))
	for i, in := range comp.Ctor.Inputs {
		var w u256.Int
		if i < len(ctorArgs) {
			w = ctorArgs[i]
		}
		args[i] = abi.NewWord(in.Kind, w)
	}
	if err := Deploy(e, deployer, addr, comp, args, u256.Zero, 10_000_000); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return &testContract{comp: comp, evm: e, addr: addr, deployer: deployer, user: user}
}

// pcIndexer numbers every pc's two edges (2*pc, +1 when taken), so the
// deployed contract's JUMPIs are recorded as branch events. The campaign's
// CFG-based index lives in package analysis, which imports this one.
type pcIndexer struct{}

func (pcIndexer) EdgeID(pc uint64, taken bool) (int32, bool) {
	id := 2 * int32(pc)
	if taken {
		id++
	}
	return id, true
}

func (tc *testContract) call(t testing.TB, from state.Address, value u256.Int, fn string, args ...u256.Int) error {
	t.Helper()
	data, err := tc.comp.CallData(fn, args...)
	if err != nil {
		t.Fatalf("calldata %s: %v", fn, err)
	}
	tc.evm.Trace = evm.NewTrace()
	_, err = tc.evm.Transact(from, tc.addr, value, data, 10_000_000)
	return err
}

func (tc *testContract) callOut(t testing.TB, from state.Address, value u256.Int, fn string, args ...u256.Int) ([]byte, error) {
	t.Helper()
	data, err := tc.comp.CallData(fn, args...)
	if err != nil {
		t.Fatalf("calldata %s: %v", fn, err)
	}
	tc.evm.Trace = evm.NewTrace()
	return tc.evm.Transact(from, tc.addr, value, data, 10_000_000)
}

func (tc *testContract) slot(i uint64) u256.Int {
	v, _ := tc.evm.State.GetStorage(tc.addr, u256.New(i))
	return v
}

func (tc *testContract) mapSlot(mapIdx uint64, key u256.Int) u256.Int {
	v, _ := tc.evm.State.GetStorage(tc.addr, SlotOfMapping(u256.New(mapIdx), key))
	return v
}

// --- Lexer tests ---

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`contract C { uint256 x = 100 ether; } // tail`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		texts = append(texts, tok.Text)
	}
	want := []string{"contract", "C", "{", "uint256", "x", "=", "100", "ether", ";", "}"}
	if strings.Join(texts, " ") != strings.Join(want, " ") {
		t.Errorf("tokens = %v", texts)
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("a /* multi\nline */ b // rest\nc")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 { // a b c EOF
		t.Errorf("tokens = %v", toks)
	}
	if toks[2].Line != 3 {
		t.Errorf("c should be on line 3, got %d", toks[2].Line)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("a /* never closed"); err == nil {
		t.Error("unterminated comment should fail")
	}
	if _, err := Lex("a @ b"); err == nil {
		t.Error("bad character should fail")
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex("0x1f 1_000_000 42")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "0x1f" || toks[1].Text != "1000000" || toks[2].Text != "42" {
		t.Errorf("number tokens = %v %v %v", toks[0], toks[1], toks[2])
	}
}

// --- Parser tests ---

func TestParseCrowdsale(t *testing.T) {
	c, err := Parse(crowdsaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "Crowdsale" {
		t.Errorf("name = %s", c.Name)
	}
	if len(c.StateVars) != 5 {
		t.Fatalf("state vars = %d", len(c.StateVars))
	}
	if c.StateVars[4].Type.Kind != TyMapping {
		t.Error("invests should be a mapping")
	}
	if c.Ctor == nil {
		t.Fatal("constructor missing")
	}
	if len(c.Functions) != 3 {
		t.Fatalf("functions = %d", len(c.Functions))
	}
	inv, ok := c.FunctionByName("invest")
	if !ok || !inv.Payable || len(inv.Params) != 1 {
		t.Errorf("invest: %+v", inv)
	}
}

func TestParseGame(t *testing.T) {
	c, err := Parse(gameSrc)
	if err != nil {
		t.Fatal(err)
	}
	fn, ok := c.FunctionByName("guessNum")
	if !ok {
		t.Fatal("guessNum missing")
	}
	// body: local decl, require, if
	if len(fn.Body) != 3 {
		t.Fatalf("body statements = %d", len(fn.Body))
	}
	if _, ok := fn.Body[0].(*VarDeclStmt); !ok {
		t.Error("first stmt should be local decl")
	}
	if _, ok := fn.Body[1].(*RequireStmt); !ok {
		t.Error("second stmt should be require")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"contract C { uint256 x; uint256 x; }",                               // dup state var
		"contract C { function f() public {} function f() public {} }",       // dup function
		"contract C { constructor() {} constructor() {} }",                   // dup ctor
		"contract C { mapping(address => uint256) m = 5; }",                  // mapping init
		"contract C { function f(mapping(address => uint256) m) public {} }", // mapping param
		"contract C { function f() public { 1 + ; } }",                       // bad expr
		"contract C { function f() public { x = 1; } }",                      // handled in sema, but parser ok
		"contract C ", // truncated
		"contract C { function f() public { if (1) } }",     // missing block
		"contract C { function f() public { msg.bogus; } }", // bad msg member
	}
	for i, src := range cases {
		if i == 6 {
			continue // that one parses; sema rejects
		}
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d should fail to parse: %s", i, src)
		}
	}
}

func TestParseElseIfChain(t *testing.T) {
	src := `contract C { uint256 x;
		function f(uint256 a) public {
			if (a < 1) { x = 1; } else if (a < 2) { x = 2; } else { x = 3; }
		} }`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := c.FunctionByName("f")
	ifs, ok := fn.Body[0].(*IfStmt)
	if !ok {
		t.Fatal("expected if")
	}
	if len(ifs.Else) != 1 {
		t.Fatal("else-if should nest")
	}
	if _, ok := ifs.Else[0].(*IfStmt); !ok {
		t.Fatal("nested else-if missing")
	}
}

// --- Sema tests ---

func TestSemaErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"undefined ident", "contract C { function f() public { x = 1; } }"},
		{"bool arith", "contract C { uint256 x; function f(bool b) public { x = b + 1; } }"},
		{"if non-bool", "contract C { function f(uint256 a) public { if (a) { } } }"},
		{"require non-bool", "contract C { function f(uint256 a) public { require(a); } }"},
		{"transfer non-address", "contract C { function f(uint256 a) public { a.transfer(1); } }"},
		{"shadow state var", "contract C { uint256 x; function f(uint256 x) public { } }"},
		{"dup local", "contract C { function f() public { uint256 a = 1; uint256 a = 2; } }"},
		{"return without type", "contract C { function f() public { return 5; } }"},
		{"missing return value", "contract C { function f() public returns (uint256) { return; } }"},
		{"transfer as expr", "contract C { uint256 x; function f(address a) public { x = uint256(a.transfer(1)); } }"},
		{"index non-mapping", "contract C { uint256 x; function f() public { x = x[0]; } }"},
		{"compare address order", "contract C { function f(address a, address b) public { require(a < b); } }"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Compile(tc.src); err == nil {
				t.Errorf("should fail: %s", tc.src)
			}
		})
	}
}

// --- End-to-end codegen tests ---

func TestCounterContract(t *testing.T) {
	src := `contract Counter {
		uint256 count;
		function inc() public { count += 1; }
		function add(uint256 n) public { count += n; }
		function get() public view returns (uint256) { return count; }
	}`
	tc := compileAndDeploy(t, src)
	if err := tc.call(t, tc.user, u256.Zero, "inc"); err != nil {
		t.Fatal(err)
	}
	if err := tc.call(t, tc.user, u256.Zero, "add", u256.New(41)); err != nil {
		t.Fatal(err)
	}
	if !tc.slot(0).Eq(u256.New(42)) {
		t.Errorf("count = %s, want 42", tc.slot(0))
	}
	out, err := tc.callOut(t, tc.user, u256.Zero, "get")
	if err != nil {
		t.Fatal(err)
	}
	if got := u256.FromBytes(out); !got.Eq(u256.New(42)) {
		t.Errorf("get() = %s", got)
	}
}

func TestArithmeticPrecedence(t *testing.T) {
	src := `contract M {
		uint256 r;
		function f(uint256 a, uint256 b, uint256 c) public { r = a + b * c - a / 2; }
	}`
	tc := compileAndDeploy(t, src)
	if err := tc.call(t, tc.user, u256.Zero, "f", u256.New(10), u256.New(3), u256.New(4)); err != nil {
		t.Fatal(err)
	}
	// 10 + 12 - 5 = 17
	if !tc.slot(0).Eq(u256.New(17)) {
		t.Errorf("r = %s, want 17", tc.slot(0))
	}
}

func TestMappingPerSender(t *testing.T) {
	src := `contract Bank {
		mapping(address => uint256) bal;
		function deposit(uint256 n) public { bal[msg.sender] += n; }
	}`
	tc := compileAndDeploy(t, src)
	if err := tc.call(t, tc.user, u256.Zero, "deposit", u256.New(7)); err != nil {
		t.Fatal(err)
	}
	if err := tc.call(t, tc.user, u256.Zero, "deposit", u256.New(5)); err != nil {
		t.Fatal(err)
	}
	if err := tc.call(t, tc.deployer, u256.Zero, "deposit", u256.New(1)); err != nil {
		t.Fatal(err)
	}
	if got := tc.mapSlot(0, tc.user.Word()); !got.Eq(u256.New(12)) {
		t.Errorf("bal[user] = %s, want 12", got)
	}
	if got := tc.mapSlot(0, tc.deployer.Word()); !got.Eq(u256.One) {
		t.Errorf("bal[deployer] = %s, want 1", got)
	}
}

func TestRequireReverts(t *testing.T) {
	src := `contract G {
		uint256 x;
		function f(uint256 a) public { require(a == 42); x = 1; }
	}`
	tc := compileAndDeploy(t, src)
	if err := tc.call(t, tc.user, u256.Zero, "f", u256.New(1)); !errors.Is(err, evm.ErrRevert) {
		t.Fatalf("err = %v, want revert", err)
	}
	if !tc.slot(0).IsZero() {
		t.Error("state must not change on revert")
	}
	if err := tc.call(t, tc.user, u256.Zero, "f", u256.New(42)); err != nil {
		t.Fatal(err)
	}
	if !tc.slot(0).Eq(u256.One) {
		t.Error("x should be 1")
	}
}

func TestNonPayableGuard(t *testing.T) {
	src := `contract P {
		uint256 x;
		function plain() public { x = 1; }
		function pay() public payable { x = 2; }
	}`
	tc := compileAndDeploy(t, src)
	if err := tc.call(t, tc.user, u256.New(5), "plain"); !errors.Is(err, evm.ErrRevert) {
		t.Fatalf("non-payable with value: err = %v, want revert", err)
	}
	if err := tc.call(t, tc.user, u256.New(5), "pay"); err != nil {
		t.Fatal(err)
	}
	if !tc.slot(0).Eq(u256.New(2)) {
		t.Error("payable call should have run")
	}
}

func TestCrowdsaleSequenceSemantics(t *testing.T) {
	tc := compileAndDeploy(t, crowdsaleSrc)
	// constructor: goal = 100 ether (slot1), owner = deployer (slot3)
	ether := u256.New(1_000_000_000_000_000_000)
	if !tc.slot(1).Eq(u256.New(100).Mul(ether)) {
		t.Fatalf("goal = %s", tc.slot(1))
	}
	if got := state.AddressFromWord(tc.slot(3)); got != tc.deployer {
		t.Fatalf("owner = %v", got)
	}

	// invest(100 ether): invested < goal → invested = 100e18, phase stays 0.
	if err := tc.call(t, tc.user, u256.Zero, "invest", u256.New(100).Mul(ether)); err != nil {
		t.Fatal(err)
	}
	if !tc.slot(0).IsZero() {
		t.Fatal("phase should be 0 after first invest")
	}
	// second invest: invested >= goal → phase = 1 (the else branch the paper
	// says requires invest to run twice).
	if err := tc.call(t, tc.user, u256.Zero, "invest", u256.New(1)); err != nil {
		t.Fatal(err)
	}
	if !tc.slot(0).Eq(u256.One) {
		t.Fatal("phase should be 1 after second invest")
	}

	// withdraw now enters the phase == 1 branch and transfers to owner.
	tc.evm.State.SetBalance(tc.addr, u256.New(100).Mul(ether))
	tc.evm.State.Commit()
	before := tc.evm.State.Balance(tc.deployer)
	if err := tc.call(t, tc.user, u256.Zero, "withdraw"); err != nil {
		t.Fatal(err)
	}
	gained := tc.evm.State.Balance(tc.deployer).Sub(before)
	if !gained.Eq(u256.New(100).Mul(ether)) {
		t.Errorf("owner gained %s", gained)
	}
	// the if(phase==1) JUMPI must be in the trace with a taken direction
	var found bool
	for _, br := range tc.evm.Trace.Branches {
		if br.HasCmp && br.Cmp.Op == evm.EQ {
			found = true
		}
	}
	if !found {
		t.Error("phase==1 comparison missing from trace")
	}
}

func TestGameContract(t *testing.T) {
	tc := compileAndDeploy(t, gameSrc)
	finney := u256.New(1_000_000_000_000_000)
	// wrong msg.value → revert at require
	if err := tc.call(t, tc.user, u256.New(5), "guessNum", u256.New(2)); !errors.Is(err, evm.ErrRevert) {
		t.Fatalf("err = %v, want revert", err)
	}
	// right value: 88 finney
	v := u256.New(88).Mul(finney)
	if err := tc.call(t, tc.user, v, "guessNum", u256.New(2)); err != nil {
		t.Fatal(err)
	}
	// Whether the guess wins depends on the deterministic hash; we check the
	// require branch was passed by observing balance mapping may be set or not
	// but no revert occurred. Also the JUMPI for msg.value==88finney exists:
	var eqCmp bool
	for _, br := range tc.evm.Trace.Branches {
		if br.HasCmp && br.Cmp.Op == evm.EQ && (br.Cmp.A.Eq(v) || br.Cmp.B.Eq(v)) {
			eqCmp = true
		}
	}
	if !eqCmp {
		t.Error("msg.value == 88 finney comparison missing")
	}
}

func TestWhileLoop(t *testing.T) {
	src := `contract L {
		uint256 sum;
		function f(uint256 n) public {
			uint256 i = 0;
			uint256 s = 0;
			while (i < n) { s += i; i += 1; }
			sum = s;
		}
	}`
	tc := compileAndDeploy(t, src)
	if err := tc.call(t, tc.user, u256.Zero, "f", u256.New(10)); err != nil {
		t.Fatal(err)
	}
	if !tc.slot(0).Eq(u256.New(45)) {
		t.Errorf("sum = %s, want 45", tc.slot(0))
	}
}

func TestSendAndCallValue(t *testing.T) {
	src := `contract S {
		bool sent;
		function paySend(address to, uint256 amt) public { sent = to.send(amt); }
		function payCall(address to, uint256 amt) public { require(to.call.value(amt)()); }
	}`
	tc := compileAndDeploy(t, src)
	tc.evm.State.SetBalance(tc.addr, u256.New(1000))
	tc.evm.State.Commit()
	dest := state.AddressFromUint(0x1234)

	if err := tc.call(t, tc.user, u256.Zero, "paySend", dest.Word(), u256.New(10)); err != nil {
		t.Fatal(err)
	}
	if !tc.evm.State.Balance(dest).Eq(u256.New(10)) {
		t.Errorf("dest = %s", tc.evm.State.Balance(dest))
	}
	if !tc.slot(0).Eq(u256.One) {
		t.Error("send should have succeeded")
	}
	// send more than balance: success flag false, no revert
	if err := tc.call(t, tc.user, u256.Zero, "paySend", dest.Word(), u256.New(100000)); err != nil {
		t.Fatal(err)
	}
	if !tc.slot(0).IsZero() {
		t.Error("failed send should store false")
	}
	// call.value with require: insufficient → revert
	if err := tc.call(t, tc.user, u256.Zero, "payCall", dest.Word(), u256.New(100000)); !errors.Is(err, evm.ErrRevert) {
		t.Fatalf("err = %v, want revert", err)
	}
	if err := tc.call(t, tc.user, u256.Zero, "payCall", dest.Word(), u256.New(5)); err != nil {
		t.Fatal(err)
	}
	if !tc.evm.State.Balance(dest).Eq(u256.New(15)) {
		t.Errorf("dest = %s, want 15", tc.evm.State.Balance(dest))
	}
}

func TestSelfDestructStmt(t *testing.T) {
	src := `contract K {
		function kill(address to) public { selfdestruct(to); }
	}`
	tc := compileAndDeploy(t, src)
	tc.evm.State.SetBalance(tc.addr, u256.New(77))
	tc.evm.State.Commit()
	dest := state.AddressFromUint(0x9999)
	if err := tc.call(t, tc.user, u256.Zero, "kill", dest.Word()); err != nil {
		t.Fatal(err)
	}
	if !tc.evm.State.Destroyed(tc.addr) {
		t.Error("contract should be destroyed")
	}
	if !tc.evm.State.Balance(dest).Eq(u256.New(77)) {
		t.Errorf("beneficiary = %s", tc.evm.State.Balance(dest))
	}
	if len(tc.evm.Trace.SelfDestructs) != 1 {
		t.Error("selfdestruct event missing")
	}
}

func TestConstructorParams(t *testing.T) {
	src := `contract Init {
		uint256 limit;
		address admin;
		constructor(uint256 l) public { limit = l; admin = msg.sender; }
	}`
	tc := compileAndDeploy(t, src, u256.New(555))
	if !tc.slot(0).Eq(u256.New(555)) {
		t.Errorf("limit = %s", tc.slot(0))
	}
	if got := state.AddressFromWord(tc.slot(1)); got != tc.deployer {
		t.Errorf("admin = %v", got)
	}
}

func TestShortCircuit(t *testing.T) {
	// b==0 short-circuits the division guard; with non-short-circuit
	// evaluation a/b would be 0 (EVM div-by-zero) so use a side effect.
	src := `contract SC {
		uint256 hits;
		bool r;
		function f(bool a) public {
			r = a && touch();
		}
		function touch() public returns (bool) { hits += 1; return true; }
	}`
	// MiniSol has no internal calls; rewrite using mapping side effect is not
	// possible either. Test short-circuit purely through result correctness.
	src = `contract SC {
		bool r;
		function andOp(bool a, bool b) public { r = a && b; }
		function orOp(bool a, bool b) public { r = a || b; }
	}`
	tc := compileAndDeploy(t, src)
	check := func(fn string, a, b, want u256.Int) {
		t.Helper()
		if err := tc.call(t, tc.user, u256.Zero, fn, a, b); err != nil {
			t.Fatal(err)
		}
		if !tc.slot(0).Eq(want) {
			t.Errorf("%s(%s,%s) = %s, want %s", fn, a, b, tc.slot(0), want)
		}
	}
	check("andOp", u256.One, u256.One, u256.One)
	check("andOp", u256.One, u256.Zero, u256.Zero)
	check("andOp", u256.Zero, u256.One, u256.Zero)
	check("orOp", u256.Zero, u256.Zero, u256.Zero)
	check("orOp", u256.One, u256.Zero, u256.One)
	check("orOp", u256.Zero, u256.One, u256.One)
}

func TestSignedComparison(t *testing.T) {
	src := `contract SG {
		bool r;
		function f(int256 a, int256 b) public { r = a < b; }
	}`
	tc := compileAndDeploy(t, src)
	minusOne := u256.Max // -1 two's complement
	if err := tc.call(t, tc.user, u256.Zero, "f", minusOne, u256.One); err != nil {
		t.Fatal(err)
	}
	if !tc.slot(0).Eq(u256.One) {
		t.Error("-1 < 1 should be true under signed comparison")
	}
}

func TestCastAddressMasks(t *testing.T) {
	src := `contract CA {
		address a;
		function f(uint256 x) public { a = address(x); }
	}`
	tc := compileAndDeploy(t, src)
	if err := tc.call(t, tc.user, u256.Zero, "f", u256.Max); err != nil {
		t.Fatal(err)
	}
	if tc.slot(0).BitLen() > 160 {
		t.Errorf("address not masked: %s", tc.slot(0).Hex())
	}
}

func TestUnknownSelectorRevertsAndEmptyAccepts(t *testing.T) {
	tc := compileAndDeploy(t, crowdsaleSrc)
	// Unknown selector
	tc.evm.Trace = evm.NewTrace()
	_, err := tc.evm.Transact(tc.user, tc.addr, u256.Zero, []byte{1, 2, 3, 4, 5}, 1_000_000)
	if !errors.Is(err, evm.ErrRevert) {
		t.Fatalf("unknown selector: err = %v, want revert", err)
	}
	// Empty calldata: plain value transfer accepted
	tc.evm.Trace = evm.NewTrace()
	if _, err := tc.evm.Transact(tc.user, tc.addr, u256.New(5), nil, 1_000_000); err != nil {
		t.Fatalf("empty calldata: %v", err)
	}
	if !tc.evm.State.Balance(tc.addr).Eq(u256.New(5)) {
		t.Error("value transfer not accepted")
	}
}

func TestDelegatecall(t *testing.T) {
	src := `contract D {
		bool ok;
		function go(address lib, uint256 x) public { ok = lib.delegatecall(x); }
	}`
	tc := compileAndDeploy(t, src)
	// delegatecall to an empty account succeeds trivially
	lib := state.AddressFromUint(0x11b)
	if err := tc.call(t, tc.user, u256.Zero, "go", lib.Word(), u256.New(1)); err != nil {
		t.Fatal(err)
	}
	if !tc.slot(0).Eq(u256.One) {
		t.Error("delegatecall to empty account should succeed")
	}
	if len(tc.evm.Trace.Delegates) != 1 {
		t.Error("delegate event missing")
	}
}

func TestFuncEntryMap(t *testing.T) {
	comp, err := Compile(crowdsaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{CtorName, "invest", "refund", "withdraw"} {
		if _, ok := comp.FuncEntry[fn]; !ok {
			t.Errorf("entry for %s missing", fn)
		}
	}
}

func TestCompiledABI(t *testing.T) {
	comp, err := Compile(crowdsaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := comp.ABI.MethodByName("invest")
	if !ok {
		t.Fatal("invest not in ABI")
	}
	if !m.Payable || len(m.Inputs) != 1 {
		t.Errorf("invest method: %+v", m)
	}
	if comp.ABI.Constructor == nil {
		t.Fatal("ctor missing from ABI")
	}
}

func BenchmarkCompileCrowdsale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Compile(crowdsaleSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrowdsaleTransaction(b *testing.B) {
	tc := compileAndDeploy(b, crowdsaleSrc)
	data, err := tc.comp.CallData("invest", u256.New(5))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.evm.Trace = evm.NewTrace()
		if _, err := tc.evm.Transact(tc.user, tc.addr, u256.Zero, data, 5_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
