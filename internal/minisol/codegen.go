package minisol

import (
	"fmt"

	"mufuzz/internal/abi"
	"mufuzz/internal/evm"
	"mufuzz/internal/keccak"
	"mufuzz/internal/u256"
)

// hashWords keccak-hashes a byte buffer into a storage slot.
func hashWords(b []byte) u256.Int {
	sum := keccak.Sum256(b)
	return u256.FromBytes(sum[:])
}

// CtorName is the pseudo-function name under which the constructor is
// exposed. The harness invokes it exactly once, first in every sequence —
// mirroring the paper's rule that the constructor heads the transaction
// sequence (§IV-A).
const CtorName = "__ctor"

// callStageBase is the memory area used to stage external call arguments,
// above any realistic locals region.
const callStageBase = 0x400

// BranchKind classifies the source construct behind a JUMPI site.
type BranchKind string

// Branch site kinds.
const (
	BranchIf       BranchKind = "if"
	BranchWhile    BranchKind = "while"
	BranchRequire  BranchKind = "require"
	BranchGuard    BranchKind = "payguard" // non-payable msg.value check
	BranchDispatch BranchKind = "dispatch" // selector comparison
	BranchBoolOp   BranchKind = "boolop"   // && / || short circuit
	BranchTransfer BranchKind = "transfer" // transfer success check
)

// BranchSite is compile-time metadata about one JUMPI: where it is, which
// function contains it, what construct produced it, and how many conditional
// statements enclose it. The mask-guided mutator uses Depth to decide what
// counts as a "nested branch" (paper §IV-B: at least two nested conditional
// statements), and the energy adjuster uses it for weight assignment (§IV-C).
type BranchSite struct {
	PC    uint64
	Func  string
	Kind  BranchKind
	Depth int // 1 = top-level conditional, 2 = nested once, ...
}

// Compiled is the full compilation artifact for one contract: the same
// triple (bytecode, ABI, AST) the paper's preprocessing step produces.
type Compiled struct {
	Contract *Contract
	Checked  *Checked
	Code     []byte
	ABI      *abi.ABI
	// Ctor is the pseudo-method for the constructor (always present; it may
	// have zero parameters).
	Ctor abi.Method
	// FuncEntry maps function names (including CtorName) to their bytecode
	// entry offsets, for diagnostics and analysis.
	FuncEntry map[string]uint64
	// Branches lists every JUMPI site with source-level metadata.
	Branches []BranchSite
}

// abiKind maps a MiniSol type to its ABI kind.
func abiKind(t Type) (abi.Kind, error) {
	switch t.Kind {
	case TyUint:
		return abi.Uint256, nil
	case TyInt:
		return abi.Int256, nil
	case TyBool:
		return abi.Bool, nil
	case TyAddress:
		return abi.Address, nil
	case TyBytes32:
		return abi.Bytes32, nil
	default:
		return 0, fmt.Errorf("minisol: type %s has no ABI form", t)
	}
}

// generator emits bytecode for one contract.
type generator struct {
	asm     *evm.Assembler
	checked *Checked
	fn      *Function
	fnLabel string
	labelN  int
	nest    int // current conditional nesting depth
	sites   []BranchSite
}

func (g *generator) freshLabel(prefix string) string {
	g.labelN++
	return fmt.Sprintf("%s_%d", prefix, g.labelN)
}

// site records the JUMPI just emitted (the last code byte) as a branch site.
func (g *generator) site(kind BranchKind, depth int) {
	g.sites = append(g.sites, BranchSite{
		PC:    uint64(g.asm.Len() - 1),
		Func:  g.fnLabel,
		Kind:  kind,
		Depth: depth,
	})
}

// Compile parses, checks, and generates code for a MiniSol source text.
func Compile(src string) (*Compiled, error) {
	c, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileContract(c)
}

// CompileContract checks and generates code for a parsed contract.
func CompileContract(c *Contract) (*Compiled, error) {
	checked, err := Check(c)
	if err != nil {
		return nil, err
	}
	g := &generator{asm: evm.NewAssembler(), checked: checked}

	// Build the ABI first so the dispatcher can use selectors.
	contractABI := &abi.ABI{}
	ctorFn := c.Ctor
	if ctorFn == nil {
		ctorFn = &Function{Name: "constructor", IsCtor: true, Payable: true}
	}
	ctorMethod, err := methodFor(CtorName, ctorFn)
	if err != nil {
		return nil, err
	}
	contractABI.Constructor = &ctorMethod
	for i := range c.Functions {
		m, err := methodFor(c.Functions[i].Name, &c.Functions[i])
		if err != nil {
			return nil, err
		}
		contractABI.Methods = append(contractABI.Methods, m)
	}

	// --- Dispatcher ---
	a := g.asm
	// selector = calldataload(0) >> 224
	a.PushUint(0).Op(evm.CALLDATALOAD).PushUint(224).Op(evm.SHR)
	// constructor dispatch
	sel := ctorMethod.Selector()
	a.Op(evm.DUP1).PushBytes(sel[:]).Op(evm.EQ)
	a.JumpITo("fn_" + CtorName)
	g.fnLabel = "dispatch"
	g.site(BranchDispatch, 0)
	for _, m := range contractABI.Methods {
		s := m.Selector()
		a.Op(evm.DUP1).PushBytes(s[:]).Op(evm.EQ)
		a.JumpITo("fn_" + m.Name)
		g.site(BranchDispatch, 0)
	}
	// Fallback: accept plain value transfers (empty calldata), reject the rest.
	a.Op(evm.CALLDATASIZE).Op(evm.ISZERO)
	a.JumpITo("accept")
	g.site(BranchDispatch, 0)
	a.JumpTo("revert")
	a.Label("accept").Op(evm.STOP)

	// --- Functions ---
	entries := map[string]uint64{}
	entries[CtorName] = uint64(a.Len())
	if err := g.genFunction(CtorName, ctorFn, c); err != nil {
		return nil, err
	}
	for i := range c.Functions {
		fn := &c.Functions[i]
		entries[fn.Name] = uint64(a.Len())
		if err := g.genFunction(fn.Name, fn, c); err != nil {
			return nil, err
		}
	}

	// Shared revert block.
	a.Label("revert")
	a.PushUint(0).PushUint(0).Op(evm.REVERT)

	code, err := a.Build()
	if err != nil {
		return nil, err
	}
	return &Compiled{
		Contract:  c,
		Checked:   checked,
		Code:      code,
		ABI:       contractABI,
		Ctor:      ctorMethod,
		FuncEntry: entries,
		Branches:  g.sites,
	}, nil
}

func methodFor(name string, fn *Function) (abi.Method, error) {
	m := abi.Method{Name: name, Payable: fn.Payable || fn.IsCtor, View: fn.View}
	for _, p := range fn.Params {
		k, err := abiKind(p.Type)
		if err != nil {
			return abi.Method{}, fmt.Errorf("%s: param %s: %w", name, p.Name, err)
		}
		m.Inputs = append(m.Inputs, abi.Param{Name: p.Name, Kind: k})
	}
	return m, nil
}

// genFunction emits the prologue, body, and epilogue of one function.
func (g *generator) genFunction(label string, fn *Function, c *Contract) error {
	g.fn = fn
	g.fnLabel = label
	g.nest = 0
	a := g.asm
	a.Label("fn_" + label)
	// The dispatcher leaves the selector on the stack; drop it.
	a.Op(evm.POP)

	// Non-payable guard (constructors are treated as payable).
	if !fn.Payable && !fn.IsCtor {
		a.Op(evm.CALLVALUE).Op(evm.ISZERO)
		ok := g.freshLabel("nonpay")
		a.JumpITo(ok)
		g.site(BranchGuard, 0)
		a.JumpTo("revert")
		a.Label(ok)
	}

	// Copy parameters from calldata to memory.
	for i := range fn.Params {
		a.PushUint(uint64(4 + 32*i)).Op(evm.CALLDATALOAD)
		a.PushUint(uint64(paramsMemBase + 32*i)).Op(evm.MSTORE)
	}

	// Constructor: run state-variable initializers first.
	if fn.IsCtor {
		for i := range c.StateVars {
			sv := &c.StateVars[i]
			if sv.Init == nil {
				continue
			}
			if err := g.genExpr(sv.Init); err != nil {
				return err
			}
			a.Push(sv.Slot).Op(evm.SSTORE)
		}
	}

	if err := g.genBlock(fn.Body); err != nil {
		return err
	}

	// Implicit exit: functions with a return type return zero.
	if fn.Returns != nil {
		a.PushUint(0).PushUint(0).Op(evm.MSTORE)
		a.PushUint(32).PushUint(0).Op(evm.RETURN)
	} else {
		a.Op(evm.STOP)
	}
	return nil
}

func (g *generator) genBlock(stmts []Stmt) error {
	for _, s := range stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) genStmt(s Stmt) error {
	a := g.asm
	switch st := s.(type) {
	case *VarDeclStmt:
		if st.Init != nil {
			if err := g.genExpr(st.Init); err != nil {
				return err
			}
		} else {
			a.PushUint(0)
		}
		a.PushUint(st.Binding.MemOffset).Op(evm.MSTORE)
		return nil

	case *AssignStmt:
		return g.genAssign(st)

	case *IfStmt:
		if err := g.genExpr(st.Cond); err != nil {
			return err
		}
		elseL := g.freshLabel("else")
		endL := g.freshLabel("endif")
		a.Op(evm.ISZERO).JumpITo(elseL)
		g.site(BranchIf, g.nest+1)
		g.nest++
		if err := g.genBlock(st.Then); err != nil {
			g.nest--
			return err
		}
		a.JumpTo(endL)
		a.Label(elseL)
		if err := g.genBlock(st.Else); err != nil {
			g.nest--
			return err
		}
		g.nest--
		a.Label(endL)
		return nil

	case *WhileStmt:
		loopL := g.freshLabel("loop")
		endL := g.freshLabel("endloop")
		a.Label(loopL)
		if err := g.genExpr(st.Cond); err != nil {
			return err
		}
		a.Op(evm.ISZERO).JumpITo(endL)
		g.site(BranchWhile, g.nest+1)
		g.nest++
		if err := g.genBlock(st.Body); err != nil {
			g.nest--
			return err
		}
		g.nest--
		a.JumpTo(loopL)
		a.Label(endL)
		return nil

	case *RequireStmt:
		if err := g.genExpr(st.Cond); err != nil {
			return err
		}
		a.Op(evm.ISZERO).JumpITo("revert")
		g.site(BranchRequire, g.nest+1)
		return nil

	case *ReturnStmt:
		if st.Value != nil {
			if err := g.genExpr(st.Value); err != nil {
				return err
			}
			a.PushUint(0).Op(evm.MSTORE)
			a.PushUint(32).PushUint(0).Op(evm.RETURN)
		} else {
			a.Op(evm.STOP)
		}
		return nil

	case *TransferStmt:
		// Stipend-only value call; revert on failure (solidity transfer).
		if err := g.genValueCall(st.Target, st.Amount, false); err != nil {
			return err
		}
		a.Op(evm.ISZERO).JumpITo("revert")
		g.site(BranchTransfer, g.nest+1)
		return nil

	case *SelfDestructStmt:
		if err := g.genExpr(st.Beneficiary); err != nil {
			return err
		}
		a.Op(evm.SELFDESTRUCT)
		return nil

	case *ExprStmt:
		if err := g.genExpr(st.X); err != nil {
			return err
		}
		a.Op(evm.POP) // every expression leaves exactly one word
		return nil

	default:
		return fmt.Errorf("minisol: codegen: unknown statement %T", s)
	}
}

// genAssign emits target = value (or compound op).
func (g *generator) genAssign(st *AssignStmt) error {
	a := g.asm
	// Compute the new value on the stack.
	emitValue := func() error {
		if st.Op == "=" {
			return g.genExpr(st.Value)
		}
		// compound: load target, op value
		if err := g.genLoad(st.Target); err != nil {
			return err
		}
		if err := g.genExpr(st.Value); err != nil {
			return err
		}
		// stack: [old, v]; compute old OP v
		switch st.Op {
		case "+=":
			a.Op(evm.ADD)
		case "-=":
			// SUB computes top - second = v - old; swap first
			a.Op(evm.SWAP1).Op(evm.SUB)
		case "*=":
			a.Op(evm.MUL)
		case "/=":
			// DIV computes top / second = v / old; swap first
			a.Op(evm.SWAP1).Op(evm.DIV)
		default:
			return fmt.Errorf("minisol: unknown compound op %q", st.Op)
		}
		return nil
	}

	switch t := st.Target.(type) {
	case *Ident:
		if err := emitValue(); err != nil {
			return err
		}
		b := t.Binding
		switch b.Kind {
		case BindStateVar:
			a.Push(b.Slot).Op(evm.SSTORE)
		default:
			a.PushUint(b.MemOffset).Op(evm.MSTORE)
		}
		return nil

	case *IndexExpr:
		if err := emitValue(); err != nil {
			return err
		}
		if err := g.genMappingSlot(t); err != nil {
			return err
		}
		a.Op(evm.SSTORE) // pops slot (top) then value
		return nil

	default:
		return fmt.Errorf("minisol: invalid assignment target %T", st.Target)
	}
}

// genLoad pushes the current value of an lvalue.
func (g *generator) genLoad(e Expr) error {
	a := g.asm
	switch t := e.(type) {
	case *Ident:
		b := t.Binding
		switch b.Kind {
		case BindStateVar:
			a.Push(b.Slot).Op(evm.SLOAD)
		default:
			a.PushUint(b.MemOffset).Op(evm.MLOAD)
		}
		return nil
	case *IndexExpr:
		if err := g.genMappingSlot(t); err != nil {
			return err
		}
		a.Op(evm.SLOAD)
		return nil
	}
	return fmt.Errorf("minisol: cannot load %T", e)
}

// genMappingSlot pushes keccak256(key . slot) for m[key].
func (g *generator) genMappingSlot(t *IndexExpr) error {
	a := g.asm
	if err := g.genExpr(t.Key); err != nil {
		return err
	}
	a.PushUint(0).Op(evm.MSTORE)
	a.Push(t.Map.Binding.Slot).PushUint(32).Op(evm.MSTORE)
	a.PushUint(64).PushUint(0).Op(evm.KECCAK256)
	return nil
}

// genValueCall emits an external value call: target receives amount.
// fullGas=false forwards only the stipend (transfer/send); fullGas=true
// forwards all remaining gas (call.value). Leaves the status word on stack.
func (g *generator) genValueCall(target, amount Expr, fullGas bool) error {
	a := g.asm
	a.PushUint(0).PushUint(0).PushUint(0).PushUint(0) // outSz outOff inSz inOff
	if err := g.genExpr(amount); err != nil {
		return err
	}
	if err := g.genExpr(target); err != nil {
		return err
	}
	if fullGas {
		a.Op(evm.GAS)
	} else {
		a.PushUint(0) // gas 0: callee receives only the 2300 stipend
	}
	a.Op(evm.CALL)
	return nil
}

func (g *generator) genExpr(e Expr) error {
	a := g.asm
	switch t := e.(type) {
	case *NumberLit:
		a.Push(t.Value)
		return nil

	case *BoolLit:
		if t.Value {
			a.PushUint(1)
		} else {
			a.PushUint(0)
		}
		return nil

	case *Ident:
		if t.Binding == nil {
			return fmt.Errorf("minisol: codegen: unresolved identifier %q", t.Name)
		}
		if t.Binding.Type.Kind == TyMapping {
			return fmt.Errorf("minisol: mapping %q used as a value", t.Name)
		}
		return g.genLoad(t)

	case *EnvExpr:
		switch t.Name {
		case "msg.sender":
			a.Op(evm.CALLER)
		case "msg.value":
			a.Op(evm.CALLVALUE)
		case "tx.origin":
			a.Op(evm.ORIGIN)
		case "block.timestamp":
			a.Op(evm.TIMESTAMP)
		case "block.number":
			a.Op(evm.NUMBER)
		case "this":
			a.Op(evm.ADDRESS)
		default:
			return fmt.Errorf("minisol: codegen: unknown env %q", t.Name)
		}
		return nil

	case *IndexExpr:
		return g.genLoad(t)

	case *BinaryExpr:
		return g.genBinary(t)

	case *UnaryExpr:
		if err := g.genExpr(t.X); err != nil {
			return err
		}
		switch t.Op {
		case "!":
			a.Op(evm.ISZERO)
		case "-":
			a.PushUint(0).Op(evm.SUB) // 0 - x (SUB = top - second)
		}
		return nil

	case *BalanceExpr:
		if err := g.genExpr(t.Addr); err != nil {
			return err
		}
		a.Op(evm.BALANCE)
		return nil

	case *KeccakExpr:
		for i, arg := range t.Args {
			if err := g.genExpr(arg); err != nil {
				return err
			}
			a.PushUint(uint64(callStageBase + 32*i)).Op(evm.MSTORE)
		}
		a.PushUint(uint64(32 * len(t.Args))).PushUint(callStageBase).Op(evm.KECCAK256)
		return nil

	case *CallValueExpr:
		return g.genValueCall(t.Target, t.Amount, true)

	case *SendExpr:
		return g.genValueCall(t.Target, t.Amount, false)

	case *DelegateCallExpr:
		for i, arg := range t.Args {
			if err := g.genExpr(arg); err != nil {
				return err
			}
			a.PushUint(uint64(callStageBase + 32*i)).Op(evm.MSTORE)
		}
		a.PushUint(0).PushUint(0) // outSz outOff
		a.PushUint(uint64(32 * len(t.Args))).PushUint(callStageBase)
		if err := g.genExpr(t.Target); err != nil {
			return err
		}
		a.Op(evm.GAS)
		a.Op(evm.DELEGATECALL)
		return nil

	case *CastExpr:
		if err := g.genExpr(t.X); err != nil {
			return err
		}
		if t.To.Kind == TyAddress {
			// mask to 160 bits
			a.Push(u256.Max.Rsh(96)).Op(evm.AND)
		}
		return nil

	case *transferExpr:
		return fmt.Errorf("minisol: .transfer is not an expression")

	default:
		return fmt.Errorf("minisol: codegen: unknown expression %T", e)
	}
}

func (g *generator) genBinary(t *BinaryExpr) error {
	a := g.asm
	signed := g.checked.TypeOf(t.L).Kind == TyInt || g.checked.TypeOf(t.R).Kind == TyInt

	switch t.Op {
	case "&&":
		// short-circuit: if L is false the result is L (0)
		end := g.freshLabel("and")
		if err := g.genExpr(t.L); err != nil {
			return err
		}
		a.Op(evm.DUP1).Op(evm.ISZERO).JumpITo(end)
		g.site(BranchBoolOp, g.nest+1)
		a.Op(evm.POP)
		if err := g.genExpr(t.R); err != nil {
			return err
		}
		a.Label(end)
		return nil
	case "||":
		end := g.freshLabel("or")
		if err := g.genExpr(t.L); err != nil {
			return err
		}
		a.Op(evm.DUP1).JumpITo(end)
		g.site(BranchBoolOp, g.nest+1)
		a.Op(evm.POP)
		if err := g.genExpr(t.R); err != nil {
			return err
		}
		a.Label(end)
		return nil
	}

	// Binary numeric/comparison: emit R then L so L ends on top; EVM binary
	// ops compute top OP second, i.e. L OP R.
	if err := g.genExpr(t.R); err != nil {
		return err
	}
	if err := g.genExpr(t.L); err != nil {
		return err
	}
	switch t.Op {
	case "+":
		a.Op(evm.ADD)
	case "-":
		a.Op(evm.SUB)
	case "*":
		a.Op(evm.MUL)
	case "/":
		if signed {
			a.Op(evm.SDIV)
		} else {
			a.Op(evm.DIV)
		}
	case "%":
		if signed {
			a.Op(evm.SMOD)
		} else {
			a.Op(evm.MOD)
		}
	case "&":
		a.Op(evm.AND)
	case "|":
		a.Op(evm.OR)
	case "^":
		a.Op(evm.XOR)
	case "<":
		if signed {
			a.Op(evm.SLT)
		} else {
			a.Op(evm.LT)
		}
	case ">":
		if signed {
			a.Op(evm.SGT)
		} else {
			a.Op(evm.GT)
		}
	case "<=":
		if signed {
			a.Op(evm.SGT)
		} else {
			a.Op(evm.GT)
		}
		a.Op(evm.ISZERO)
	case ">=":
		if signed {
			a.Op(evm.SLT)
		} else {
			a.Op(evm.LT)
		}
		a.Op(evm.ISZERO)
	case "==":
		a.Op(evm.EQ)
	case "!=":
		a.Op(evm.EQ).Op(evm.ISZERO)
	default:
		return fmt.Errorf("minisol: codegen: unknown binary op %q", t.Op)
	}
	return nil
}
