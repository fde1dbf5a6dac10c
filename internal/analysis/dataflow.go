// Package analysis implements the static analyses MuFuzz's feedback loops
// consume: state-variable data-flow dependencies between functions (paper
// §IV-A), a bytecode control-flow graph with vulnerable-instruction
// reachability (the "lightweight abstract interpreter" of §IV-C), and branch
// weight assignment (Algorithm 3).
package analysis

import (
	"sort"

	"mufuzz/internal/minisol"
)

// VarSet is a set of state-variable names.
type VarSet map[string]bool

// Add inserts names.
func (s VarSet) Add(names ...string) {
	for _, n := range names {
		s[n] = true
	}
}

// Intersects reports whether the sets share an element.
func (s VarSet) Intersects(o VarSet) bool {
	for n := range o {
		if s[n] {
			return true
		}
	}
	return false
}

// Sorted returns the elements in sorted order.
func (s VarSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FuncDataflow summarizes one function's interaction with persistent state.
type FuncDataflow struct {
	Name string
	// Reads is every state variable the function reads anywhere.
	Reads VarSet
	// Writes is every state variable the function writes.
	Writes VarSet
	// BranchReads is every state variable read inside a branch condition
	// (if / while / require).
	BranchReads VarSet
	// RAW is the set of state variables with a read-after-write dependency
	// inside this function where the variable is also read by a branch
	// condition — the trigger for consecutive-repetition sequence mutation
	// (paper §IV-A, the `invest` case).
	RAW VarSet
	// Stateless is true when the function touches no state variables at all;
	// the paper's fuzzer deprioritizes such functions.
	Stateless bool
}

// Dataflow is the whole-contract dependency summary.
type Dataflow struct {
	Contract *minisol.Contract
	// Funcs holds per-function summaries for normal functions (not the
	// constructor), in declaration order.
	Funcs []FuncDataflow
	// Ctor summarizes the constructor (writes initialize the state).
	Ctor FuncDataflow
}

// FuncByName returns a function summary.
func (d *Dataflow) FuncByName(name string) (FuncDataflow, bool) {
	for _, f := range d.Funcs {
		if f.Name == name {
			return f, true
		}
	}
	return FuncDataflow{}, false
}

// AnalyzeDataflow computes read/write/branch-read/RAW sets for every
// function of a checked contract.
func AnalyzeDataflow(c *minisol.Contract) *Dataflow {
	d := &Dataflow{Contract: c}
	if c.Ctor != nil {
		d.Ctor = analyzeFunc(c.Ctor)
	} else {
		d.Ctor = FuncDataflow{Name: "constructor", Reads: VarSet{}, Writes: VarSet{}, BranchReads: VarSet{}, RAW: VarSet{}}
		// implicit constructor: state-var initializers are writes
	}
	// Initializers always count as constructor writes.
	for _, sv := range c.StateVars {
		if sv.Init != nil {
			d.Ctor.Writes.Add(sv.Name)
		}
	}
	for i := range c.Functions {
		d.Funcs = append(d.Funcs, analyzeFunc(&c.Functions[i]))
	}
	return d
}

func analyzeFunc(fn *minisol.Function) FuncDataflow {
	f := FuncDataflow{
		Name:        fn.Name,
		Reads:       VarSet{},
		Writes:      VarSet{},
		BranchReads: VarSet{},
		RAW:         VarSet{},
	}
	walkStmts(fn.Body, &f)
	for v := range f.Writes {
		if f.BranchReads[v] {
			f.RAW.Add(v)
		}
	}
	f.Stateless = len(f.Reads) == 0 && len(f.Writes) == 0
	return f
}

func walkStmts(stmts []minisol.Stmt, f *FuncDataflow) {
	for _, s := range stmts {
		walkStmt(s, f)
	}
}

func walkStmt(s minisol.Stmt, f *FuncDataflow) {
	switch st := s.(type) {
	case *minisol.VarDeclStmt:
		if st.Init != nil {
			readsOf(st.Init, f.Reads)
		}
	case *minisol.AssignStmt:
		// Target writes; compound assignment also reads the target.
		switch t := st.Target.(type) {
		case *minisol.Ident:
			if isStateVar(t) {
				f.Writes.Add(t.Name)
				if st.Op != "=" {
					f.Reads.Add(t.Name)
				}
			}
		case *minisol.IndexExpr:
			if isStateVar(t.Map) {
				f.Writes.Add(t.Map.Name)
				if st.Op != "=" {
					f.Reads.Add(t.Map.Name)
				}
			}
			readsOf(t.Key, f.Reads)
		}
		readsOf(st.Value, f.Reads)
	case *minisol.IfStmt:
		readsOf(st.Cond, f.Reads)
		readsOf(st.Cond, f.BranchReads)
		walkStmts(st.Then, f)
		walkStmts(st.Else, f)
	case *minisol.WhileStmt:
		readsOf(st.Cond, f.Reads)
		readsOf(st.Cond, f.BranchReads)
		walkStmts(st.Body, f)
	case *minisol.RequireStmt:
		readsOf(st.Cond, f.Reads)
		readsOf(st.Cond, f.BranchReads)
	case *minisol.ReturnStmt:
		if st.Value != nil {
			readsOf(st.Value, f.Reads)
		}
	case *minisol.TransferStmt:
		readsOf(st.Target, f.Reads)
		readsOf(st.Amount, f.Reads)
	case *minisol.SelfDestructStmt:
		readsOf(st.Beneficiary, f.Reads)
	case *minisol.ExprStmt:
		readsOf(st.X, f.Reads)
	}
}

func isStateVar(id *minisol.Ident) bool {
	return id.Binding != nil && id.Binding.Kind == minisol.BindStateVar
}

// readsOf collects state variables read by an expression into set.
func readsOf(e minisol.Expr, set VarSet) {
	switch t := e.(type) {
	case *minisol.Ident:
		if isStateVar(t) {
			set.Add(t.Name)
		}
	case *minisol.IndexExpr:
		if isStateVar(t.Map) {
			set.Add(t.Map.Name)
		}
		readsOf(t.Key, set)
	case *minisol.BinaryExpr:
		readsOf(t.L, set)
		readsOf(t.R, set)
	case *minisol.UnaryExpr:
		readsOf(t.X, set)
	case *minisol.BalanceExpr:
		readsOf(t.Addr, set)
	case *minisol.KeccakExpr:
		for _, a := range t.Args {
			readsOf(a, set)
		}
	case *minisol.CallValueExpr:
		readsOf(t.Target, set)
		readsOf(t.Amount, set)
	case *minisol.SendExpr:
		readsOf(t.Target, set)
		readsOf(t.Amount, set)
	case *minisol.DelegateCallExpr:
		readsOf(t.Target, set)
		for _, a := range t.Args {
			readsOf(a, set)
		}
	case *minisol.CastExpr:
		readsOf(t.X, set)
	}
}

// DependencyOrder returns function names ordered so that writers of a state
// variable come before its readers (paper §IV-A: T1 before T2 iff T1 writes
// V and T2 reads it). Stateless functions are appended at the end. Cycles
// are broken deterministically by declaration order.
func (d *Dataflow) DependencyOrder() []string {
	n := len(d.Funcs)
	// edge i -> j when i writes something j reads (i must come first)
	indeg := make([]int, n)
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if d.Funcs[i].Writes.Intersects(d.Funcs[j].Reads) &&
				// Skip symmetric edges to keep the graph closer to a DAG:
				// when both write what the other reads, declaration order
				// decides (only add the forward edge).
				!(j < i && d.Funcs[j].Writes.Intersects(d.Funcs[i].Reads)) {
				adj[i] = append(adj[i], j)
				indeg[j]++
			}
		}
	}
	// Kahn's algorithm with deterministic tie-breaking; stateless functions
	// are held back until the end.
	var order []string
	used := make([]bool, n)
	var stateless []string
	for len(order)+len(stateless) < n {
		pick := -1
		for i := 0; i < n; i++ {
			if !used[i] && indeg[i] == 0 {
				pick = i
				break
			}
		}
		if pick < 0 {
			// cycle: take the first unused node
			for i := 0; i < n; i++ {
				if !used[i] {
					pick = i
					break
				}
			}
		}
		used[pick] = true
		for _, j := range adj[pick] {
			indeg[j]--
		}
		if d.Funcs[pick].Stateless {
			stateless = append(stateless, d.Funcs[pick].Name)
		} else {
			order = append(order, d.Funcs[pick].Name)
		}
	}
	return append(order, stateless...)
}

// RepeatCandidates returns the names of functions that should be executed
// consecutively in a mutated sequence: those with a RAW dependency on a
// branch-read state variable (paper §IV-A).
func (d *Dataflow) RepeatCandidates() []string {
	var out []string
	for _, f := range d.Funcs {
		if len(f.RAW) > 0 {
			out = append(out, f.Name)
		}
	}
	return out
}
