package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file implements the backward taint slice seedtaint evaluates over RNG
// seed expressions. The lattice is two-point (clean, tainted-with-reason);
// the transfer is a recursive walk over the expression's data dependencies:
// local variables chase their bindings, calls to functions inside the
// program consult a memoized result-taint summary, and function parameters
// are reported to the caller so seedtaint can propagate "this parameter
// flows into a seed" summaries across the callgraph.
//
// Soundness caveats (documented in DESIGN.md): struct field reads are
// treated as clean (taint does not flow through the heap), and values
// produced by unresolved non-source calls are clean if their arguments are.
// Both keep the analysis precise on the repo's seed-plumbing idiom —
// Config.Seed fields, nullCacheSeed derivations — while still
// catching direct and transitive wall-clock, global-state, and
// iteration-order flows.

// taintSourcePkgs are the import paths whose call results are inherently
// nondeterministic (or environment-dependent) and must never flow into an
// RNG seed.
var taintSourcePkgs = map[string]string{
	"time":         "wall clock",
	"os":           "process environment",
	"math/rand":    "global math/rand",
	"math/rand/v2": "global math/rand",
	"crypto/rand":  "crypto/rand",
	"runtime":      "runtime state",
}

// taintEval evaluates seed expressions in the context of one Program. It is
// built once per Run (via Program.data) and shared by every seedtaint pass.
type taintEval struct {
	prog *Program
	// resultMemo caches per-function result-taint verdicts; the in-progress
	// sentinel (present with tainted=false) breaks recursion cycles.
	resultMemo map[string]taintVerdict
}

type taintVerdict struct {
	tainted bool
	reason  string
}

func newTaintEval(prog *Program) *taintEval {
	return &taintEval{prog: prog, resultMemo: map[string]taintVerdict{}}
}

// eval reports whether expr (in function fi) may derive from a taint source.
// Parameters of fi that the value derives from are accumulated into params
// (when non-nil); they are clean locally and become the caller's problem via
// seed-sink summaries.
func (te *taintEval) eval(fi *FuncInfo, expr ast.Expr, params map[*types.Var]bool) taintVerdict {
	return te.evalExpr(fi, expr, params, map[types.Object]bool{})
}

func (te *taintEval) evalExpr(fi *FuncInfo, expr ast.Expr, params map[*types.Var]bool, visited map[types.Object]bool) taintVerdict {
	if expr == nil {
		return taintVerdict{}
	}
	info := fi.Pkg.Info
	// Constant-valued expressions are clean by construction.
	if tv, ok := info.Types[expr]; ok && tv.Value != nil {
		return taintVerdict{}
	}
	switch e := expr.(type) {
	case *ast.Ident:
		return te.evalObject(fi, info.ObjectOf(e), params, visited)

	case *ast.SelectorExpr:
		if _, ok := info.Selections[e]; ok {
			// Field reads are clean by design (taint does not flow through
			// the heap — Config.Seed is exactly such a read); method values
			// are clean until called.
			return taintVerdict{}
		}
		// Qualified identifier pkg.Name: same object rules as a bare ident,
		// so package-level vars in other packages are still tainted.
		return te.evalObject(fi, info.ObjectOf(e.Sel), params, visited)

	case *ast.CallExpr:
		return te.evalCall(fi, e, params, visited)

	case *ast.BinaryExpr:
		if v := te.evalExpr(fi, e.X, params, visited); v.tainted {
			return v
		}
		return te.evalExpr(fi, e.Y, params, visited)

	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return taintVerdict{true, "channel receive order"}
		}
		return te.evalExpr(fi, e.X, params, visited)

	case *ast.ParenExpr:
		return te.evalExpr(fi, e.X, params, visited)
	case *ast.StarExpr:
		return te.evalExpr(fi, e.X, params, visited)
	case *ast.TypeAssertExpr:
		return te.evalExpr(fi, e.X, params, visited)
	case *ast.IndexExpr:
		return te.evalExpr(fi, e.X, params, visited)
	}
	// Composite literals, func literals, and anything unmodeled: clean.
	return taintVerdict{}
}

// evalObject resolves taint through a named object: constants are clean,
// package-level variables are tainted (mutable ambient state), parameters
// are recorded for interprocedural propagation, and locals chase their
// bindings.
func (te *taintEval) evalObject(fi *FuncInfo, obj types.Object, params map[*types.Var]bool, visited map[types.Object]bool) taintVerdict {
	v, ok := obj.(*types.Var)
	if !ok || obj == nil {
		return taintVerdict{} // consts, funcs, package names, nil
	}
	if v.IsField() {
		return taintVerdict{}
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return taintVerdict{true, "package-level mutable state " + v.Name()}
	}
	if isParamOf(fi, v) {
		if params != nil {
			params[v] = true
		}
		return taintVerdict{}
	}
	if visited[v] {
		return taintVerdict{}
	}
	visited[v] = true
	for _, binding := range localBindings(fi, v) {
		switch b := binding.(type) {
		case bindExpr:
			if verdict := te.evalExpr(fi, b.expr, params, visited); verdict.tainted {
				return verdict
			}
		case bindMapRange:
			return taintVerdict{true, "map iteration order"}
		case bindChanRange:
			return taintVerdict{true, "channel receive order"}
		}
	}
	return taintVerdict{}
}

func (te *taintEval) evalCall(fi *FuncInfo, call *ast.CallExpr, params map[*types.Var]bool, visited map[types.Object]bool) taintVerdict {
	info := fi.Pkg.Info
	// Type conversion: taint of the operand.
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return te.evalExpr(fi, call.Args[0], params, visited)
		}
		return taintVerdict{}
	}
	// Methods on stats.RNG (Uint64, Split, ...) produce values from an
	// already-disciplined stream; deriving a child seed from them is the
	// blessed Split idiom.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal && s.Recv() != nil && isStatsRNG(s.Recv()) {
			return taintVerdict{}
		}
	}
	if obj := calleeObjectInfo(info, call); obj != nil && obj.Pkg() != nil {
		if reason, bad := taintSourcePkgs[obj.Pkg().Path()]; bad {
			return taintVerdict{true, reason + " (" + obj.Pkg().Path() + "." + obj.Name() + ")"}
		}
	}
	// Arguments first: a tainted argument taints the result regardless of
	// what the callee does with it (conservative).
	for _, arg := range call.Args {
		if verdict := te.evalExpr(fi, arg, params, visited); verdict.tainted {
			return verdict
		}
	}
	// Calls resolved inside the program: consult the memoized result-taint
	// summary so `NewRNG(badHelper())` is caught even with clean arguments.
	for _, callee := range te.prog.Callees(fi.Pkg, call) {
		if verdict := te.resultTaint(callee); verdict.tainted {
			return taintVerdict{true, verdict.reason + " (via " + callee.Name() + ")"}
		}
	}
	return taintVerdict{}
}

// resultTaint reports whether a function's return values may derive from a
// taint source independent of its arguments (parameters are treated as clean
// here; argument taint is handled at each call site).
func (te *taintEval) resultTaint(fi *FuncInfo) taintVerdict {
	if v, ok := te.resultMemo[fi.Key]; ok {
		return v
	}
	te.resultMemo[fi.Key] = taintVerdict{} // in-progress sentinel breaks cycles
	verdict := taintVerdict{}
	for _, ret := range returnStmts(fi.Decl.Body) {
		for _, res := range ret.Results {
			if v := te.evalExpr(fi, res, nil, map[types.Object]bool{}); v.tainted {
				verdict = v
				break
			}
		}
		if verdict.tainted {
			break
		}
	}
	te.resultMemo[fi.Key] = verdict
	return verdict
}

// returnStmts collects the function's own return statements, not those of
// nested function literals.
func returnStmts(body *ast.BlockStmt) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, n)
		}
		return true
	})
	return out
}

// isParamOf reports whether v is a declared parameter (or receiver) of fi.
func isParamOf(fi *FuncInfo, v *types.Var) bool {
	info := fi.Pkg.Info
	match := false
	check := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			for _, name := range f.Names {
				if info.Defs[name] == v {
					match = true
				}
			}
		}
	}
	check(fi.Decl.Recv)
	check(fi.Decl.Type.Params)
	return match
}

// A localBinding is one way a local variable acquires a value.
type localBinding interface{ binding() }

type bindExpr struct{ expr ast.Expr }
type bindMapRange struct{}
type bindChanRange struct{}

func (bindExpr) binding()      {}
func (bindMapRange) binding()  {}
func (bindChanRange) binding() {}

// localBindings finds every assignment, declaration, and range clause that
// binds v inside fi's body (closures included — the search is lexical).
func localBindings(fi *FuncInfo, v *types.Var) []localBinding {
	info := fi.Pkg.Info
	var out []localBinding
	isV := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && info.ObjectOf(id) == v
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if !isV(lhs) {
					continue
				}
				if len(n.Lhs) == len(n.Rhs) {
					out = append(out, bindExpr{n.Rhs[i]})
				} else if len(n.Rhs) == 1 {
					// Tuple assignment from a call/map-read/type-assert:
					// taint of the whole right-hand side.
					out = append(out, bindExpr{n.Rhs[0]})
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if info.Defs[name] != v {
					continue
				}
				if len(n.Values) == len(n.Names) {
					out = append(out, bindExpr{n.Values[i]})
				} else if len(n.Values) == 1 {
					out = append(out, bindExpr{n.Values[0]})
				}
			}
		case *ast.RangeStmt:
			if (n.Key != nil && isV(n.Key)) || (n.Value != nil && isV(n.Value)) {
				t := info.Types[n.X].Type
				if t != nil {
					switch t.Underlying().(type) {
					case *types.Map:
						out = append(out, bindMapRange{})
					case *types.Chan:
						out = append(out, bindChanRange{})
					default:
						out = append(out, bindExpr{n.X})
					}
				}
			}
		}
		return true
	})
	return out
}

// calleeObjectInfo is calleeObject without a Pass (dataflow runs outside any
// single pass's package).
func calleeObjectInfo(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.ObjectOf(fun)
	case *ast.SelectorExpr:
		return info.ObjectOf(fun.Sel)
	}
	return nil
}
