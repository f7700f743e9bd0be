package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc is the static counterpart of TestAuditPairKernelZeroAlloc:
// functions annotated //lint:hotpath are zero-alloc kernel entry points, and
// no heap allocation, closure capture, goroutine spawn, or interface boxing
// may be reachable from them through the repo callgraph. Dynamic interface
// calls are resolved conservatively (every program method matching the
// interface by shape), so a new implementation of an interface a kernel
// calls through — a gate metric's Pass, say — joins the contract the moment
// it is written.
//
// //lint:hotpathalloc-ok on a line suppresses findings on that line and acts
// as a traversal barrier: calls made on it are not followed (the annotated
// amortized/fallback path is exactly the part excluded from the contract).
// On a function declaration's line it exempts the whole function.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "forbid heap allocation, closure capture, goroutine spawns, and interface boxing " +
		"reachable from //lint:hotpath entry points; suppress with //lint:hotpathalloc-ok",
	Run: runHotPathAlloc,
}

const hotPathAllocOkDirective = "lint:hotpathalloc-ok"

// hotFinding is one allocation site discovered by the program-wide
// traversal; findings are computed once per Program and emitted by whichever
// per-package pass owns the site.
type hotFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

func runHotPathAlloc(pass *Pass) error {
	findings := pass.Prog.data("hotpathalloc", func() any {
		return hotPathFindings(pass.Prog)
	}).([]hotFinding)
	for _, f := range findings {
		if f.pkg.Types == pass.Pkg {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

// hotPathFindings walks the callgraph breadth-first from every
// //lint:hotpath entry and records allocation vocabulary in each reachable
// function body.
func hotPathFindings(prog *Program) []hotFinding {
	var findings []hotFinding
	visited := map[string]bool{}
	type item struct {
		fi    *FuncInfo
		entry string
	}
	var queue []item
	for _, fi := range prog.HotEntries() {
		queue = append(queue, item{fi, fi.Name()})
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		fi := it.fi
		if visited[fi.Key] {
			continue
		}
		visited[fi.Key] = true
		allowed := directiveLines(fi.Pkg.Fset, fi.File, hotPathAllocOkDirective)
		if allowed[fi.Pkg.Fset.Position(fi.Decl.Pos()).Line] {
			continue // whole function exempted: no findings, no descent
		}
		scanHotFunc(prog, fi, it.entry, allowed, &findings, func(next *FuncInfo) {
			queue = append(queue, item{next, it.entry})
		})
	}
	return findings
}

// scanHotFunc checks one reachable function body and enqueues its callees.
func scanHotFunc(prog *Program, fi *FuncInfo, entry string, allowed map[int]bool, findings *[]hotFinding, enqueue func(*FuncInfo)) {
	info := fi.Pkg.Info
	fset := fi.Pkg.Fset
	report := func(pos token.Pos, what string) {
		if allowed[fset.Position(pos).Line] {
			return
		}
		*findings = append(*findings, hotFinding{
			pkg: fi.Pkg,
			pos: pos,
			msg: what + " in zero-alloc hot path " + fi.Name() +
				" (reachable from //lint:hotpath entry " + entry + "); hoist it out of the kernel or mark //lint:hotpathalloc-ok",
		})
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "goroutine spawn")

		case *ast.FuncLit:
			if closureCaptures(info, n) {
				report(n.Pos(), "closure capturing variables (heap-allocated at creation)")
			}
			// Descend either way: the literal's body runs in the hot path
			// when it is invoked here (callbacks, once.Do fills).
			return true

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					report(n.Pos(), "address of composite literal (escapes to the heap)")
				}
			}

		case *ast.CompositeLit:
			if t := info.Types[n].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(n.Pos(), "slice/map literal")
				}
			}

		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := info.Types[n].Type; t != nil && isString(t) && info.Types[n].Value == nil {
					report(n.OpPos, "string concatenation")
				}
			}

		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if t := info.Types[idx.X].Type; t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							report(lhs.Pos(), "map assignment (may grow the map)")
						}
					}
				}
			}

		case *ast.CallExpr:
			scanHotCall(prog, fi, n, allowed, report, enqueue)
		}
		return true
	})
}

// scanHotCall classifies one call in a hot function: allocating builtins,
// allocating conversions, known-allocating stdlib, interface boxing of
// arguments, and callgraph edges to follow.
func scanHotCall(prog *Program, fi *FuncInfo, call *ast.CallExpr, allowed map[int]bool, report func(token.Pos, string), enqueue func(*FuncInfo)) {
	info := fi.Pkg.Info
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make")
			case "new":
				report(call.Pos(), "new")
			case "append":
				report(call.Pos(), "append (may grow the slice)")
			}
			return
		}
	}

	// Conversions: string<->[]byte/[]rune copy; conversion to interface boxes.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			to, from := tv.Type, info.Types[call.Args[0]].Type
			switch {
			case isString(to) != isString(from) && (isString(to) || isString(from)):
				report(call.Pos(), "string conversion (copies the bytes)")
			case to != nil && types.IsInterface(to):
				reportBoxing(info, call.Args[0], report)
			}
		}
		return
	}

	// Known-allocating stdlib.
	if obj := calleeObjectInfo(info, call); obj != nil && obj.Pkg() != nil {
		switch obj.Pkg().Path() {
		case "fmt", "errors":
			report(call.Pos(), "call to "+obj.Pkg().Path()+"."+obj.Name()+" (allocates)")
			return
		}
	}

	// Interface boxing of arguments against the callee signature.
	if sig := calleeSignature(info, fun); sig != nil && !call.Ellipsis.IsValid() {
		for i, arg := range call.Args {
			p := paramAt(sig, i)
			if p == nil || !types.IsInterface(p) {
				continue
			}
			reportBoxing(info, arg, report)
		}
	}

	// Follow program callees — unless the call line carries the barrier.
	if allowed[fi.Pkg.Fset.Position(call.Pos()).Line] {
		return
	}
	for _, target := range prog.Callees(fi.Pkg, call) {
		enqueue(target)
	}
}

// reportBoxing flags arg when storing it in an interface allocates: a
// non-constant value of a concrete, non-pointer-shaped type. Constants use
// the compiler's static boxes; pointers, maps, channels, and funcs fit the
// interface data word directly.
func reportBoxing(info *types.Info, arg ast.Expr, report func(token.Pos, string)) {
	tv := info.Types[arg]
	if tv.Value != nil || tv.Type == nil {
		return
	}
	t := tv.Type
	if types.IsInterface(t) {
		return
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return
	}
	report(arg.Pos(), "interface boxing of non-pointer value (allocates)")
}

// closureCaptures reports whether the literal references any variable
// declared outside it — the condition under which creating the closure
// allocates (a captureless closure compiles to a static function value).
func closureCaptures(info *types.Info, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level: not a capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captures = true
			return false
		}
		return true
	})
	return captures
}

// calleeSignature resolves the signature a call is checked against, for both
// static and interface-dispatched calls.
func calleeSignature(info *types.Info, fun ast.Expr) *types.Signature {
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			sig, _ := s.Obj().Type().(*types.Signature)
			return sig
		}
	}
	if tv, ok := info.Types[fun]; ok && tv.Type != nil {
		sig, _ := tv.Type.Underlying().(*types.Signature)
		return sig
	}
	return nil
}

// paramAt returns the type of parameter i, unrolling the variadic tail.
func paramAt(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if s, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
