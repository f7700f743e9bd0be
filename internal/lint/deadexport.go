package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadExport flags exported declarations in internal/ packages that no
// production code uses. Every path in the engine must earn its place: an
// exported function that only its own tests call is code to delete, or — if
// it is a test oracle — code to move into a _test.go file or the
// internal/verify test-support package.
//
// Users are the non-test files of every loaded package: the main packages,
// examples, the public root package, internal/verify's oracles, and the
// modules nested in the module's tree (perfbench), which may import its
// internal packages too. A type alias in a package outside internal/ (the
// public API) makes every method of the aliased type a user-facing method.
// A use inside the declaration itself (recursion, a type's own methods)
// does not count.
//
// Never findings:
//   - a method that, with the rest of its receiver's method set, satisfies an
//     interface in the program or the packages it imports (String, Less,
//     ServeHTTP, ...), since interface calls reach it without naming it;
//   - anything in the test-support packages internal/verify,
//     internal/testutil and internal/lint/linttest;
//   - a declaration marked //lint:deadexport-ok <reason>, on its line or the
//     line above it, for a hook another package's tests need;
//   - anything at all when the run did not load the whole module tree
//     (every package in each loaded package's ModuleTree): a partial run
//     cannot see every caller, so it stays silent.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc: "flag exported declarations in internal/ packages that no non-test file " +
		"uses, unless marked //lint:deadexport-ok",
	Run: runDeadExport,
}

const deadExportOkDirective = "lint:deadexport-ok"

// testSupportPkgs are the internal packages whose exports exist for tests.
var testSupportPkgs = []string{"/internal/verify", "/internal/testutil", "/internal/lint/linttest"}

// deadExportFacts is the program-wide computation: the keys of every used
// declaration and the interfaces that may reach a method without naming it.
// nil means the run is partial and the analyzer stays silent.
type deadExportFacts struct {
	used   map[string]bool
	ifaces map[string][]*types.Interface // by method name
}

func runDeadExport(pass *Pass) error {
	facts, _ := pass.Prog.data(pass.Analyzer.Name, func() any {
		return buildDeadExportFacts(pass.Prog.Pkgs)
	}).(*deadExportFacts)
	path := pass.Pkg.Path()
	if facts == nil || !strings.Contains(path+"/", "/internal/") {
		return nil
	}
	for _, s := range testSupportPkgs {
		if strings.HasSuffix(path, s) {
			return nil
		}
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		allowed := directiveLines(pass.Fset, file, deadExportOkDirective)
		report := func(id *ast.Ident, kind string) {
			obj := pass.Info.Defs[id]
			if obj == nil || !id.IsExported() || allowed[pass.Fset.Position(id.Pos()).Line] {
				return
			}
			if facts.used[declKey(obj)] {
				return
			}
			if fn, ok := obj.(*types.Func); ok && facts.satisfiesInterface(fn) {
				return
			}
			pass.Reportf(id.Pos(), "exported %s %s is used by no non-test file; delete it, move it into a test file, or mark //lint:deadexport-ok <reason>", kind, id.Name)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				kind := "func"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Name, kind)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						report(sp.Name, "type")
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, name := range sp.Names {
							report(name, kind)
						}
					}
				}
			}
		}
	}
	return nil
}

// buildDeadExportFacts collects every use in the program's non-test files,
// or returns nil when the loaded packages miss part of a module tree.
func buildDeadExportFacts(pkgs []*Package) *deadExportFacts {
	loaded := map[string]bool{}
	for _, pkg := range pkgs {
		loaded[pkg.Path] = true
	}
	for _, pkg := range pkgs {
		for _, p := range pkg.ModuleTree {
			if !loaded[p] {
				return nil
			}
		}
	}
	f := &deadExportFacts{used: map[string]bool{}, ifaces: map[string][]*types.Interface{}}
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			f.ifaces[name] = append(f.ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seenPkg := map[*types.Package]bool{}
	var addScope func(p *types.Package)
	addScope = func(p *types.Package) {
		if p == nil || seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addScope(imp)
		}
	}
	for _, pkg := range pkgs {
		addScope(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		public := !strings.Contains(pkg.Path+"/", "/internal/")
		for _, file := range pkg.Files {
			if isTestFile(pkg.Fset, file) {
				continue
			}
			for _, decl := range file.Decls {
				f.collectUses(pkg, decl, public)
			}
		}
	}
	return f
}

// collectUses marks every declaration decl uses, except the declarations
// decl itself makes (and, for a method, its receiver type), and — when the
// package is public API — every method of a type it aliases.
func (f *deadExportFacts) collectUses(pkg *Package, decl ast.Decl, public bool) {
	own := map[string]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if obj, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
			own[declKey(obj)] = true
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				if named := namedOf(recv.Type()); named != nil {
					own[declKey(named.Obj())] = true
				}
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				obj := pkg.Info.Defs[sp.Name]
				own[declKey(obj)] = true
				if tn, ok := obj.(*types.TypeName); ok && public && tn.IsAlias() {
					f.markMethods(tn.Type())
				}
			case *ast.ValueSpec:
				for _, name := range sp.Names {
					own[declKey(pkg.Info.Defs[name])] = true
				}
			}
		}
	}
	mark := func(key string) {
		if key != "" && !own[key] {
			f.used[key] = true
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			mark(declKey(pkg.Info.Uses[n]))
		case *ast.SelectorExpr:
			// A field or method selection uses the receiver's type even
			// where the type is never named (a constructor's result).
			if sel, ok := pkg.Info.Selections[n]; ok {
				if named := namedOf(sel.Recv()); named != nil {
					mark(declKey(named.Obj()))
				}
			}
		}
		return true
	})
}

// markMethods marks every method in t's pointer method set, promoted ones
// included, as used.
func (f *deadExportFacts) markMethods(t types.Type) {
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	mset := types.NewMethodSet(t)
	for i := 0; i < mset.Len(); i++ {
		if fn, ok := mset.At(i).Obj().(*types.Func); ok {
			f.used[declKey(fn)] = true
		}
	}
}

// satisfiesInterface reports whether method fn, with its receiver's method
// set, implements some known interface that declares a method of its name
// and shape.
func (f *deadExportFacts) satisfiesInterface(fn *types.Func) bool {
	if fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	for _, it := range f.ifaces[fn.Name()] {
		for i := 0; i < it.NumMethods(); i++ {
			if m := it.Method(i); m.Name() == fn.Name() && sameShape(fn, m) && implementsByShape(fn, it) {
				return true
			}
		}
	}
	return false
}

// declKey renders a package-level declaration as a string stable across
// type-checker instances: funcKey for functions and methods, "path.Name"
// for package-level types, vars and consts, "" for anything else (locals,
// fields, interface methods, builtins).
func declKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		return funcKey(fn.Origin())
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// namedOf returns the named type behind t or *t, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

// isTestFile reports whether file is a _test.go file.
func isTestFile(fset *token.FileSet, file *ast.File) bool {
	return strings.HasSuffix(fset.Position(file.Pos()).Filename, "_test.go")
}
