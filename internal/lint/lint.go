// Package lint is a small, dependency-free static-analysis framework plus
// the project-specific analyzers that keep the LC-SF audit honest. The
// paper's Monte-Carlo calibration is only trustworthy if audits are
// bit-reproducible, so the invariants that tests assert (no wall-clock or
// global-RNG reads in hot paths, no shared RNG streams across goroutines, no
// exact float comparisons, nil-safe observability, checked errors) are also
// enforced here as compiler-adjacent checks, as is the rule that no internal
// export lives on for its tests alone.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — but is built entirely on the standard library
// (go/ast, go/types, and the go command) so the module carries no external
// dependencies. Packages are enumerated with `go list -json` and typechecked
// against compiler export data obtained from `go list -export`, which keeps a
// full-repo lint run fast and fully offline.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check. It is the stdlib-only analogue
// of analysis.Analyzer: Run inspects a single typechecked package through its
// Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in the multichecker's
	// -checks flag. By convention it is a single lowercase word.
	Name string
	// Doc is a one-paragraph description, shown by `lcsf-lint -list`.
	Doc string
	// Run performs the analysis. It may return an error for operational
	// failures (not for findings — those go through Pass.Reportf).
	Run func(*Pass) error
}

// A Pass provides one analyzer with one package's syntax and types.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test Go files, comments included.
	Files []*ast.File
	// Pkg is the typechecked package; Pkg.Path is the import path the
	// package was checked under.
	Pkg *types.Package
	// Info holds the typechecker's expression types, object uses and
	// definitions, and selections for the package.
	Info *types.Info
	// Prog is the whole-program view over every package in this Run
	// invocation, Nested ones included; interprocedural analyzers
	// (hotpathalloc, seedtaint, ctxpoll) resolve calls and reachability
	// through it, and deadexport collects uses across it.
	Prog *Program

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer,
	})
}

// A Diagnostic is one finding, positioned in the original source.
type Diagnostic struct {
	Check    string         // analyzer name
	Pos      token.Position // resolved file:line:col
	Message  string
	Analyzer *Analyzer
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// Run applies each analyzer to each package not marked Nested (nested
// packages still join the whole-program view) and returns every diagnostic,
// sorted by file, line, column, then analyzer name so output is stable across
// runs regardless of map or goroutine ordering anywhere upstream.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	prog := NewProgram(pkgs)
	for _, pkg := range pkgs {
		if pkg.Nested {
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Prog:     prog,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags, nil
}

// All returns the full analyzer suite in a stable order: the five
// syntax/types-level analyzers, the four dataflow analyzers built on the
// CFG + callgraph layer, then the whole-program deadexport.
func All() []*Analyzer {
	return []*Analyzer{
		NoDeterminism,
		RNGDiscipline,
		FloatEq,
		NilSafeObs,
		ErrCheck,
		HotPathAlloc,
		SeedTaint,
		LockSafe,
		CtxPoll,
		DeadExport,
	}
}
