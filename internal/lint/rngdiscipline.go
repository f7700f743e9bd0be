package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// RNGDiscipline enforces the project's one-stream-per-goroutine rule:
// a stats.RNG captured by a `go func(){...}` closure must belong to that
// goroutine alone. Two patterns are flagged:
//
//   - the same RNG variable is captured by a goroutine closure launched
//     inside a loop (every iteration's goroutine shares one stream);
//   - the same RNG variable is captured by two or more distinct goroutine
//     closures.
//
// Shared streams are both a data race and a determinism hazard: draw
// interleaving depends on scheduling, so results stop being reproducible in
// the seed. The fix is explicit per-shard derivation — rng.Split(), or
// stats.NewRNG with a seed derived from the shard identity (see
// stats.NullStore, which seeds each null sample from its key).
var RNGDiscipline = &Analyzer{
	Name: "rngdiscipline",
	Doc: "forbid capturing one stats.RNG in multiple goroutine-spawning closures; " +
		"derive per-goroutine streams with Split or seeded NewRNG",
	Run: runRNGDiscipline,
}

func runRNGDiscipline(pass *Pass) error {
	// captures[obj] records each goroutine closure capturing an RNG object,
	// keyed in first-seen order for stable reporting.
	type capture struct {
		lit    *ast.FuncLit
		inLoop bool // the go statement sits in a loop enclosing obj's scope
		use    *ast.Ident
	}
	captures := map[types.Object][]capture{}
	var order []types.Object

	for _, file := range pass.Files {
		// loops collects for/range statements so goroutine launch sites can
		// be tested for loop enclosure by position.
		var loops []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loops = append(loops, n)
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			goStmt, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(goStmt.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			for obj, use := range freeRNGs(pass, lit) {
				inLoop := false
				for _, loop := range loops {
					// The goroutine is launched once per iteration of loop,
					// but obj lives outside it: every iteration shares obj.
					if loop.Pos() <= goStmt.Pos() && goStmt.End() <= loop.End() &&
						!(loop.Pos() <= obj.Pos() && obj.Pos() <= loop.End()) {
						inLoop = true
						break
					}
				}
				if _, seen := captures[obj]; !seen {
					order = append(order, obj)
				}
				captures[obj] = append(captures[obj], capture{lit: lit, inLoop: inLoop, use: use})
			}
			return true
		})
	}

	for _, obj := range order {
		caps := captures[obj]
		for _, c := range caps {
			if c.inLoop {
				pass.Reportf(c.use.Pos(), "RNG %s is captured by a goroutine launched in a loop; every iteration shares one stream — derive a per-goroutine stream with %s.Split() or a seeded stats.NewRNG", obj.Name(), obj.Name())
			} else if len(caps) > 1 {
				pass.Reportf(c.use.Pos(), "RNG %s is captured by %d goroutine-spawning closures; each goroutine needs its own stream — use %s.Split() or a seeded stats.NewRNG per goroutine", obj.Name(), len(caps), obj.Name())
			}
		}
	}
	return nil
}

// freeRNGs returns the stats.RNG-typed variables used inside lit but
// declared outside it, with one representative use site each.
func freeRNGs(pass *Pass, lit *ast.FuncLit) map[types.Object]*ast.Ident {
	out := map[types.Object]*ast.Ident{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil || !isStatsRNG(obj.Type()) {
			return true
		}
		// Declared inside the literal (parameter or local) means not free.
		if lit.Pos() <= obj.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		if _, seen := out[obj]; !seen {
			out[obj] = id
		}
		return true
	})
	return out
}

// isStatsRNG reports whether t is stats.RNG or *stats.RNG, matching the named
// type RNG declared in a package whose path contains "internal/stats".
func isStatsRNG(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "RNG" && obj.Pkg() != nil && strings.Contains(obj.Pkg().Path(), "internal/stats")
}
