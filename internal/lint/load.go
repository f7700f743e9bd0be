package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A Package is one typechecked target package ready for analysis.
type Package struct {
	Path  string // import path the package was checked under
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds soft typechecking errors. Analysis proceeds anyway —
	// partially typed packages still surface most findings — but the
	// multichecker reports them so a broken tree is never silently "clean".
	TypeErrors []error
	// ModuleTree lists the import path of every package in the module tree
	// the package was loaded from: its module's packages plus those of the
	// modules nested in the module's directory, which may import its
	// internal packages. A whole-program analysis has seen every possible
	// caller of the package only when the run loaded all of them.
	ModuleTree []string
	// Nested marks a package loaded from a module nested in the one lint
	// runs in. Its files are callers for whole-program analyzers, but no
	// analyzer makes a pass over it: the nested module keeps its own rules.
	Nested bool
}

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Ignored    bool `json:"-"`
}

// Load enumerates the packages matching patterns (as the go command
// understands them, e.g. "./..."), relative to dir, parses their non-test Go
// files, and typechecks them against compiler export data. Test files are
// excluded by design: the analyzers enforce production-code invariants, and
// several (floateq, errcheck) deliberately exempt tests.
//
// A relative pattern that names a directory of a nested module (one with
// its own go.mod, such as "./perfbench/...") is listed and typechecked from
// that module, read-only through its own go.mod, and its packages are
// marked Nested.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	var modDirs []string
	byMod := map[string][]string{}
	for _, pat := range patterns {
		modDir, modPat := moduleDir(dir), pat
		if strings.HasPrefix(pat, ".") {
			target := filepath.Join(dir, pat)
			modDir = moduleDir(strings.TrimSuffix(target, string(filepath.Separator)+"..."))
			rel, err := filepath.Rel(modDir, target)
			if err != nil {
				return nil, fmt.Errorf("lint: pattern %s: %v", pat, err)
			}
			modPat = "./" + filepath.ToSlash(rel)
		}
		if _, ok := byMod[modDir]; !ok {
			modDirs = append(modDirs, modDir)
		}
		byMod[modDir] = append(byMod[modDir], modPat)
	}
	fset := token.NewFileSet()
	var pkgs []*Package
	home := moduleDir(dir)
	for _, modDir := range modDirs {
		listed, err := goList(modDir, byMod[modDir])
		if err != nil {
			return nil, err
		}
		tree, err := moduleTree(modDir)
		if err != nil {
			return nil, err
		}
		imp := newExportDataImporter(modDir, fset)
		for _, lp := range listed {
			if len(lp.GoFiles) == 0 {
				continue
			}
			pkg, err := checkPackage(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
			if err != nil {
				return nil, err
			}
			pkg.ModuleTree = tree
			pkg.Nested = modDir != home
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// moduleDir returns the nearest directory at or above the absolute path dir
// holding a go.mod, or dir itself when there is none (the go command then
// reports the error).
func moduleDir(dir string) string {
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if filepath.Dir(d) == d {
			return dir
		}
	}
}

// moduleTree lists the packages with non-test Go files of the module rooted
// at modDir and of every module nested below it. Directories the go command
// ignores (testdata, and names starting with "." or "_") are not searched.
func moduleTree(modDir string) ([]string, error) {
	var tree []string
	err := filepath.WalkDir(modDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != modDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err != nil {
			return nil
		}
		cmd := exec.Command("go", "list", "-f", "{{if .GoFiles}}{{.ImportPath}}{{end}}", "./...")
		cmd.Dir = path
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("lint: go list ./... in %s: %v\n%s", path, err, stderr.String())
		}
		tree = append(tree, strings.Fields(stdout.String())...)
		return nil
	})
	return tree, err
}

// goList runs `go list -json` and decodes the JSON stream.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	return decodeGoList(&stdout)
}

// decodeGoList decodes the concatenated-JSON-objects stream `go list -json`
// emits (one object per package, no array wrapper). Split out of goList so
// malformed-output handling is testable without a go toolchain subprocess.
func decodeGoList(r io.Reader) ([]listedPackage, error) {
	dec := json.NewDecoder(r)
	var out []listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// CheckDir parses and typechecks a fixture tree: the directory dir as the
// package pkgPath and each subdirectory holding Go files as pkgPath/<rel>.
// It is the entry point the fixture test harness uses: fixture directories
// live under testdata (invisible to the go tool) and are checked under a
// caller-chosen path so path-scoped analyzers can be exercised. Imports
// among the tree's packages resolve to their source-checked packages, all
// others through export data, and the tree counts as one whole module
// (each package's ModuleTree lists them all). Packages are returned sorted
// by import path.
func CheckDir(dir, pkgPath string) ([]*Package, error) {
	dirs := map[string]string{}    // import path -> directory
	files := map[string][]string{} // import path -> file names
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel, err := filepath.Rel(dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		ip := pkgPath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		dirs[ip] = filepath.Dir(path)
		files[ip] = append(files[ip], d.Name())
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	tree := make([]string, 0, len(dirs))
	for ip := range dirs {
		tree = append(tree, ip)
	}
	sort.Strings(tree)

	fset := token.NewFileSet()
	imp := &treeImporter{fallback: newExportDataImporter(dir, fset), checked: map[string]*types.Package{}}
	byPath := map[string]*Package{}
	var check func(ip string) error
	check = func(ip string) error {
		if _, ok := byPath[ip]; ok {
			return nil
		}
		byPath[ip] = nil // cycle guard; the go tool rejects cycles anyway
		for _, name := range files[ip] {
			f, err := parser.ParseFile(fset, filepath.Join(dirs[ip], name), nil, parser.ImportsOnly)
			if err != nil {
				return fmt.Errorf("lint: parsing %s: %v", filepath.Join(dirs[ip], name), err)
			}
			for _, spec := range f.Imports {
				if dep := strings.Trim(spec.Path.Value, "`\""); dirs[dep] != "" {
					if err := check(dep); err != nil {
						return err
					}
				}
			}
		}
		pkg, err := checkPackage(fset, imp, ip, dirs[ip], files[ip])
		if err != nil {
			return err
		}
		pkg.ModuleTree = tree
		imp.checked[ip] = pkg.Types
		byPath[ip] = pkg
		return nil
	}
	pkgs := make([]*Package, 0, len(tree))
	for _, ip := range tree {
		if err := check(ip); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, byPath[ip])
	}
	return pkgs, nil
}

// treeImporter resolves a fixture tree's own packages to their
// source-checked types and everything else through export data.
type treeImporter struct {
	fallback types.Importer
	checked  map[string]*types.Package
}

func (t *treeImporter) Import(path string) (*types.Package, error) {
	if p := t.checked[path]; p != nil {
		return p, nil
	}
	return t.fallback.Import(path)
}

// checkPackage parses and typechecks one package's files.
func checkPackage(fset *token.FileSet, imp types.Importer, pkgPath, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %v", filepath.Join(dir, name), err)
		}
		files = append(files, f)
	}
	pkg := &Package{
		Path:  pkgPath,
		Dir:   dir,
		Fset:  fset,
		Files: files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(pkgPath, fset, files, pkg.Info)
	pkg.Types = tpkg
	if pkg.Name = tpkg.Name(); pkg.Name == "" && len(files) > 0 {
		pkg.Name = files[0].Name.Name
	}
	return pkg, nil
}

// exportDataImporter resolves imports from the compiler's export data,
// located by asking the go command (`go list -export`). The go build cache
// already holds export data for everything the module builds, so resolution
// is fast and needs no network. Results are cached per import path.
type exportDataImporter struct {
	dir string
	gc  types.ImporterFrom

	mu      sync.Mutex
	exports map[string]string // import path -> export data file
}

func newExportDataImporter(dir string, fset *token.FileSet) types.Importer {
	imp := &exportDataImporter{dir: dir, exports: map[string]string{}}
	imp.gc = importer.ForCompiler(fset, "gc", imp.lookup).(types.ImporterFrom)
	return imp
}

func (imp *exportDataImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return imp.gc.ImportFrom(path, imp.dir, 0)
}

// lookup opens the export data for one import path, resolving it through the
// go command on first use.
func (imp *exportDataImporter) lookup(path string) (io.ReadCloser, error) {
	imp.mu.Lock()
	file, ok := imp.exports[path]
	imp.mu.Unlock()
	if !ok {
		cmd := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path)
		cmd.Dir = imp.dir
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("lint: locating export data for %q: %v\n%s", path, err, stderr.String())
		}
		file = strings.TrimSpace(stdout.String())
		if file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		imp.mu.Lock()
		imp.exports[path] = file
		imp.mu.Unlock()
	}
	return os.Open(file)
}
