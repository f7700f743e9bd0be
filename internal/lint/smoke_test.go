package lint_test

import (
	"os/exec"
	"strings"
	"sync"
	"testing"

	"lcsf/internal/lint"
)

// moduleRoot asks the go command for the module directory so the smoke tests
// work from any package working directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("resolving module root: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// repoPatterns are the patterns make lint passes: the module plus the
// perfbench module nested in it, loaded read-only as callers so deadexport
// sees every package that may import the internal packages.
var repoPatterns = []string{"./...", "./perfbench/..."}

var (
	repoOnce sync.Once
	repoPkgs []*lint.Package
	repoErr  error
)

// repoPackages loads repoPatterns once for every test in this file; tests
// must not modify the shared packages.
func repoPackages(t *testing.T) []*lint.Package {
	t.Helper()
	root := moduleRoot(t)
	repoOnce.Do(func() { repoPkgs, repoErr = lint.Load(root, repoPatterns...) })
	if repoErr != nil {
		t.Fatalf("loading repo packages: %v", repoErr)
	}
	return repoPkgs
}

// TestRepoLintClean runs the full analyzer suite over the real repository
// through the library API: the tree must stay free of diagnostics and type
// errors. This is the backstop that makes the analyzers' invariants stick —
// a PR reintroducing a wall-clock read or a shared RNG stream fails here
// (and in make lint) rather than in a flaky determinism test.
func TestRepoLintClean(t *testing.T) {
	pkgs := repoPackages(t)
	if len(pkgs) == 0 {
		t.Fatal("loaded zero packages")
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("type error in %s: %v", pkg.Path, terr)
		}
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestHotPathAllocAgreesWithZeroAllocTest cross-validates the static
// zero-alloc contract against the runtime one: the kernel entry points that
// TestAuditPairKernelZeroAlloc measures with testing.AllocsPerRun must be
// annotated //lint:hotpath (so hotpathalloc walks them), and the analyzer
// must agree with the measurement — zero findings anywhere in their
// reachable call trees.
func TestHotPathAllocAgreesWithZeroAllocTest(t *testing.T) {
	pkgs := repoPackages(t)
	prog := lint.NewProgram(pkgs)
	hot := map[string]bool{}
	for _, fi := range prog.HotEntries() {
		hot[fi.Key] = true
	}
	// The kernel path exercised by TestAuditPairKernelZeroAlloc.
	for _, key := range []string{
		"lcsf/internal/core.(auditRunner).auditPair",
		"lcsf/internal/stats.CrossCount",
		"lcsf/internal/core.(auditRunner).summaryReject",
		"lcsf/internal/stats.(NullStore).PairTest",
		"lcsf/internal/stats.CrossBoundsCoarse",
		"lcsf/internal/obs.(ShardedCounter).Add",
	} {
		if !hot[key] {
			t.Errorf("kernel function %s is not annotated //lint:hotpath; the static and runtime zero-alloc contracts have diverged", key)
		}
	}
	diags, err := lint.Run(pkgs, []*lint.Analyzer{lint.HotPathAlloc})
	if err != nil {
		t.Fatalf("running hotpathalloc: %v", err)
	}
	for _, d := range diags {
		t.Errorf("hotpathalloc disagrees with TestAuditPairKernelZeroAlloc: %s", d)
	}
}

// TestMulticheckerBinaryCleanOnRepo exercises the actual cmd/lcsf-lint
// binary end to end (flag parsing, loading, reporting, exit status) against
// the repository.
func TestMulticheckerBinaryCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("building the multichecker binary is not short")
	}
	root := moduleRoot(t)
	cmd := exec.Command("go", append([]string{"run", "./cmd/lcsf-lint"}, repoPatterns...)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("lcsf-lint %s failed: %v\n%s", strings.Join(repoPatterns, " "), err, out)
	}
	if got := strings.TrimSpace(string(out)); got != "" {
		t.Errorf("expected no output from a clean tree, got:\n%s", got)
	}
}

// TestDeadExportSeesPerfbenchCallers pins perfbench as a caller of the
// main module's internal packages: core.AuditShard has no caller in the
// main module, so deadexport keeps it only through perfbench's files. With
// those files withheld (the package still loaded, so the run stays whole)
// it must be reported.
func TestDeadExportSeesPerfbenchCallers(t *testing.T) {
	pkgs := repoPackages(t)
	const key = "func AuditShard is used by no non-test file"
	find := func(pkgs []*lint.Package) bool {
		diags, err := lint.Run(pkgs, []*lint.Analyzer{lint.DeadExport})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			if strings.Contains(d.Message, key) {
				return true
			}
		}
		return false
	}
	if find(pkgs) {
		t.Fatal("deadexport flagged core.AuditShard although perfbench calls it")
	}
	withheld := make([]*lint.Package, len(pkgs))
	found := false
	for i, pkg := range pkgs {
		withheld[i] = pkg
		if pkg.Path == "lcsf/perfbench" {
			cp := *pkg
			cp.Files = nil
			withheld[i] = &cp
			found = true
		}
	}
	if !found {
		t.Fatal("perfbench was not loaded")
	}
	if !find(withheld) {
		t.Error("with perfbench's files withheld, deadexport did not flag core.AuditShard; the test no longer shows perfbench is what keeps it")
	}
}

// TestMulticheckerListsAnalyzers checks the -list mode names every analyzer.
func TestMulticheckerListsAnalyzers(t *testing.T) {
	if testing.Short() {
		t.Skip("building the multichecker binary is not short")
	}
	root := moduleRoot(t)
	cmd := exec.Command("go", "run", "./cmd/lcsf-lint", "-list")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("lcsf-lint -list failed: %v\n%s", err, out)
	}
	for _, a := range lint.All() {
		if !strings.Contains(string(out), a.Name) {
			t.Errorf("-list output missing analyzer %s:\n%s", a.Name, out)
		}
	}
}
