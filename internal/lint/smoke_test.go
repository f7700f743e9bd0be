package lint_test

import (
	"os/exec"
	"strings"
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

// TestRepoLintClean runs the full analyzer suite over the real repository
// through the library API: the tree must stay free of diagnostics and type
// errors. This is the backstop that makes the analyzers' invariants stick —
// a PR reintroducing a wall-clock read or a shared RNG stream fails here
// (and in make lint) rather than in a flaky determinism test.
func TestRepoLintClean(t *testing.T) {
	root := moduleRoot(t)
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading repo packages: %v", err)
	}
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
	root := moduleRoot(t)
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading repo packages: %v", err)
	}
	prog := lint.NewProgram(pkgs)
	hot := map[string]bool{}
	for _, fi := range prog.HotEntries() {
		hot[fi.Key] = true
	}
	// The kernel path exercised by TestAuditPairKernelZeroAlloc.
	for _, key := range []string{
		"lcsf/internal/core.(auditRunner).auditPair",
		"lcsf/internal/core.(auditRunner).fastAuditPair",
		"lcsf/internal/core.(auditRunner).pairPValue",
		"lcsf/internal/core.(auditRunner).summaryReject",
		"lcsf/internal/stats.(NullStore).PValue",
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
	cmd := exec.Command("go", "run", "./cmd/lcsf-lint", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("lcsf-lint ./... failed: %v\n%s", err, out)
	}
	if got := strings.TrimSpace(string(out)); got != "" {
		t.Errorf("expected no output from a clean tree, got:\n%s", got)
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
