package lint_test

import (
	"strings"
	"testing"

	"lcsf/internal/lint"
	"lcsf/internal/lint/linttest"
)

// Each analyzer gets one fixture package with positive cases (// want
// comments that must be matched by a diagnostic) and negative cases (clean
// patterns that must stay silent). The fixture's import path places it
// inside the analyzer's scope where scoping applies.

func TestNoDeterminism(t *testing.T) {
	linttest.Run(t, lint.NoDeterminism, "testdata/src/nodeterminism", "lcsf/internal/core/fixture")
}

// TestNoDeterminismCoversVerify rechecks the same fixtures under an
// internal/verify import path: the verification subsystem's scenario
// generators are determinism-critical (its oracles assert bit-identical
// flagged sets), so the analyzer must fire there too.
func TestNoDeterminismCoversVerify(t *testing.T) {
	linttest.Run(t, lint.NoDeterminism, "testdata/src/nodeterminism", "lcsf/internal/verify/fixture")
}

// TestNoDeterminismCoversPartition rechecks the same fixtures under an
// internal/partition import path: the delta layer's canonical sampling and
// dirty-set bookkeeping carry the delta-equals-batch byte-identity contract,
// so the analyzer must fire there too.
func TestNoDeterminismCoversPartition(t *testing.T) {
	linttest.Run(t, lint.NoDeterminism, "testdata/src/nodeterminism", "lcsf/internal/partition/fixture")
}

func TestRNGDiscipline(t *testing.T) {
	linttest.Run(t, lint.RNGDiscipline, "testdata/src/rngdiscipline", "lcsf/lintfixture/rngdiscipline")
}

func TestFloatEq(t *testing.T) {
	linttest.Run(t, lint.FloatEq, "testdata/src/floateq", "lcsf/lintfixture/floateq")
}

func TestNilSafeObs(t *testing.T) {
	linttest.Run(t, lint.NilSafeObs, "testdata/src/nilsafeobs", "lcsf/internal/obs/fixture")
}

func TestErrCheck(t *testing.T) {
	linttest.Run(t, lint.ErrCheck, "testdata/src/errcheck", "lcsf/lintfixture/errcheck")
}

func TestHotPathAlloc(t *testing.T) {
	linttest.Run(t, lint.HotPathAlloc, "testdata/src/hotpathalloc", "lcsf/lintfixture/hotpathalloc")
}

func TestSeedTaint(t *testing.T) {
	linttest.Run(t, lint.SeedTaint, "testdata/src/seedtaint", "lcsf/lintfixture/seedtaint")
}

func TestLockSafe(t *testing.T) {
	linttest.Run(t, lint.LockSafe, "testdata/src/locksafe", "lcsf/lintfixture/locksafe")
}

// TestCtxPoll runs the ctxpoll fixture under an internal/core import path —
// the analyzer is scoped to the audit engine, where data-dependent loops
// track region/pair counts.
func TestCtxPoll(t *testing.T) {
	linttest.Run(t, lint.CtxPoll, "testdata/src/ctxpoll", "lcsf/internal/core/fixture")
}

// TestDeadExport runs deadexport over a fixture module: an internal package
// whose exports are used by tests only, by the module's binary, through the
// root package's alias, through fmt.Stringer, or not at all, plus a
// test-support package.
func TestDeadExport(t *testing.T) {
	linttest.Run(t, lint.DeadExport, "testdata/src/deadexport", "lcsf/lintfixture/deadexport")
}

// TestDeadExportSilentOnPartialRun drops the fixture's binary from the run:
// a run that misses part of the module cannot see every caller, so
// deadexport must report nothing at all — not even the exports no package
// uses — while the whole fixture does produce findings.
func TestDeadExportSilentOnPartialRun(t *testing.T) {
	pkgs, err := lint.CheckDir("testdata/src/deadexport", "lcsf/lintfixture/deadexport")
	if err != nil {
		t.Fatal(err)
	}
	whole, err := lint.Run(pkgs, []*lint.Analyzer{lint.DeadExport})
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) == 0 {
		t.Fatal("the whole fixture produced no findings; the partial-run check is vacuous")
	}
	var partial []*lint.Package
	for _, pkg := range pkgs {
		if !strings.HasSuffix(pkg.Path, "/cmd/tool") {
			partial = append(partial, pkg)
		}
	}
	if len(partial) != len(pkgs)-1 {
		t.Fatalf("fixture has no cmd/tool package among %d", len(pkgs))
	}
	diags, err := lint.Run(partial, []*lint.Analyzer{lint.DeadExport})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("deadexport reported on a partial run: %s", d)
	}
}

// TestScopedAnalyzersIgnoreOutOfScopePackages rechecks the nodeterminism and
// nilsafeobs fixtures under neutral import paths: every violation in them
// must go unreported, because path scoping is what keeps the hot-path rules
// from harassing examples and cmd binaries.
func TestScopedAnalyzersIgnoreOutOfScopePackages(t *testing.T) {
	cases := []struct {
		analyzer *lint.Analyzer
		dir      string
	}{
		{lint.NoDeterminism, "testdata/src/nodeterminism"},
		{lint.NilSafeObs, "testdata/src/nilsafeobs"},
		{lint.CtxPoll, "testdata/src/ctxpoll"},
	}
	for _, tc := range cases {
		pkgs, err := lint.CheckDir(tc.dir, "lcsf/examples/fixture")
		if err != nil {
			t.Fatalf("loading %s: %v", tc.dir, err)
		}
		diags, err := lint.Run(pkgs, []*lint.Analyzer{tc.analyzer})
		if err != nil {
			t.Fatalf("running %s: %v", tc.analyzer.Name, err)
		}
		for _, d := range diags {
			t.Errorf("%s fired out of scope: %s", tc.analyzer.Name, d)
		}
	}
}

// TestAllAnalyzersRegistered pins the multichecker suite so a new analyzer
// cannot be added without joining All() (and therefore make lint and CI).
func TestAllAnalyzersRegistered(t *testing.T) {
	want := []string{
		"nodeterminism", "rngdiscipline", "floateq", "nilsafeobs", "errcheck",
		"hotpathalloc", "seedtaint", "locksafe", "ctxpoll", "deadexport",
	}
	all := lint.All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing Doc or Run", a.Name)
		}
	}
}
