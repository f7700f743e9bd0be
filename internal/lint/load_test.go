package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Internal tests for the loader's failure modes: malformed `go list` output,
// unparsable and untypeable fixture directories, and the package-skipping
// rules (test-only, vendored, and underscore-prefixed directories must never
// reach the analyzers).

func TestDecodeGoList(t *testing.T) {
	// go list -json emits concatenated objects, not an array.
	stream := `{"Dir": "/a", "ImportPath": "m/a", "Name": "a", "GoFiles": ["a.go"]}
{"Dir": "/b", "ImportPath": "m/b", "Name": "b"}`
	pkgs, err := decodeGoList(strings.NewReader(stream))
	if err != nil {
		t.Fatalf("decodeGoList: %v", err)
	}
	if len(pkgs) != 2 || pkgs[0].ImportPath != "m/a" || pkgs[1].ImportPath != "m/b" {
		t.Fatalf("bad decode: %+v", pkgs)
	}
	if len(pkgs[0].GoFiles) != 1 || pkgs[0].GoFiles[0] != "a.go" {
		t.Errorf("GoFiles not decoded: %+v", pkgs[0])
	}
}

func TestDecodeGoListMalformed(t *testing.T) {
	cases := []string{
		`{"Dir": "/a"` + "\n",    // truncated object
		`{"Dir": "/a"} not-json`, // trailing garbage
		`[{"Dir": "/a"}]`,        // array wrapper (not the go list format)
	}
	for _, stream := range cases {
		if _, err := decodeGoList(strings.NewReader(stream)); err == nil {
			t.Errorf("decodeGoList(%q) succeeded, want error", stream)
		} else if !strings.Contains(err.Error(), "decoding go list output") {
			t.Errorf("decodeGoList(%q) error lacks context: %v", stream, err)
		}
	}
}

func TestDecodeGoListEmpty(t *testing.T) {
	pkgs, err := decodeGoList(strings.NewReader(""))
	if err != nil || len(pkgs) != 0 {
		t.Fatalf("empty stream: pkgs=%v err=%v", pkgs, err)
	}
}

func TestLoadBadPattern(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpload\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, "./nosuchdir"); err == nil {
		t.Fatal("Load with a bad pattern succeeded, want error")
	} else if !strings.Contains(err.Error(), "go list") {
		t.Errorf("error lacks go list context: %v", err)
	}
}

// TestLoadSkipsNonSourcePackages lays out a module where only one directory
// holds buildable production code: a test-only package, a vendored tree, and
// an underscore-prefixed directory (with a deliberately unparsable file, to
// prove it is never opened) must all be excluded.
func TestLoadSkipsNonSourcePackages(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":              "module tmpload\n\ngo 1.22\n",
		"real/real.go":        "package real\n\nfunc Real() int { return 1 }\n",
		"onlytest/x_test.go":  "package onlytest\n\nimport \"testing\"\n\nfunc TestX(t *testing.T) {}\n",
		"vendor/dep/dep.go":   "package dep\n\nfunc Dep() {}\n",
		"_skipped/broken.go":  "package this is not Go at all {{{\n",
		"testdata/fixture.go": "package also not parseable ((\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "tmpload/real" {
		paths := make([]string, 0, len(pkgs))
		for _, p := range pkgs {
			paths = append(paths, p.Path)
		}
		t.Fatalf("Load returned %v, want exactly [tmpload/real]", paths)
	}
	if len(pkgs[0].TypeErrors) != 0 {
		t.Errorf("unexpected type errors: %v", pkgs[0].TypeErrors)
	}
}

func TestCheckDirMissing(t *testing.T) {
	if _, err := CheckDir(filepath.Join(t.TempDir(), "nope"), "x/y"); err == nil {
		t.Fatal("CheckDir on a missing directory succeeded, want error")
	}
}

func TestCheckDirNoGoFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte("not go"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CheckDir(dir, "x/y"); err == nil {
		t.Fatal("CheckDir with no Go files succeeded, want error")
	} else if !strings.Contains(err.Error(), "no Go files") {
		t.Errorf("error lacks context: %v", err)
	}
}

func TestCheckDirParseError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte("package x\n\nfunc {broken\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CheckDir(dir, "x/y"); err == nil {
		t.Fatal("CheckDir on an unparsable file succeeded, want error")
	} else if !strings.Contains(err.Error(), "parsing") {
		t.Errorf("error lacks context: %v", err)
	}
}

// TestCheckDirMissingImportIsSoft pins the soft-error contract: a fixture
// importing a package with no resolvable export data still typechecks (the
// analyzers run on the partial package), with the failure surfaced through
// TypeErrors rather than an error return.
func TestCheckDirMissingImportIsSoft(t *testing.T) {
	dir := t.TempDir()
	src := "package x\n\nimport \"no/such/pkg\"\n\nvar _ = pkg.Thing\n"
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := CheckDir(dir, "x/y")
	if err != nil {
		t.Fatalf("CheckDir returned a hard error for a missing import: %v", err)
	}
	pkg := pkgs[0]
	if len(pkg.TypeErrors) == 0 {
		t.Error("missing export data produced no TypeErrors")
	}
	if len(pkg.Files) != 1 {
		t.Errorf("partial package lost its files: %d", len(pkg.Files))
	}
}
