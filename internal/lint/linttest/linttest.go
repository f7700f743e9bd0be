// Package linttest is the project's analysistest analogue: it runs one
// analyzer over a fixture directory and checks the diagnostics against
// expectations written in the fixture source as trailing comments:
//
//	rand.Seed(1) // want `global math/rand`
//
// The backquoted string is an anchored-nowhere regular expression that must
// match a diagnostic reported on that line; every diagnostic must be matched
// by a want and every want must match a diagnostic, or the test fails with
// one line per discrepancy. A want comment may carry several patterns
// (space-separated, each in its own backquotes) for lines that produce
// several diagnostics, e.g. a tuple assignment appending to two slices.
//
// A trailing "// want:none" marks a line that looks like a violation but must
// stay silent — a negative case made load-bearing. Any unmatched diagnostic
// already fails the test; want:none upgrades the failure to name the clean
// pattern being protected, and documents in the fixture itself that the
// silence is deliberate rather than an oversight.
package linttest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"lcsf/internal/lint"
)

// wantRE locates a "// want" comment; wantPatternRE then extracts each
// backquoted or double-quoted pattern from its remainder.
var (
	wantRE        = regexp.MustCompile("//\\s*want\\s+((`[^`]*`|\"[^\"]*\")(\\s+(`[^`]*`|\"[^\"]*\"))*)")
	wantPatternRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")
	wantNoneRE    = regexp.MustCompile(`//\s*want:none\b`)
)

// Run typechecks the fixture tree dir under the import path pkgPath (see
// lint.CheckDir) and applies the analyzer, comparing diagnostics to // want
// comments in every package of the tree. pkgPath matters: path-scoped
// analyzers (nodeterminism, nilsafeobs) only fire when it lands in their
// scope.
func Run(t *testing.T, a *lint.Analyzer, dir, pkgPath string) {
	t.Helper()
	pkgs, err := lint.CheckDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture %s has type errors: %v", dir, terr)
		}
	}
	diags, err := lint.Run(pkgs, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}

	type want struct {
		file    string
		line    int
		pattern *regexp.Regexp
		matched bool
	}
	var wants []*want
	type noneKey struct {
		file string
		line int
	}
	nones := map[noneKey]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					if wantNoneRE.MatchString(c.Text) {
						pos := pkg.Fset.Position(c.Pos())
						nones[noneKey{pos.Filename, pos.Line}] = true
						continue
					}
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					for _, pm := range wantPatternRE.FindAllStringSubmatch(m[1], -1) {
						pattern := pm[1]
						if pattern == "" {
							pattern = pm[2]
						}
						re, err := regexp.Compile(pattern)
						if err != nil {
							t.Fatalf("bad want pattern %q: %v", pattern, err)
						}
						pos := pkg.Fset.Position(c.Pos())
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		if nones[noneKey{d.Pos.Filename, d.Pos.Line}] {
			t.Errorf("diagnostic on a // want:none line (this pattern must stay clean):\n  %s", d)
			continue
		}
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("no diagnostic at %s matching %q", fmt.Sprintf("%s:%d", shortPath(w.file), w.line), w.pattern)
		}
	}
}

func shortPath(p string) string {
	if i := strings.LastIndex(p, "testdata/"); i >= 0 {
		return p[i:]
	}
	return p
}
