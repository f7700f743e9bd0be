// Command lcsf-lint is the project's static-analysis multichecker. It runs
// the internal/lint analyzer suite — determinism, RNG discipline, float
// safety, nil-safe observability, unchecked errors, hot-path allocation,
// seed provenance, lock discipline, cancellation polling, and dead internal
// exports — over the packages matching its arguments (default ./...). A
// pattern naming a nested module, such as ./perfbench/..., loads that
// module read-only as a caller of this one's internal packages: deadexport
// reports only when the run covers every package that may import them.
//
// Usage:
//
//	lcsf-lint [-checks list] [-list] [-json] [packages...]
//
// Exit status is 0 when the tree is clean, 1 when any diagnostic (or type
// error) is found, and 2 on operational failure. Diagnostics print as
// file:line:col: [analyzer] message, sorted by position, so output is stable
// and diffable in CI; -json emits the same findings as a JSON array of
// {file, line, col, analyzer, message} objects for machine consumers
// (GitHub annotations, editors).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lcsf/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the machine-readable rendering of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lcsf-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array of {file,line,col,analyzer,message}")
	dir := fs.String("C", ".", "directory to run the go tool from (module root)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *checks != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*checks, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "lcsf-lint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "lcsf-lint: %v\n", err)
		return 2
	}

	failed := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			failed = true
			fmt.Fprintf(stderr, "%v\n", terr)
		}
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "lcsf-lint: %v\n", err)
		return 2
	}
	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Check,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "lcsf-lint: encoding diagnostics: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 || failed {
		return 1
	}
	return 0
}
