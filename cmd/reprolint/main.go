// Command reprolint runs the repository's static-analysis passes (see
// internal/lint) over the module as one unit: the package-local
// invariant passes (determinism, looporder, entropy, errcheck,
// confighygiene, atomicsafety, branchless) plus the module passes:
// hotpath, which follows the static call graph from
// //reprolint:hotpath root annotations, and deprecated and testonly,
// which resolve references across the module, test files included.
//
// Usage:
//
//	reprolint [-pass name] [-q] [-json] [packages...]
//
// Package patterns are module-relative directories or `...` globs; the
// default is ./... from the module root. The whole module is analyzed
// whatever the patterns, so that the module passes see every caller,
// and findings are reported for the matching packages. Findings print in a stable
// total order (file, line, column, pass) as
//
//	path:line:col: severity: pass: message
//
// or, with -json, as a JSON array of finding objects.
//
// A finding is accepted only where it is raised, by a
// //reprolint:allow <pass> <reason> comment on the flagged line.
// Advisory (info-severity) findings are printed but never fail the run.
//
// Exit status: 0 clean (or findings all advisory), 1 error- or
// warn-severity findings, 2 operational error (parse or type-check
// failure).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/lint"
)

func main() {
	var opts options
	flag.StringVar(&opts.passFilter, "pass", "", "run only this pass (one of: "+strings.Join(lint.PassNames(), ", ")+")")
	flag.BoolVar(&opts.quiet, "q", false, "suppress the summary line")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit findings as a JSON array instead of text lines")
	flag.Parse()
	if opts.passFilter != "" && !knownPass(opts.passFilter) {
		fmt.Fprintf(os.Stderr, "reprolint: unknown pass %q (want one of: %s)\n",
			opts.passFilter, strings.Join(lint.PassNames(), ", "))
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprolint:", err)
		os.Exit(2)
	}
	failing, err := run(root, patterns, opts, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprolint:", err)
		os.Exit(2)
	}
	if failing > 0 {
		os.Exit(1)
	}
}

// options carries the CLI flags into run, keeping run testable.
type options struct {
	passFilter string
	quiet      bool
	jsonOut    bool
}

// jsonFinding is the -json wire format for one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Severity string `json:"severity"`
	Pass     string `json:"pass"`
	Msg      string `json:"msg"`
}

// run lints the packages matching patterns under root and reports to
// stdout/stderr. It returns the number of findings that should fail the
// run: those of failing severity (error or warn).
func run(root string, patterns []string, opts options, stdout, stderr io.Writer) (int, error) {
	loader, err := lint.NewLoader(root)
	if err != nil {
		return 0, err
	}
	dirs, err := loader.PackageDirs(patterns)
	if err != nil {
		return 0, err
	}
	all, err := loader.PackageDirs(append([]string{"./..."}, patterns...))
	if err != nil {
		return 0, err
	}
	var pkgs []*lint.Package
	for _, dir := range all {
		pkg, err := loader.Load(dir)
		if err != nil {
			return 0, err
		}
		pkgs = append(pkgs, pkg)
	}
	findings := lint.NewModule(pkgs).Findings()
	kept, failing := findings[:0], 0
	for _, f := range findings {
		if (opts.passFilter == "" || f.Pass == opts.passFilter) && slices.Contains(dirs, filepath.Dir(f.Pos.Filename)) {
			kept = append(kept, f)
			if f.Severity.Fails() {
				failing++
			}
		}
	}
	findings = kept

	if opts.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		js := make([]jsonFinding, len(findings))
		for i, f := range findings {
			js[i] = jsonFinding{
				File:     relPath(root, f.Pos.Filename),
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Severity: string(f.Severity),
				Pass:     f.Pass,
				Msg:      f.Msg,
			}
		}
		if err := enc.Encode(js); err != nil {
			return 0, err
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, textLine(root, f))
		}
	}
	if !opts.quiet {
		fmt.Fprintf(stderr, "reprolint: %d failing, %d advisory finding(s) in %d package(s)\n",
			failing, len(findings)-failing, len(dirs))
	}
	return failing, nil
}

// textLine renders one finding in the canonical text format.
func textLine(root string, f lint.Finding) string {
	return fmt.Sprintf("%s:%d:%d: %s: %s: %s",
		relPath(root, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Severity, f.Pass, f.Msg)
}

// relPath renders filename module-relative with forward slashes, so
// output is the same in every checkout.
func relPath(root, filename string) string {
	rel, err := filepath.Rel(root, filename)
	if err != nil {
		rel = filename
	}
	return filepath.ToSlash(rel)
}

func knownPass(name string) bool {
	for _, p := range lint.PassNames() {
		if p == name {
			return true
		}
	}
	return false
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
