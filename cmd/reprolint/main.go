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
//	reprolint [-pass name] [-json] [-baseline file] [-write-baseline file] [packages...]
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
// A baseline file (-baseline) holds previously accepted finding lines,
// one per line in the text format above; findings that match are
// counted but neither printed nor failing, so CI gates on regressions
// without blocking the tree. -write-baseline regenerates the file from
// the current findings. Advisory (info-severity) findings are printed
// but never fail the run and never enter the baseline.
//
// Exit status: 0 clean (or findings all baselined/advisory), 1 new
// error- or warn-severity findings, 2 operational error (parse or
// type-check failure).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	var opts options
	flag.StringVar(&opts.passFilter, "pass", "", "run only this pass (one of: "+strings.Join(lint.PassNames(), ", ")+")")
	flag.BoolVar(&opts.quiet, "q", false, "suppress the summary line")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit findings as a JSON array instead of text lines")
	flag.StringVar(&opts.baseline, "baseline", "", "module-relative baseline file; matching findings do not print or fail")
	flag.BoolVar(&opts.checkBaseline, "check-baseline", false, "with -baseline, also fail on stale entries that no longer fire, so the baseline can only shrink")
	flag.StringVar(&opts.writeBaseline, "write-baseline", "", "regenerate this module-relative baseline file from current findings and exit")
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
	passFilter    string
	quiet         bool
	jsonOut       bool
	baseline      string
	checkBaseline bool
	writeBaseline string
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
// run: failing severity (error or warn) and not covered by the
// baseline.
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
	kept := findings[:0]
	for _, f := range findings {
		if (opts.passFilter == "" || f.Pass == opts.passFilter) && slices.Contains(dirs, filepath.Dir(f.Pos.Filename)) {
			kept = append(kept, f)
		}
	}
	findings = kept

	lines := make([]string, len(findings))
	for i, f := range findings {
		lines[i] = textLine(root, f)
	}

	if opts.writeBaseline != "" {
		path := filepath.Join(root, opts.writeBaseline)
		if err := writeBaselineFile(path, findings, lines); err != nil {
			return 0, err
		}
		n := 0
		for _, f := range findings {
			if f.Severity.Fails() {
				n++
			}
		}
		if !opts.quiet {
			fmt.Fprintf(stderr, "reprolint: wrote %d finding(s) to %s\n", n, opts.writeBaseline)
		}
		return 0, nil
	}

	baseline := make(map[string]bool)
	if opts.baseline != "" {
		baseline, err = readBaselineFile(filepath.Join(root, opts.baseline))
		if err != nil {
			return 0, err
		}
	}

	failing, baselined, advisory := 0, 0, 0
	matched := make(map[string]bool)
	var out []lint.Finding
	for i, f := range findings {
		if f.Severity.Fails() && baseline[lines[i]] {
			baselined++
			matched[lines[i]] = true
			continue
		}
		out = append(out, f)
		if f.Severity.Fails() {
			failing++
		} else {
			advisory++
		}
	}

	// Burn-down enforcement: a baseline entry whose finding no longer
	// fires is stale — the fix landed, so the entry must be removed
	// (regenerate with -write-baseline). This makes the baseline
	// monotonically shrinking: new findings fail above, stale ones fail
	// here.
	stale := 0
	if opts.checkBaseline {
		var gone []string
		for line := range baseline {
			if !matched[line] {
				gone = append(gone, line)
			}
		}
		sort.Strings(gone)
		for _, line := range gone {
			fmt.Fprintf(stdout, "stale baseline entry (finding fixed, regenerate the baseline): %s\n", line)
		}
		stale = len(gone)
		failing += stale
	}

	if opts.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		js := make([]jsonFinding, len(out))
		for i, f := range out {
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
		for _, f := range out {
			fmt.Fprintln(stdout, textLine(root, f))
		}
	}
	if !opts.quiet {
		if opts.checkBaseline {
			fmt.Fprintf(stderr, "reprolint: %d failing (%d stale baseline), %d advisory, %d baselined finding(s) in %d package(s)\n",
				failing, stale, advisory, baselined, len(dirs))
		} else {
			fmt.Fprintf(stderr, "reprolint: %d failing, %d advisory, %d baselined finding(s) in %d package(s)\n",
				failing, advisory, baselined, len(dirs))
		}
	}
	return failing, nil
}

// textLine renders one finding in the canonical (and baseline) text
// format.
func textLine(root string, f lint.Finding) string {
	return fmt.Sprintf("%s:%d:%d: %s: %s: %s",
		relPath(root, f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Severity, f.Pass, f.Msg)
}

// relPath renders filename module-relative with forward slashes, so
// baseline files are portable across checkouts.
func relPath(root, filename string) string {
	rel, err := filepath.Rel(root, filename)
	if err != nil {
		rel = filename
	}
	return filepath.ToSlash(rel)
}

// readBaselineFile loads the accepted finding lines. Blank lines and
// #-comments are ignored.
func readBaselineFile(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		set[line] = true
	}
	return set, sc.Err()
}

// writeBaselineFile records the failing findings, sorted, with a header
// explaining the workflow. Advisory findings stay out: they never fail,
// so baselining them would only hide the suggestion.
func writeBaselineFile(path string, findings []lint.Finding, lines []string) error {
	var keep []string
	for i, f := range findings {
		if f.Severity.Fails() {
			keep = append(keep, lines[i])
		}
	}
	sort.Strings(keep)
	var b strings.Builder
	b.WriteString("# reprolint baseline: accepted findings, one per line in reprolint text format.\n")
	b.WriteString("# CI runs `reprolint -baseline LINT.baseline` and fails only on findings not\n")
	b.WriteString("# listed here. Regenerate with `reprolint -write-baseline LINT.baseline` after\n")
	b.WriteString("# fixing entries; new code should stay clean rather than growing this file.\n")
	for _, line := range keep {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
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
