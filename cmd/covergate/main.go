// Command covergate enforces the repository's test-coverage floor. It
// parses a Go coverprofile, computes statement coverage per package and
// in total, and compares the total against a committed baseline:
//
//	go run ./cmd/covergate -gen ./... -baseline COVERAGE.baseline
//
// -gen runs `go test -coverprofile` itself, writing the profile into a
// temporary directory that is removed on exit, so no coverage artifact
// can land in the working tree (and get committed by accident). Pass
// -keep-profile to also copy the generated profile somewhere for
// downstream tools like `go tool cover -html`.
//
// The gate fails (exit 1) when total coverage drops more than slack
// (one percentage point) below the baseline, so refactors cannot
// silently shed tests. Regenerate the baseline after intentionally
// changing coverage:
//
//	go run ./cmd/covergate -gen ./... -write COVERAGE.baseline
//
// The baseline file records per-package percentages too; those lines
// are informational (total is what gates) but make coverage drift
// visible in diffs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// slack is the allowed drop below the baseline total, in percentage
// points.
const slack = 1.0

func main() {
	var (
		gen      = flag.String("gen", "", "run `go test -coverprofile` on this package pattern (e.g. ./...) into a temp dir and gate the result")
		keep     = flag.String("keep-profile", "", "also copy the generated profile to this path for downstream tools")
		baseline = flag.String("baseline", "", "committed baseline file to gate against")
		write    = flag.String("write", "", "write a fresh baseline to this file and exit")
	)
	flag.Parse()
	if *gen == "" {
		fmt.Fprintln(os.Stderr, "covergate: need -gen")
		os.Exit(1)
	}
	profile, cleanup, err := generateProfile(*gen, *keep)
	if err == nil {
		err = run(profile, *baseline, *write, os.Stdout)
		cleanup()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "covergate:", err)
		os.Exit(1)
	}
}

// generateProfile runs `go test -coverprofile` on pattern with the
// profile in a fresh temp directory — never the working tree — and
// returns the profile path plus a cleanup func removing the directory.
// When keep is non-empty the profile is also copied there for tools
// that want it after the gate (e.g. go tool cover -html).
func generateProfile(pattern, keep string) (string, func(), error) {
	dir, err := os.MkdirTemp("", "covergate-")
	if err != nil {
		return "", nil, err
	}
	cleanup := func() { _ = os.RemoveAll(dir) }
	profile := filepath.Join(dir, "cover.out")
	cmd := exec.Command("go", "test", "-coverprofile="+profile, pattern)
	// Test chatter goes to stderr so the gate report on stdout stays
	// machine-readable.
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("go test -coverprofile %s: %w", pattern, err)
	}
	if keep != "" {
		data, err := os.ReadFile(profile)
		if err == nil {
			err = os.WriteFile(keep, data, 0o644)
		}
		if err != nil {
			cleanup()
			return "", nil, err
		}
	}
	return profile, cleanup, nil
}

// pkgCov accumulates statement counts for one package.
type pkgCov struct {
	total   int
	covered int
}

func (c pkgCov) percent() float64 {
	if c.total == 0 {
		return 0
	}
	return 100 * float64(c.covered) / float64(c.total)
}

// parseProfile reads a coverprofile and returns per-package statement
// coverage keyed by import path.
func parseProfile(r io.Reader) (map[string]*pkgCov, error) {
	pkgs := make(map[string]*pkgCov)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 && strings.HasPrefix(text, "mode:") {
			continue
		}
		// file.go:sl.sc,el.ec numStmt hitCount
		colon := strings.LastIndex(text, ":")
		if colon < 0 {
			return nil, fmt.Errorf("line %d: no file separator in %q", line, text)
		}
		file := text[:colon]
		fields := strings.Fields(text[colon+1:])
		if len(fields) != 3 {
			return nil, fmt.Errorf("line %d: want 'range numStmt hitCount', got %q", line, text)
		}
		stmts, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad statement count %q", line, fields[1])
		}
		hits, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad hit count %q", line, fields[2])
		}
		pkg := path.Dir(file)
		c := pkgs[pkg]
		if c == nil {
			c = &pkgCov{}
			pkgs[pkg] = c
		}
		c.total += stmts
		if hits > 0 {
			c.covered += stmts
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("empty coverprofile")
	}
	return pkgs, nil
}

// totalOf folds per-package counts into overall statement coverage.
func totalOf(pkgs map[string]*pkgCov) pkgCov {
	var t pkgCov
	for _, c := range pkgs {
		t.total += c.total
		t.covered += c.covered
	}
	return t
}

// render writes the baseline format: a total line followed by sorted
// per-package lines.
func render(w io.Writer, pkgs map[string]*pkgCov) {
	t := totalOf(pkgs)
	fmt.Fprintf(w, "total %.1f\n", t.percent())
	names := make([]string, 0, len(pkgs))
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "package %s %.1f\n", name, pkgs[name].percent())
	}
}

// readBaselineTotal extracts the gating total from a baseline file.
func readBaselineTotal(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == "total" {
			return strconv.ParseFloat(fields[1], 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no 'total' line in %s", path)
}

func run(profilePath, baseline, write string, out io.Writer) error {
	f, err := os.Open(profilePath)
	if err != nil {
		return err
	}
	pkgs, err := parseProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	total := totalOf(pkgs)

	if write != "" {
		var b strings.Builder
		render(&b, pkgs)
		if err := os.WriteFile(write, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (total %.1f%%, %d packages)\n", write, total.percent(), len(pkgs))
		return nil
	}

	render(out, pkgs)
	if baseline == "" {
		return nil
	}
	floor, err := readBaselineTotal(baseline)
	if err != nil {
		return err
	}
	got := total.percent()
	fmt.Fprintf(out, "baseline %.1f, slack %.1f\n", floor, slack)
	if got < floor-slack {
		return fmt.Errorf("total coverage %.1f%% below baseline %.1f%% - %.1f slack", got, floor, slack)
	}
	fmt.Fprintf(out, "coverage gate ok: %.1f%% >= %.1f%%\n", got, floor-slack)
	return nil
}
