package lint_test

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// fixtureFindings loads the packages under testdata/<fixture> as part of
// this module (the source importer resolves imports from the working
// directory's module) and returns pass's findings as sorted
// "file:line name" strings, the file relative to the fixture and name
// the message's first word. Every finding must have error severity.
func fixtureFindings(t *testing.T, fixture, pass string, pkgs ...string) []string {
	t.Helper()
	moduleRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	rel := filepath.Join("internal", "lint", "testdata", fixture)
	var patterns []string
	for _, p := range pkgs {
		patterns = append(patterns, filepath.Join(rel, p))
	}
	dirs, err := loader.PackageDirs(patterns)
	if err != nil {
		t.Fatal(err)
	}
	var loaded []*lint.Package
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		loaded = append(loaded, pkg)
	}
	var got []string
	for _, f := range lint.NewModule(loaded).Findings() {
		if f.Pass != pass {
			continue
		}
		if f.Severity != lint.SevError {
			t.Errorf("%s: severity %s, want error", f, f.Severity)
		}
		file, err := filepath.Rel(filepath.Join(moduleRoot, rel), f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s:%d %s", filepath.ToSlash(file), f.Pos.Line, strings.Fields(f.Msg)[0]))
	}
	sort.Strings(got)
	return got
}

// TestDeprecatedFlagsReferences expects a finding at every reference to
// a deprecated field or function outside its declaring file: from a
// sibling file, from an in-package and an external test file, and from
// another package. The declaring file's own references, live names, a
// "Deprecated:" that does not start a paragraph, and a suppressed
// reference stay clean.
func TestDeprecatedFlagsReferences(t *testing.T) {
	got := fixtureFindings(t, "deprecated", "deprecated", "dep", "user")
	want := []string{
		"dep/dep_test.go:6 dep.Config.Old",
		"dep/ext_test.go:10 dep.OldFunc",
		"dep/use.go:4 dep.Config.Old",
		"dep/use.go:5 dep.OldFunc",
		"user/user.go:8 dep.Config.Old",
		"user/user.go:9 dep.OldFunc",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("deprecated findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestTestOnlyFlagsTestOnlyExports expects a finding at a function and
// a method that only a test file calls and at an export nothing
// references. An export with a caller in another package, a method
// called only through an interface, a method called only through a
// generic constraint, and an allowed export stay clean.
func TestTestOnlyFlagsTestOnlyExports(t *testing.T) {
	got := fixtureFindings(t, "testonly", "testonly", "api", "user")
	want := []string{
		"api/api.go:18 (*api.Counter).Reset",
		"api/api.go:5 api.TestOnly",
		"api/api.go:6 api.Orphan",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("testonly findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
