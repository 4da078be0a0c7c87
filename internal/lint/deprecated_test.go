package lint_test

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestDeprecatedFlagsReferences loads the two testdata/deprecated
// packages as part of this module (the source importer resolves
// imports from the working directory's module) and expects a finding at
// every reference to a deprecated field or function outside its
// declaring file: from a sibling file, from an in-package and an
// external test file, and from another package. The declaring file's
// own references, live names, a "Deprecated:" that does not start a
// paragraph, and a suppressed reference stay clean.
func TestDeprecatedFlagsReferences(t *testing.T) {
	moduleRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join("internal", "lint", "testdata", "deprecated")
	root := filepath.Join(moduleRoot, fixture)
	dirs, err := loader.PackageDirs([]string{filepath.Join(fixture, "dep"), filepath.Join(fixture, "user")})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	var got []string
	for _, f := range lint.NewModule(pkgs).Findings() {
		if f.Pass != "deprecated" {
			continue
		}
		if f.Severity != lint.SevError {
			t.Errorf("%s: severity %s, want error", f, f.Severity)
		}
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), f.Pos.Line, strings.Fields(f.Msg)[0]))
	}
	sort.Strings(got)
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
