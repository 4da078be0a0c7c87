package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// fixtureRoot returns the hotfixture module, a self-contained package
// with a seeded hot-path allocation.
func fixtureRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "hotfixture"))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func runFixture(t *testing.T, opts options) (string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	failing, err := run(fixtureRoot(t), []string{"./..."}, opts, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	return stdout.String(), failing
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestHotFixtureTextGolden(t *testing.T) {
	got, failing := runFixture(t, options{quiet: true})
	if failing == 0 {
		t.Fatalf("seeded hot-path allocation not detected; output:\n%s", got)
	}
	if !strings.Contains(got, "hotpath") {
		t.Errorf("output does not name the hotpath pass:\n%s", got)
	}
	checkGolden(t, "hotfixture.golden", got)
}

func TestHotFixtureJSONGolden(t *testing.T) {
	got, failing := runFixture(t, options{quiet: true, jsonOut: true})
	if failing == 0 {
		t.Fatalf("seeded hot-path allocation not detected; output:\n%s", got)
	}
	checkGolden(t, "hotfixture.json.golden", got)
}

// TestRepoTreeClean is the acceptance criterion: the real tree has no
// failing findings.
func TestRepoTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree lint is slow")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	failing, err := run(root, []string{"./..."}, options{quiet: true}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if failing != 0 {
		t.Errorf("tree has %d failing finding(s):\n%s", failing, stdout.String())
	}
}

// TestReadmeNamesEveryPass keeps README.md's "Static analysis" section
// in step with the registry: every registered pass is named there.
func TestReadmeNamesEveryPass(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Static analysis\n")
	if !ok {
		t.Fatal(`README.md has no "## Static analysis" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	for _, name := range lint.PassNames() {
		if !strings.Contains(section, "*"+name+"*") {
			t.Errorf("README.md Static analysis section does not name pass *%s*", name)
		}
	}
}

// TestPassFilterTestOnly checks that -pass testonly is accepted and
// keeps only the fixture's seeded test-only export.
func TestPassFilterTestOnly(t *testing.T) {
	if !knownPass("testonly") {
		t.Fatal("-pass testonly rejected")
	}
	got, failing := runFixture(t, options{quiet: true, passFilter: "testonly"})
	want := "internal/seed/seed.go:6:6: error: testonly: seed.Twice is exported but no non-test file references it; " +
		"delete or unexport it, or mark it //reprolint:allow testonly <reason>\n"
	if failing != 1 || got != want {
		t.Errorf("-pass testonly: %d failing, output:\n%s\nwant:\n%s", failing, got, want)
	}
}

// TestPatternsFilterFindings checks that a run over part of the module
// reports only the matching packages' findings.
func TestPatternsFilterFindings(t *testing.T) {
	for pattern, want := range map[string]string{".": "hotpath", "./internal/seed": "testonly"} {
		var stdout, stderr bytes.Buffer
		failing, err := run(fixtureRoot(t), []string{pattern}, options{quiet: true}, &stdout, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		if failing != 1 || !strings.Contains(stdout.String(), ": "+want+": ") {
			t.Errorf("pattern %s: %d failing, want one %s finding:\n%s", pattern, failing, want, stdout.String())
		}
	}
}
