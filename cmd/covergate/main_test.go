package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const sampleProfile = `mode: set
repro/internal/graph/graph.go:10.2,12.3 3 1
repro/internal/graph/graph.go:14.2,16.3 2 0
repro/internal/graph/clique.go:5.2,9.3 5 7
repro/internal/core/core.go:20.2,25.3 4 1
repro/internal/core/core.go:30.2,31.3 6 0
`

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseProfile(t *testing.T) {
	pkgs, err := parseProfile(strings.NewReader(sampleProfile))
	if err != nil {
		t.Fatal(err)
	}
	g := pkgs["repro/internal/graph"]
	if g == nil || g.total != 10 || g.covered != 8 {
		t.Fatalf("graph coverage = %+v, want 8/10", g)
	}
	c := pkgs["repro/internal/core"]
	if c == nil || c.total != 10 || c.covered != 4 {
		t.Fatalf("core coverage = %+v, want 4/10", c)
	}
	tot := totalOf(pkgs)
	if tot.total != 20 || tot.covered != 12 {
		t.Fatalf("total = %+v, want 12/20", tot)
	}
	if got := tot.percent(); got != 60.0 {
		t.Fatalf("percent = %v, want 60", got)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"mode: set\nnot a coverage line\n",
		"mode: set\nfile.go:1.1,2.2 x 1\n",
		"",
	} {
		if _, err := parseProfile(strings.NewReader(bad)); err == nil {
			t.Errorf("profile %q parsed without error", bad)
		}
	}
}

// TestGatePassAndFail exercises the full gate: a baseline written from
// one profile passes against itself and fails against a profile whose
// coverage dropped beyond the slack.
func TestGatePassAndFail(t *testing.T) {
	profile := writeFile(t, "cover.out", sampleProfile)
	baseline := filepath.Join(t.TempDir(), "COVERAGE.baseline")

	var out strings.Builder
	if err := run(profile, "", baseline, &out); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	out.Reset()
	if err := run(profile, baseline, "", &out); err != nil {
		t.Fatalf("gate against own baseline: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "coverage gate ok") {
		t.Fatalf("missing ok line:\n%s", out.String())
	}

	// Drop coverage: mark every statement unhit.
	dropped := strings.ReplaceAll(sampleProfile, " 1\n", " 0\n")
	dropped = strings.ReplaceAll(dropped, " 7\n", " 0\n")
	profile2 := writeFile(t, "cover2.out", dropped)
	out.Reset()
	err := run(profile2, baseline, "", &out)
	if err == nil || !strings.Contains(err.Error(), "below baseline") {
		t.Fatalf("gate passed on dropped coverage (err=%v)", err)
	}
}

// TestGenerateProfileBadPattern asserts the -gen path surfaces go test
// failures and leaves nothing behind in the working directory.
func TestGenerateProfileBadPattern(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := generateProfile("./does-not-exist", ""); err == nil {
		t.Fatal("generateProfile succeeded on a nonexistent package")
	}
	if _, err := os.Stat(filepath.Join(wd, "cover.out")); !os.IsNotExist(err) {
		t.Fatalf("cover.out appeared in the working directory (stat err=%v)", err)
	}
}

func TestReadBaselineTotal(t *testing.T) {
	p := writeFile(t, "b", "total 61.5\npackage repro/internal/graph 80.0\n")
	got, err := readBaselineTotal(p)
	if err != nil || got != 61.5 {
		t.Fatalf("readBaselineTotal = %v, %v", got, err)
	}
	p2 := writeFile(t, "b2", "package only 1.0\n")
	if _, err := readBaselineTotal(p2); err == nil {
		t.Fatal("baseline without total accepted")
	}
}
