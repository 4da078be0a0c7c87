package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against the committed golden file,
// rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (regenerate with -update):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// The corrupt fixtures: each must be rejected (non-zero exit under
// -strict) with exactly the committed findings.
var fixtures = []struct {
	file string
	// minExit is the exit code without -strict: the oob fixture carries
	// error findings, the others fail only once warns gate.
	strictOnly bool
}{
	{"oob_store.s", false},
	{"dead_block.s", true},
	{"never_taken_guard.s", true},
	{"uninit_read.s", true},
}

func TestCorruptFixtureGoldens(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.file, func(t *testing.T) {
			var out bytes.Buffer
			code, err := run(options{strict: true, crosscheck: true, seed: 1, maxInstructions: 1 << 20},
				[]string{filepath.Join("testdata", fx.file)}, &out)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if code != 1 {
				t.Errorf("exit = %d, want 1 (fixture must be rejected)\n%s", code, out.String())
			}
			checkGolden(t, strings.TrimSuffix(fx.file, ".s")+".golden", out.String())

			// Severity gate sanity: only the oob fixture fails without
			// -strict.
			out.Reset()
			code, err = run(options{}, []string{filepath.Join("testdata", fx.file)}, &out)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			wantDefault := 1
			if fx.strictOnly {
				wantDefault = 0
			}
			if code != wantDefault {
				t.Errorf("default-gate exit = %d, want %d\n%s", code, wantDefault, out.String())
			}
		})
	}
}

func TestBenchCleanAndJSON(t *testing.T) {
	var out bytes.Buffer
	code, err := run(options{bench: "compress", input: "ref", scale: 0.1, jsonOut: true,
		crosscheck: true, seed: 1, maxInstructions: 1 << 20}, nil, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("seed benchmark failed verification:\n%s", out.String())
	}
	var reports []report
	if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(reports) != 1 || reports[0].Failed {
		t.Fatalf("unexpected reports: %+v", reports)
	}
	if reports[0].Summary.Sites == 0 {
		t.Error("benchmark reports zero branch sites")
	}
}

func TestUnknownTargets(t *testing.T) {
	if _, err := run(options{bench: "nosuch"}, nil, &bytes.Buffer{}); err == nil {
		t.Error("unknown bench accepted")
	}
	if _, err := run(options{graph: "nosuch"}, nil, &bytes.Buffer{}); err == nil {
		t.Error("unknown graph accepted")
	}
	if _, err := run(options{}, nil, &bytes.Buffer{}); err == nil {
		t.Error("empty target list accepted")
	}
}
