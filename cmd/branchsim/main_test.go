package main

import (
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns everything it printed, failing the test if fn fails.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	out, err := captureRun(t, fn)
	if err != nil {
		t.Fatalf("run failed: %v\noutput so far:\n%s", err, out)
	}
	return out
}

// captureRun runs fn with os.Stdout redirected into a pipe and returns
// everything it printed along with fn's error. The CLIs print straight
// to stdout, so golden tests hook the file descriptor rather than
// threading a writer through every print site.
func captureRun(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		out, _ := io.ReadAll(r)
		done <- string(out)
	}()
	ferr := fn()
	os.Stdout = old
	if cerr := w.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return <-done, ferr
}

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
		t.Errorf("output differs from %s (regenerate with -update if intended)\n--- want ---\n%s\n--- got ---\n%s",
			path, want, got)
	}
}

// TestGoldenBranchsim locks down every predictor's misprediction line
// for a small li run, and the -tail ring dump. pag-alloc profiles the
// run through profile.Profiler and allocates from it, so the golden
// also pins the profiler's pair counts end to end.
func TestGoldenBranchsim(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("li", "ref", 0.05, "pag,pag-alloc,pag-ideal,bimodal,gshare,gag,static,taken", 1024, 4096, 1024, false, 2048, 3)
	})
	checkGolden(t, "li.golden", out)
}

// TestRejectsEmptyBHT: a PC-indexed PAg over zero or a negative number
// of BHT entries is an error naming the indexer, not a divide-by-zero
// or makeslice panic mid-run.
func TestRejectsEmptyBHT(t *testing.T) {
	for _, bht := range []int{0, -4} {
		_, err := captureRun(t, func() error {
			return run("li", "ref", 0.05, "pag", bht, 4096, 1024, false, 2048, 0)
		})
		if err == nil || !strings.Contains(err.Error(), "pc-mod indexer") {
			t.Errorf("-bht %d: got %v, want an indexer size error", bht, err)
		}
	}
}

// TestRejectsBadScale: a negative, NaN or infinite -scale is an error,
// not a silent run at another size.
func TestRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1)} {
		_, err := captureRun(t, func() error {
			return run("li", "ref", scale, "taken", 1024, 4096, 1024, false, 2048, 0)
		})
		if err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("-scale %v: got %v, want a scale error", scale, err)
		}
	}
}

// TestRejectsUnknownPredictor: an unknown or empty predictor name fails
// before the benchmark runs, so no stats line is printed.
func TestRejectsUnknownPredictor(t *testing.T) {
	for _, list := range []string{"bogus", "pag,", "pag,,taken"} {
		out, err := captureRun(t, func() error {
			return run("li", "ref", 0.05, list, 1024, 4096, 1024, false, 2048, 0)
		})
		if err == nil || !strings.Contains(err.Error(), "unknown predictor") {
			t.Errorf("-predictors %q: got %v, want an unknown-predictor error", list, err)
		}
		if out != "" {
			t.Errorf("-predictors %q printed %q before failing", list, out)
		}
	}
}

// TestRejectsNegativeTail: a negative -tail fails before the benchmark
// runs, so no stats line is printed.
func TestRejectsNegativeTail(t *testing.T) {
	out, err := captureRun(t, func() error {
		return run("li", "ref", 0.05, "taken", 1024, 4096, 1024, false, 2048, -3)
	})
	if err == nil || !strings.Contains(err.Error(), "-tail -3") {
		t.Errorf("-tail -3: got %v, want a -tail error", err)
	}
	if out != "" {
		t.Errorf("-tail -3 printed %q before failing", out)
	}
}
