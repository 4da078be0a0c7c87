package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
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
// everything it printed along with fn's error.
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

// TestGoldenAllocate locks down the default allocation report for a
// small li run.
func TestGoldenAllocate(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("li", "ref", 0.05, 64, false, false, 1024, 100, 0, false, "", false, false, nil)
	})
	checkGolden(t, "li_alloc.golden", out)
}

// TestGoldenAllocateCheck covers -check on a healthy allocation.
func TestGoldenAllocateCheck(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("li", "ref", 0.05, 64, false, false, 1024, 100, 0, true, "", false, false, nil)
	})
	checkGolden(t, "li_alloc_check.golden", out)
}

// TestGoldenAllocateClassify covers the Section 5.2 classification path.
func TestGoldenAllocateClassify(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("li", "ref", 0.05, 64, true, false, 1024, 100, 0, false, "", false, false, nil)
	})
	checkGolden(t, "li_alloc_classify.golden", out)
}

// TestGoldenAllocateMergedInputs covers the cumulative-profile path
// (Section 5.2): two input sets profiled and merged before allocation.
func TestGoldenAllocateMergedInputs(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("li", "ref,a", 0.05, 64, false, false, 1024, 100, 0, false, "", false, false, nil)
	})
	checkGolden(t, "li_alloc_merged.golden", out)
}

// TestGoldenAllocateStatic locks down the profile-free path: the
// allocation built from the compile-time estimate, verified by the same
// -check machinery as the profiled one.
func TestGoldenAllocateStatic(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("li", "ref", 0.05, 64, false, false, 1024, 100, 0, true, "", true, false, nil)
	})
	checkGolden(t, "li_alloc_static.golden", out)
}

// TestGoldenAllocateStaticClassify covers -static -classify: the
// reserved biased entries driven by the static bias idioms.
func TestGoldenAllocateStaticClassify(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("li", "ref", 0.05, 64, true, false, 1024, 100, 0, false, "", true, false, nil)
	})
	checkGolden(t, "li_alloc_static_classify.golden", out)
}

// TestStaticRejectsMergedInputs: the static estimate is a property of
// one built program; merging input sets has no meaning there.
func TestStaticRejectsMergedInputs(t *testing.T) {
	err := run("li", "ref,a", 0.05, 64, false, false, 1024, 100, 0, false, "", true, false, nil)
	if err == nil {
		t.Fatal("-static -inputs ref,a unexpectedly succeeded")
	}
}

// TestGoldenAllocateMetrics locks down the -metrics dump appended to
// the allocation report. Frozen clock + zero memory source make the
// timing series deterministic.
func TestGoldenAllocateMetrics(t *testing.T) {
	reg := obs.NewRegistry(
		obs.WithClock(obs.NewFakeClock(time.Unix(0, 0), 0)),
		obs.WithMemSource(func() uint64 { return 0 }),
	)
	out := captureStdout(t, func() error {
		return run("li", "ref", 0.05, 64, false, false, 1024, 100, 0, false, "", false, false, reg)
	})
	checkGolden(t, "li_alloc_metrics.golden", out)
}

// TestCorruptFailsCheck is the negative control for the allocate -check
// path.
func TestCorruptFailsCheck(t *testing.T) {
	for _, target := range []string{"graph", "alloc"} {
		old := os.Stdout
		devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = devnull
		err = run("li", "ref", 0.05, 64, false, false, 1024, 100, 0, true, target, false, false, nil)
		os.Stdout = old
		if cerr := devnull.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err == nil {
			t.Errorf("-corrupt %s: check unexpectedly passed", target)
		}
	}
}

// TestGoldenAllocateProgcheck covers -progcheck on the profiled path:
// the verifier gate runs before the profile run and its summary line
// precedes the report.
func TestGoldenAllocateProgcheck(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("li", "ref", 0.05, 64, false, false, 1024, 100, 0, false, "", false, true, nil)
	})
	checkGolden(t, "li_alloc_progcheck.golden", out)
}

// TestGoldenAllocateStaticProgcheck covers -static -progcheck: proven
// facts feed the compile-time estimate.
func TestGoldenAllocateStaticProgcheck(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("li", "ref", 0.05, 64, false, false, 1024, 100, 0, false, "", true, true, nil)
	})
	checkGolden(t, "li_alloc_static_progcheck.golden", out)
}

// TestRejectsSmallBaseline checks that a -baseline below 1 fails before
// anything is profiled, with or without -find-size, and that a
// classified size search names a baseline too small for its two
// reserved entries.
func TestRejectsSmallBaseline(t *testing.T) {
	for _, findSize := range []bool{false, true} {
		out, err := captureRun(t, func() error {
			return run("li", "ref", 0.05, 64, false, findSize, 0, 100, 0, false, "", false, false, nil)
		})
		if err == nil || !strings.Contains(err.Error(), "-baseline 0") {
			t.Errorf("-find-size=%v -baseline 0: error %v", findSize, err)
		}
		if out != "" {
			t.Errorf("-find-size=%v -baseline 0 printed before failing:\n%s", findSize, out)
		}
	}
	_, err := captureRun(t, func() error {
		return run("li", "ref", 0.05, 64, true, true, 2, 100, 0, false, "", false, false, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "baseline size 2 below minimum 3") {
		t.Errorf("-classify -find-size -baseline 2: error %v", err)
	}
}

// TestRejectsNegativeWindow: a negative -window is an error before
// anything is profiled, not a silent exact scan.
func TestRejectsNegativeWindow(t *testing.T) {
	out, err := captureRun(t, func() error {
		return run("li", "ref", 0.05, 64, false, false, 1024, 100, -3, false, "", false, false, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "-window -3") {
		t.Errorf("-window -3: error %v", err)
	}
	if out != "" {
		t.Errorf("-window -3 printed before failing:\n%s", out)
	}
}

// TestRejectsRepeatedInput: profiling one input set twice and merging
// would double every count; run names the repeated set before it
// profiles any input.
func TestRejectsRepeatedInput(t *testing.T) {
	out, err := captureRun(t, func() error {
		return run("li", "ref,ref", 0.05, 128, false, false, 1024, 100, 0, false, "", false, false, nil)
	})
	if err == nil || !strings.Contains(err.Error(), `input set "ref" appears twice`) {
		t.Errorf("-inputs ref,ref: error %v", err)
	}
	if strings.Contains(out, "profiled") || strings.Contains(out, "merged") || strings.Contains(out, "allocation into") {
		t.Errorf("-inputs ref,ref profiled before rejecting the repeat:\n%s", out)
	}
}
