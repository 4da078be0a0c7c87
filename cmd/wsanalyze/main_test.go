package main

import (
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns everything it printed. The CLIs print straight to stdout, so
// golden tests hook the file descriptor rather than threading a writer
// through every print site.
func captureStdout(t *testing.T, fn func() error) string {
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
	out := <-done
	if ferr != nil {
		t.Fatalf("run failed: %v\noutput so far:\n%s", ferr, out)
	}
	return out
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

// TestGoldenProgram locks down the full wsanalyze report for the
// fixture program: trace header, conflict graph summary, working-set
// statistics, and top sets.
func TestGoldenProgram(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(runOpts{input: "ref", scale: 1.0, programFile: "testdata/interleave.s", threshold: 40, definition: "cliques", top: 3}, nil)
	})
	checkGolden(t, "program.golden", out)
}

// TestGoldenProgramCheck covers the -check path: the verifier line must
// appear before the report, and verification must pass on a healthy
// artifact.
func TestGoldenProgramCheck(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(runOpts{input: "ref", scale: 1.0, programFile: "testdata/interleave.s", threshold: 40, definition: "cliques", top: 3, check: true}, nil)
	})
	checkGolden(t, "program_check.golden", out)
}

// TestGoldenProgramPartition covers the alternative working-set
// definition (-definition partition).
func TestGoldenProgramPartition(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(runOpts{input: "ref", scale: 1.0, programFile: "testdata/interleave.s", threshold: 40, definition: "partition", top: 3}, nil)
	})
	checkGolden(t, "program_partition.golden", out)
}

// TestGoldenBench locks down the built-in-benchmark path at a small
// scale.
func TestGoldenBench(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(runOpts{bench: "li", input: "ref", scale: 0.05, threshold: 100, definition: "cliques", top: 3}, nil)
	})
	checkGolden(t, "bench_li.golden", out)
}

// TestGoldenProgramMetrics locks down the -metrics dump appended to the
// report. The registry gets a frozen clock and a zero memory source so
// the timing and allocation series are deterministic; the event and
// pair-increment counters are exact properties of the fixture program.
func TestGoldenProgramMetrics(t *testing.T) {
	reg := obs.NewRegistry(
		obs.WithClock(obs.NewFakeClock(time.Unix(0, 0), 0)),
		obs.WithMemSource(func() uint64 { return 0 }),
	)
	out := captureStdout(t, func() error {
		return run(runOpts{input: "ref", scale: 1.0, programFile: "testdata/interleave.s", threshold: 40, definition: "cliques", top: 3}, reg)
	})
	checkGolden(t, "program_metrics.golden", out)
}

// TestGoldenStaticProgram locks down the -static report for the fixture
// program: compile-time header, CFG/loop summary, static estimate line,
// and the working-set report over the static conflict graph. Threshold
// 0 selects the default, which the static weight model targets.
func TestGoldenStaticProgram(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(runOpts{input: "ref", scale: 1.0, programFile: "testdata/interleave.s", definition: "cliques", top: 3, static: true}, nil)
	})
	checkGolden(t, "program_static.golden", out)
}

// TestGoldenStaticBench covers -static -bench with -check: the built li
// program analyzed at compile time, with the verifier line in place.
func TestGoldenStaticBench(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(runOpts{bench: "li", input: "ref", scale: 0.05, definition: "cliques", top: 3, check: true, static: true}, nil)
	})
	checkGolden(t, "bench_li_static.golden", out)
}

// TestRejectsCoverageOutOfRange: a coverage fraction outside [0, 1], or
// NaN, is an error rather than a silent full-coverage analysis.
func TestRejectsCoverageOutOfRange(t *testing.T) {
	for _, c := range []float64{-0.5, 1.5, math.NaN(), math.Inf(1)} {
		err := run(runOpts{input: "ref", scale: 1.0, programFile: "testdata/interleave.s", definition: "cliques", top: 3, coverage: c}, nil)
		if err == nil || !strings.Contains(err.Error(), "-coverage") {
			t.Errorf("-coverage %v: got %v, want a -coverage range error", c, err)
		}
	}
}

// TestRejectsNegativeWindow: a negative scan window is an error rather
// than a silent exact scan.
func TestRejectsNegativeWindow(t *testing.T) {
	err := run(runOpts{input: "ref", scale: 1.0, programFile: "testdata/interleave.s", definition: "cliques", top: 3, window: -5}, nil)
	if err == nil || !strings.Contains(err.Error(), "-window -5") {
		t.Errorf("-window -5: got %v, want a -window error", err)
	}
}

// TestGoldenProgramCharact locks down the -charact extension of the
// report: the predictability summary line and the per-branch entropy
// table appended after the working-set sections. The collector rides
// the same replayed stream as the profiler, so the rest of the report
// is byte-identical to program.golden.
func TestGoldenProgramCharact(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(runOpts{input: "ref", scale: 1.0, programFile: "testdata/interleave.s", threshold: 40, definition: "cliques", top: 3, charact: true}, nil)
	})
	checkGolden(t, "program_charact.golden", out)
}

// TestStaticRejectsCharact: characterization needs an executed branch
// stream, which the compile-time path never produces.
func TestStaticRejectsCharact(t *testing.T) {
	err := run(runOpts{input: "ref", scale: 1.0, programFile: "testdata/interleave.s", definition: "cliques", top: 3, static: true, charact: true}, nil)
	if err == nil {
		t.Fatal("-static -charact unexpectedly succeeded")
	}
}

// TestCorruptFailsCheck is the negative control: a seeded corruption
// must make -check exit with an error.
func TestCorruptFailsCheck(t *testing.T) {
	for _, target := range []string{"graph", "sets"} {
		old := os.Stdout
		devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = devnull
		err = run(runOpts{input: "ref", scale: 1.0, programFile: "testdata/interleave.s", threshold: 40, definition: "cliques", top: 3, check: true, corrupt: target}, nil)
		os.Stdout = old
		if cerr := devnull.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err == nil {
			t.Errorf("-corrupt %s: check unexpectedly passed", target)
		}
	}
}

// TestGoldenProgramProgcheck covers the -progcheck gate on the dynamic
// path: verifier findings and the ok line precede the report, and the
// clean fixture passes the gate.
func TestGoldenProgramProgcheck(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(runOpts{input: "ref", scale: 1.0, programFile: "testdata/interleave.s", threshold: 40, definition: "cliques", top: 3, progCheck: true}, nil)
	})
	checkGolden(t, "program_progcheck.golden", out)
}

// TestGoldenStaticProgcheck covers -static -progcheck: the verifier's
// proven facts feed the compile-time estimate (pruning resolved and
// dead branches from the conflict graph when any are proven).
func TestGoldenStaticProgcheck(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(runOpts{input: "ref", scale: 1.0, programFile: "testdata/interleave.s", definition: "cliques", top: 3, static: true, progCheck: true}, nil)
	})
	checkGolden(t, "program_static_progcheck.golden", out)
}

// TestRejectsNegativeTop: a negative -top is an error rather than a
// silent report with no sets.
func TestRejectsNegativeTop(t *testing.T) {
	err := run(runOpts{input: "ref", scale: 1.0, programFile: "testdata/interleave.s", definition: "cliques", top: -2}, nil)
	if err == nil || !strings.Contains(err.Error(), "-top -2") {
		t.Errorf("-top -2: got %v, want a -top error", err)
	}
}
