package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestAblationsGolden freezes the rendered ablation studies (the
// tables -ablations output) at a fixed small scale, serially and with a
// worker pool: the schedule that runs the rows must not change a byte.
func TestAblationsGolden(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := NewSuite(Config{Scale: 0.05, Workers: workers})
		var b strings.Builder
		if err := RunAblations(s, &b, false); err != nil {
			t.Fatal(err)
		}
		checkHarnessGolden(t, "ablations.golden", b.String())
	}
}

// windowRowsByFan is the reference window ablation: one filtered
// re-execution fanned out to a profiler per window, every profiler live
// at once.
func windowRowsByFan(t *testing.T, s *Suite, benchmark string) []WindowRow {
	t.Helper()
	a, err := s.Artifacts(benchmark, workload.InputRef)
	if err != nil {
		t.Fatal(err)
	}
	windows := make([]int, len(windowMultiples))
	profilers := make([]*profile.Profiler, len(windows))
	fan := make(vm.MultiSink, len(windows))
	for i, m := range windowMultiples {
		windows[i] = m * a.Spec.WorkingSetSize()
		var opts []profile.Option
		if windows[i] > 0 {
			opts = append(opts, profile.WithWindow(windows[i]))
		}
		profilers[i] = profile.NewProfiler(benchmark, a.Input.Name, opts...)
		fan[i] = profilers[i]
	}
	if err := s.replayFiltered(a, fan); err != nil {
		t.Fatal(err)
	}
	rows := make([]WindowRow, len(windows))
	for i, w := range windows {
		p := profilers[i].Profile()
		res, err := core.Analyze(p, core.AnalysisConfig{
			Threshold:    s.cfg.Threshold,
			CliqueBudget: s.cfg.CliqueBudget,
		})
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = WindowRow{
			Benchmark: benchmark,
			Window:    w,
			Pairs:     p.Pairs.Len(),
			Edges:     res.Graph.NumEdges(),
			NumSets:   res.NumSets(),
			AvgStatic: res.AvgStaticSize(),
		}
	}
	return rows
}

// TestAblateWindowsMatchesFan requires the window ablation's one pass
// per window to measure exactly what the four-profiler fan does.
func TestAblateWindowsMatchesFan(t *testing.T) {
	s := testSuite()
	for _, name := range []string{"compress", "li"} {
		got, err := s.ablateWindows(name)
		if err != nil {
			t.Fatal(err)
		}
		want := windowRowsByFan(t, s, name)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, fan has %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s window %d: got %+v, fan %+v", name, want[i].Window, got[i], want[i])
			}
		}
	}
}

// TestAblationSpans checks that a metrics-enabled ablation run records
// one ablate span per ablation benchmark and one ablate-window span per
// window pass.
func TestAblationSpans(t *testing.T) {
	reg := metricsRegistry()
	s := NewSuite(Config{Scale: 0.02, Workers: 2, Metrics: obs.New(reg)})
	if err := RunAblations(s, &strings.Builder{}, false); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		obs.Name("wsd_stage", "benchmark", "li", "stage", "ablate-window"): uint64(len(windowMultiples)),
	}
	for _, name := range AblationBenchmarks {
		want[obs.Name("wsd_stage", "benchmark", name, "stage", "ablate")] = 1
	}
	got := map[string]uint64{}
	for _, st := range reg.Snapshot().Stages {
		if strings.Contains(st.Name, `stage="ablate`) {
			got[st.Name] = st.Count
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ablation spans = %v, want %v", got, want)
	}
}
