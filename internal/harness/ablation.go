package harness

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/workload"
)

// This file holds the ablation experiments: sensitivity studies for the
// design choices the paper asserts without tabulating (threshold
// robustness, Section 4.2; the working-set definition; grouped
// pre-classified analysis, Sections 2 and 6) and for this
// reproduction's own profiling-window optimization.

// ThresholdRow is one (benchmark, threshold) working-set measurement.
type ThresholdRow struct {
	Benchmark  string
	Threshold  uint64
	NumSets    int
	AvgStatic  float64
	AvgDynamic float64
	Edges      int
}

// DefinitionRow compares the two working-set definitions on one
// benchmark.
type DefinitionRow struct {
	Benchmark       string
	CliqueSets      int
	CliqueAvgStatic float64
	PartitionSets   int
	PartitionAvg    float64
	CliqueTruncated bool
}

// GroupedRow compares individual-branch and grouped (pre-classified)
// working sets on one benchmark.
type GroupedRow struct {
	Benchmark      string
	IndividualSets int
	IndividualAvg  float64
	GroupedSets    int
	GroupedAvg     float64
	BiasedFraction float64
}

// WindowRow measures the effect of the profiling scan window.
type WindowRow struct {
	Benchmark string
	Window    int // 0 = unbounded (exact)
	Pairs     int
	Edges     int
	NumSets   int
	AvgStatic float64
}

// ablationThresholds are the pruning thresholds of the threshold
// ablation. The paper claims thresholds of 100, 500 and 1000 "show no
// significant difference on the results".
var ablationThresholds = []uint64{50, core.DefaultThreshold, 500, 1000}

// windowMultiples are the window ablation's scan windows, in units of
// the benchmark's nominal working-set size; 0 is unbounded (exact).
var windowMultiples = []int{1, 2, 4, 0}

// ablationRow is one row of RunAblations' schedule: either one
// benchmark's threshold, definition and grouped measurements, or the
// window ablation's rows alone.
type ablationRow struct {
	threshold  []ThresholdRow
	definition DefinitionRow
	grouped    GroupedRow
	window     []WindowRow
}

// ablateBenchmark measures one benchmark's Table 2 statistics at every
// ablation threshold, its two working-set definitions (maximal cliques,
// overlapping; greedy partition, disjoint) and how collapsing biased
// branches into class groups (Sections 2/6) shrinks its working sets.
func (s *Suite) ablateBenchmark(name string) (ablationRow, error) {
	a, err := s.Artifacts(name, workload.InputRef)
	if err != nil {
		return ablationRow{}, err
	}
	span := s.stageSpan(name, "ablate")
	defer span.End()
	analyze := func(threshold uint64, def core.SetDefinition) (*core.AnalysisResult, error) {
		return s.analyze(a.Profile, core.AnalysisConfig{
			Threshold:    threshold,
			Definition:   def,
			CliqueBudget: s.cfg.CliqueBudget,
		})
	}

	// mc is the maximal-clique analysis at Config.Threshold, which the
	// threshold, definition and grouped studies all report.
	var row ablationRow
	var mc *core.AnalysisResult
	for _, th := range ablationThresholds {
		res, err := analyze(th, core.MaximalCliques)
		if err != nil {
			return ablationRow{}, err
		}
		if th == s.cfg.Threshold {
			mc = res
		}
		row.threshold = append(row.threshold, ThresholdRow{
			Benchmark:  name,
			Threshold:  th,
			NumSets:    res.NumSets(),
			AvgStatic:  res.AvgStaticSize(),
			AvgDynamic: res.AvgDynamicSize(),
			Edges:      res.Graph.NumEdges(),
		})
	}

	if mc == nil {
		if mc, err = analyze(s.cfg.Threshold, core.MaximalCliques); err != nil {
			return ablationRow{}, err
		}
	}
	gp, err := analyze(s.cfg.Threshold, core.GreedyPartition)
	if err != nil {
		return ablationRow{}, err
	}
	row.definition = DefinitionRow{
		Benchmark:       name,
		CliqueSets:      mc.NumSets(),
		CliqueAvgStatic: mc.AvgStaticSize(),
		PartitionSets:   gp.NumSets(),
		PartitionAvg:    gp.AvgStaticSize(),
		CliqueTruncated: mc.Truncated,
	}

	grp, err := core.AnalyzeGrouped(a.Profile, core.AnalysisConfig{
		Threshold:    s.cfg.Threshold,
		CliqueBudget: s.cfg.CliqueBudget,
	}, classify.Default())
	if err != nil {
		return ablationRow{}, err
	}
	row.grouped = GroupedRow{
		Benchmark:      name,
		IndividualSets: mc.NumSets(),
		IndividualAvg:  mc.AvgStaticSize(),
		GroupedSets:    grp.Analysis.NumSets(),
		GroupedAvg:     grp.Analysis.AvgStaticSize(),
		BiasedFraction: grp.Classification.BiasedDynamicFraction(a.Profile),
	}
	return row, nil
}

// ablateWindows profiles one benchmark at each of windowMultiples' scan
// windows, quantifying the documented approximation the harness default
// uses. Each window is its own filtered re-execution, and its profiler
// is dropped before the next pass starts: the row overlaps other
// benchmarks' profiles, so only one window's counters and pending
// prefixes may be live at a time.
func (s *Suite) ablateWindows(benchmark string) ([]WindowRow, error) {
	a, err := s.Artifacts(benchmark, workload.InputRef)
	if err != nil {
		return nil, err
	}
	rows := make([]WindowRow, 0, len(windowMultiples))
	for _, m := range windowMultiples {
		row, err := s.ablateWindow(a, m*a.Spec.WorkingSetSize())
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ablateWindow profiles a's filtered stream at one scan window (0 =
// unbounded) and analyzes the profile.
func (s *Suite) ablateWindow(a *Artifacts, window int) (WindowRow, error) {
	span := s.stageSpan(a.Spec.Name, "ablate-window")
	defer span.End()
	var opts []profile.Option
	if window > 0 {
		opts = append(opts, profile.WithWindow(window))
	}
	prof := profile.NewProfiler(a.Spec.Name, a.Input.Name, opts...)
	if err := s.replayFiltered(a, prof); err != nil {
		return WindowRow{}, err
	}
	p := prof.Profile()
	defer p.Release() // transient: the analysis result is all that is kept
	res, err := s.analyze(p, core.AnalysisConfig{
		Threshold:    s.cfg.Threshold,
		CliqueBudget: s.cfg.CliqueBudget,
	})
	if err != nil {
		return WindowRow{}, err
	}
	return WindowRow{
		Benchmark: a.Spec.Name,
		Window:    window,
		Pairs:     p.Pairs.Len(),
		Edges:     res.Graph.NumEdges(),
		NumSets:   res.NumSets(),
		AvgStatic: res.AvgStaticSize(),
	}, nil
}

// RenderAblationThreshold formats threshold-sensitivity rows.
func RenderAblationThreshold(rows []ThresholdRow, markdown bool) string {
	t := newTextTable("benchmark", "threshold", "edges", "working sets", "avg static", "avg dynamic")
	for _, r := range rows {
		t.add(r.Benchmark, fmt.Sprintf("%d", r.Threshold), fmt.Sprintf("%d", r.Edges),
			fmt.Sprintf("%d", r.NumSets), fmt.Sprintf("%.0f", r.AvgStatic), fmt.Sprintf("%.0f", r.AvgDynamic))
	}
	return t.render(markdown)
}

// RenderAblationDefinition formats definition-comparison rows.
func RenderAblationDefinition(rows []DefinitionRow, markdown bool) string {
	t := newTextTable("benchmark", "clique sets", "clique avg", "partition sets", "partition avg")
	for _, r := range rows {
		sets := fmt.Sprintf("%d", r.CliqueSets)
		if r.CliqueTruncated {
			sets += "+"
		}
		t.add(r.Benchmark, sets, fmt.Sprintf("%.0f", r.CliqueAvgStatic),
			fmt.Sprintf("%d", r.PartitionSets), fmt.Sprintf("%.0f", r.PartitionAvg))
	}
	return t.render(markdown)
}

// RenderAblationGrouped formats grouped-analysis rows.
func RenderAblationGrouped(rows []GroupedRow, markdown bool) string {
	t := newTextTable("benchmark", "individual sets", "individual avg", "grouped sets", "grouped avg", "biased dyn %")
	for _, r := range rows {
		t.add(r.Benchmark,
			fmt.Sprintf("%d", r.IndividualSets), fmt.Sprintf("%.0f", r.IndividualAvg),
			fmt.Sprintf("%d", r.GroupedSets), fmt.Sprintf("%.0f", r.GroupedAvg),
			fmt.Sprintf("%.1f", 100*r.BiasedFraction))
	}
	return t.render(markdown)
}

// RenderAblationWindow formats window-sensitivity rows.
func RenderAblationWindow(rows []WindowRow, markdown bool) string {
	t := newTextTable("benchmark", "window", "pairs", "edges", "working sets", "avg static")
	for _, r := range rows {
		w := "unbounded"
		if r.Window > 0 {
			w = fmt.Sprintf("%d", r.Window)
		}
		t.add(r.Benchmark, w, fmt.Sprintf("%d", r.Pairs), fmt.Sprintf("%d", r.Edges),
			fmt.Sprintf("%d", r.NumSets), fmt.Sprintf("%.0f", r.AvgStatic))
	}
	return t.render(markdown)
}
