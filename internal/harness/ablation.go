package harness

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/vm"
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

// AblationThreshold measures Table 2 statistics across pruning
// thresholds. The paper claims thresholds of 100, 500 and 1000 "show no
// significant difference on the results".
func (s *Suite) AblationThreshold(benchmarks []string, thresholds []uint64) ([]ThresholdRow, error) {
	if len(thresholds) == 0 {
		thresholds = []uint64{50, core.DefaultThreshold, 500, 1000}
	}
	perBench, err := mapOrdered(s, len(benchmarks), s.byDynamicBranches(benchmarks), func(i int) ([]ThresholdRow, error) {
		name := benchmarks[i]
		a, err := s.Artifacts(name, workload.InputRef)
		if err != nil {
			return nil, err
		}
		var rows []ThresholdRow
		for _, th := range thresholds {
			res, err := core.Analyze(a.Profile, core.AnalysisConfig{
				Threshold:    th,
				CliqueBudget: s.cfg.CliqueBudget,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, ThresholdRow{
				Benchmark:  name,
				Threshold:  th,
				NumSets:    res.NumSets(),
				AvgStatic:  res.AvgStaticSize(),
				AvgDynamic: res.AvgDynamicSize(),
				Edges:      res.Graph.NumEdges(),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []ThresholdRow
	for _, r := range perBench {
		rows = append(rows, r...)
	}
	return rows, nil
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

// AblationDefinition compares maximal-clique (overlapping) and greedy
// partition (disjoint) working sets.
func (s *Suite) AblationDefinition(benchmarks []string) ([]DefinitionRow, error) {
	return mapOrdered(s, len(benchmarks), s.byDynamicBranches(benchmarks), func(i int) (DefinitionRow, error) {
		name := benchmarks[i]
		a, err := s.Artifacts(name, workload.InputRef)
		if err != nil {
			return DefinitionRow{}, err
		}
		mc, err := core.Analyze(a.Profile, core.AnalysisConfig{
			Threshold:    s.cfg.Threshold,
			Definition:   core.MaximalCliques,
			CliqueBudget: s.cfg.CliqueBudget,
		})
		if err != nil {
			return DefinitionRow{}, err
		}
		gp, err := core.Analyze(a.Profile, core.AnalysisConfig{
			Threshold:  s.cfg.Threshold,
			Definition: core.GreedyPartition,
		})
		if err != nil {
			return DefinitionRow{}, err
		}
		return DefinitionRow{
			Benchmark:       name,
			CliqueSets:      mc.NumSets(),
			CliqueAvgStatic: mc.AvgStaticSize(),
			PartitionSets:   gp.NumSets(),
			PartitionAvg:    gp.AvgStaticSize(),
			CliqueTruncated: mc.Truncated,
		}, nil
	})
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

// AblationGrouped measures how collapsing biased branches into class
// groups (Sections 2/6) shrinks the working sets.
func (s *Suite) AblationGrouped(benchmarks []string) ([]GroupedRow, error) {
	return mapOrdered(s, len(benchmarks), s.byDynamicBranches(benchmarks), func(i int) (GroupedRow, error) {
		name := benchmarks[i]
		a, err := s.Artifacts(name, workload.InputRef)
		if err != nil {
			return GroupedRow{}, err
		}
		ind, err := core.Analyze(a.Profile, core.AnalysisConfig{
			Threshold:    s.cfg.Threshold,
			CliqueBudget: s.cfg.CliqueBudget,
		})
		if err != nil {
			return GroupedRow{}, err
		}
		grp, err := core.AnalyzeGrouped(a.Profile, core.AnalysisConfig{
			Threshold:    s.cfg.Threshold,
			CliqueBudget: s.cfg.CliqueBudget,
		}, classify.Default())
		if err != nil {
			return GroupedRow{}, err
		}
		return GroupedRow{
			Benchmark:      name,
			IndividualSets: ind.NumSets(),
			IndividualAvg:  ind.AvgStaticSize(),
			GroupedSets:    grp.Analysis.NumSets(),
			GroupedAvg:     grp.Analysis.AvgStaticSize(),
			BiasedFraction: grp.Classification.BiasedDynamicFraction(a.Profile),
		}, nil
	})
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

// AblationWindow profiles one benchmark at several scan windows,
// quantifying the documented approximation the harness default uses.
func (s *Suite) AblationWindow(benchmark string, windows []int) ([]WindowRow, error) {
	a, err := s.Artifacts(benchmark, workload.InputRef)
	if err != nil {
		return nil, err
	}
	if len(windows) == 0 {
		ws := a.Spec.WorkingSetSize()
		windows = []int{ws, 2 * ws, 4 * ws, 0}
	}
	// One pass over the filtered stream feeds every window's profiler
	// (they are independent consumers), so the ablation costs a single
	// filtered re-execution for all rows.
	profilers := make([]*profile.Profiler, len(windows))
	fan := make(vm.MultiSink, len(windows))
	for i, w := range windows {
		var opts []profile.Option
		if w > 0 {
			opts = append(opts, profile.WithWindow(w))
		}
		profilers[i] = profile.NewProfiler(benchmark, a.Input.Name, opts...)
		fan[i] = profilers[i]
	}
	if err := s.replayFiltered(a, fan); err != nil {
		return nil, err
	}
	var rows []WindowRow
	for i, w := range windows {
		p := profilers[i].Profile()
		res, err := core.Analyze(p, core.AnalysisConfig{
			Threshold:    s.cfg.Threshold,
			CliqueBudget: s.cfg.CliqueBudget,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, WindowRow{
			Benchmark: benchmark,
			Window:    w,
			Pairs:     p.Pairs.Len(),
			Edges:     res.Graph.NumEdges(),
			NumSets:   res.NumSets(),
			AvgStatic: res.AvgStaticSize(),
		})
		p.Release() // transient: the analysis result is all that is kept
	}
	return rows, nil
}

// RenderAblationThreshold formats threshold-sensitivity rows.
func RenderAblationThreshold(rows []ThresholdRow, markdown bool) string {
	t := newTextTable("benchmark", "threshold", "edges", "working sets", "avg static", "avg dynamic")
	for _, r := range rows {
		t.add(r.Benchmark, fmt.Sprintf("%d", r.Threshold), fmt.Sprintf("%d", r.Edges),
			fmt.Sprintf("%d", r.NumSets), fmt.Sprintf("%.0f", r.AvgStatic), fmt.Sprintf("%.0f", r.AvgDynamic))
	}
	if markdown {
		return t.markdown()
	}
	return t.String()
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
	if markdown {
		return t.markdown()
	}
	return t.String()
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
	if markdown {
		return t.markdown()
	}
	return t.String()
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
	if markdown {
		return t.markdown()
	}
	return t.String()
}
