package harness

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/workload"
)

// Table1Row reproduces one row of Table 1: benchmark, input set, total
// dynamic branches, dynamic branches analyzed after frequency filtering,
// and coverage.
type Table1Row struct {
	Benchmark       string
	InputSet        string
	TotalDynamic    uint64
	AnalyzedDynamic uint64
	Coverage        float64
	StaticTotal     int
	StaticAnalyzed  int
}

// Table1 runs every benchmark and reports the dynamic branch counts and
// the frequency filter's coverage. Benchmarks run concurrently under
// the suite's worker pool; rows come back in canonical order.
func (s *Suite) Table1() ([]Table1Row, error) {
	names := workload.Names()
	return mapOrdered(s, len(names), s.byDynamicBranches(names), func(i int) (Table1Row, error) {
		a, err := s.Artifacts(names[i], workload.InputRef)
		if err != nil {
			return Table1Row{}, err
		}
		return Table1Row{
			Benchmark:       names[i],
			InputSet:        a.Input.Name,
			TotalDynamic:    a.Filter.DynamicTotal,
			AnalyzedDynamic: a.Filter.DynamicKept,
			Coverage:        a.Filter.Coverage(),
			StaticTotal:     a.Filter.StaticTotal,
			StaticAnalyzed:  a.Filter.StaticKept,
		}, nil
	})
}

// Table2Row reproduces one row of Table 2: working set count and average
// static/dynamic sizes.
type Table2Row struct {
	Benchmark  string
	NumSets    int
	AvgStatic  float64
	AvgDynamic float64
	MaxSet     int
	Truncated  bool
}

// Table2 runs working-set analysis on each Table 2 benchmark, one
// benchmark per worker.
func (s *Suite) Table2() ([]Table2Row, error) {
	return mapOrdered(s, len(Table2Benchmarks), s.byDynamicBranches(Table2Benchmarks), func(i int) (Table2Row, error) {
		name := Table2Benchmarks[i]
		a, err := s.Artifacts(name, workload.InputRef)
		if err != nil {
			return Table2Row{}, err
		}
		s.progressf("working sets %s", name)
		span := s.stageSpan(name, "analyze")
		res, err := s.analyze(a.Profile, core.AnalysisConfig{
			Threshold:    s.cfg.Threshold,
			Definition:   core.MaximalCliques,
			CliqueBudget: s.cfg.CliqueBudget,
			Metrics:      s.cfg.Metrics.Clique(),
		})
		span.End()
		if err != nil {
			return Table2Row{}, err
		}
		return Table2Row{
			Benchmark:  name,
			NumSets:    res.NumSets(),
			AvgStatic:  res.AvgStaticSize(),
			AvgDynamic: res.AvgDynamicSize(),
			MaxSet:     res.MaxSetSize(),
			Truncated:  res.Truncated,
		}, nil
	})
}

// analyze runs working-set analysis of prof under cfg. With
// Config.Check set, the pruned conflict graph and the working sets are
// verified before the result is used.
func (s *Suite) analyze(prof *profile.Profile, cfg core.AnalysisConfig) (*core.AnalysisResult, error) {
	res, err := core.Analyze(prof, cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: analyzing %s: %w", prof.Benchmark, err)
	}
	if s.cfg.Check {
		if err := analysis.VerifyGraph(res.Graph, cfg.Threshold); err != nil {
			return nil, fmt.Errorf("harness: %s: %w", prof.Benchmark, err)
		}
		if err := analysis.VerifyWorkingSets(res); err != nil {
			return nil, fmt.Errorf("harness: %s: %w", prof.Benchmark, err)
		}
	}
	return res, nil
}

// SizeRow reproduces one row of Table 3 or 4: the BHT size at which
// branch allocation beats the conventional baseline.
type SizeRow struct {
	Label        string
	RequiredSize int
	AllocCost    uint64
	BaselineCost uint64
}

// Table3 computes the required BHT sizes for plain branch allocation.
func (s *Suite) Table3() ([]SizeRow, error) {
	return s.sizeTable(false)
}

// Table4 computes the required BHT sizes for allocation with branch
// classification.
func (s *Suite) Table4() ([]SizeRow, error) {
	return s.sizeTable(true)
}

func (s *Suite) sizeTable(classified bool) ([]SizeRow, error) {
	rows := SizedBenchmarkRows()
	return mapOrdered(s, len(rows), func(i int) uint64 { return s.dynamicBranches(rows[i].Name) }, func(i int) (SizeRow, error) {
		sb := rows[i]
		a, err := s.Artifacts(sb.Name, sb.Input)
		if err != nil {
			return SizeRow{}, err
		}
		s.progressf("required size %s (classification=%v)", sb.Label, classified)
		span := s.stageSpan(sb.Name, "size")
		res, err := core.RequiredBHTSize(a.Profile, s.cfg.BaselineBHT, core.AllocationConfig{
			Threshold:         s.cfg.Threshold,
			UseClassification: classified,
		})
		span.End()
		if err != nil {
			return SizeRow{}, fmt.Errorf("harness: sizing %s: %w", sb.Label, err)
		}
		if s.cfg.Check {
			if err := analysis.VerifyGraph(res.Allocation.Graph, s.cfg.Threshold); err != nil {
				return SizeRow{}, fmt.Errorf("harness: %s: %w", sb.Label, err)
			}
			if err := analysis.VerifyAllocation(a.Profile, res.Allocation); err != nil {
				return SizeRow{}, fmt.Errorf("harness: %s: %w", sb.Label, err)
			}
		}
		return SizeRow{
			Label:        sb.Label,
			RequiredSize: res.RequiredSize,
			AllocCost:    res.AllocCost,
			BaselineCost: res.BaselineCost,
		}, nil
	})
}
