package harness

import (
	"fmt"
	"io"

	"repro/internal/charact"
	"repro/internal/workload"
)

// This file runs the predictability-characterization report: a
// charact.Collector rides each benchmark's full branch stream — the
// same deterministic MultiSink replay the profiler and the zoo share —
// and the per-branch bias/entropy/history-sensitivity numbers are
// aggregated into one row per benchmark, classic suite and graph
// family alike. The report explains the working-set and zoo tables
// next to it: a benchmark whose entropy survives history conditioning
// is hard for every predictor no matter how its table is indexed.

// CharactRow is one benchmark's aggregated predictability profile.
type CharactRow struct {
	Benchmark string
	// Static and Dynamic are the branch-site and event counts.
	Static  int
	Dynamic uint64
	// TakenRate is the dynamic taken fraction.
	TakenRate float64
	// Entropy is the count-weighted mean direction entropy; LocalCond
	// and GlobalCond are the means after conditioning on
	// charact.MaxHistory bits of local/global history.
	Entropy    float64
	LocalCond  float64
	GlobalCond float64
	// HistorySensitivity is Entropy minus the best conditional mean.
	HistorySensitivity float64
	// HardFraction is the share of dynamic branches whose conditional
	// entropy stays above 0.5 bits under the best history.
	HardFraction float64
}

// charactTargets enumerates the report's rows: the figure benchmarks,
// then every graph benchmark, in fixed order.
func charactTargets() []struct {
	name  string
	graph bool
} {
	var targets []struct {
		name  string
		graph bool
	}
	for _, b := range FigureBenchmarks {
		targets = append(targets, struct {
			name  string
			graph bool
		}{b, false})
	}
	for _, g := range workload.GraphNames() {
		targets = append(targets, struct {
			name  string
			graph bool
		}{g, true})
	}
	return targets
}

// Charact computes the characterization report over the figure
// benchmarks and the graph family, one benchmark per worker. Rows are
// assembled in fixed order, so output is byte-identical for any
// Workers setting (the collector consumes the replayed stream, which
// does not depend on it).
func (s *Suite) Charact() ([]CharactRow, error) {
	targets := charactTargets()
	weight := func(i int) uint64 {
		if targets[i].graph {
			return 0 // graph rows keep index order, after the benchmarks
		}
		return s.dynamicBranches(targets[i].name)
	}
	return mapOrdered(s, len(targets), weight, func(i int) (CharactRow, error) {
		target := targets[i]
		col := charact.NewCollector()
		var taken float64
		if target.graph {
			a, err := s.GraphArtifacts(target.name)
			if err != nil {
				return CharactRow{}, err
			}
			if err := s.replayGraph(a, col); err != nil {
				return CharactRow{}, err
			}
			taken = a.Stats.TakenRate()
		} else {
			a, err := s.Artifacts(target.name, workload.InputRef)
			if err != nil {
				return CharactRow{}, err
			}
			if err := s.replayFull(a, col); err != nil {
				return CharactRow{}, err
			}
			taken = a.VMStats.TakenRate()
		}
		s.progressf("charact %s (%d events)", target.name, col.Events())
		sum := col.Report().Summary()
		return CharactRow{
			Benchmark:          target.name,
			Static:             sum.Static,
			Dynamic:            sum.Dynamic,
			TakenRate:          taken,
			Entropy:            sum.Entropy,
			LocalCond:          sum.LocalCond,
			GlobalCond:         sum.GlobalCond,
			HistorySensitivity: sum.HistorySensitivity(),
			HardFraction:       sum.HardFraction,
		}, nil
	})
}

// RenderCharact formats the characterization report.
func RenderCharact(rows []CharactRow, markdown bool) string {
	k := charact.MaxHistory
	t := newTextTable("benchmark", "branches", "static", "taken", "entropy",
		fmt.Sprintf("H|local%d", k), fmt.Sprintf("H|global%d", k), "hist-sens", "hard")
	for _, r := range rows {
		t.add(
			r.Benchmark,
			fmt.Sprintf("%d", r.Dynamic),
			fmt.Sprintf("%d", r.Static),
			fmt.Sprintf("%.3f", r.TakenRate),
			fmt.Sprintf("%.3f", r.Entropy),
			fmt.Sprintf("%.3f", r.LocalCond),
			fmt.Sprintf("%.3f", r.GlobalCond),
			fmt.Sprintf("%.3f", r.HistorySensitivity),
			fmt.Sprintf("%.1f%%", 100*r.HardFraction),
		)
	}
	if markdown {
		return t.markdown()
	}
	return t.String()
}

// RunCharact renders the predictability-characterization report to w.
func RunCharact(s *Suite, w io.Writer, markdown bool) error {
	rows, err := s.Charact()
	if err != nil {
		return err
	}
	section(w, "Extended: branch predictability characterization (bias, entropy, history sensitivity)")
	_, _ = io.WriteString(w, RenderCharact(rows, markdown))
	return nil
}
