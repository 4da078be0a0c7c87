package harness

import (
	"fmt"
	"io"

	"repro/internal/pipeline"
)

// This file composes the full experiment runs cmd/tables emits. The
// compositions live in the harness so that the determinism tests can
// assert byte-identical output for the exact byte stream the CLI
// produces, across worker counts.

// AblationBenchmarks is the representative spread the ablation studies
// run on: one small, one medium, one large program.
var AblationBenchmarks = []string{"compress", "li", "gcc"}

// RunAll renders every table and figure of the paper's evaluation to w
// — the cmd/tables output without -table/-figure filters.
func RunAll(s *Suite, w io.Writer, markdown bool) error {
	if err := RunTable(s, w, 1, markdown); err != nil {
		return err
	}
	if err := RunTable(s, w, 2, markdown); err != nil {
		return err
	}
	if err := RunTable(s, w, 3, markdown); err != nil {
		return err
	}
	if err := RunTable(s, w, 4, markdown); err != nil {
		return err
	}
	if err := RunFigure(s, w, 3, markdown); err != nil {
		return err
	}
	return RunFigure(s, w, 4, markdown)
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n## %s\n\n", title)
}

// RunTable renders one numbered table (1-4) to w.
func RunTable(s *Suite, w io.Writer, table int, markdown bool) error {
	switch table {
	case 1:
		rows, err := s.Table1()
		if err != nil {
			return err
		}
		section(w, "Table 1: benchmarks, dynamic branches, and analysis coverage")
		_, _ = io.WriteString(w, RenderTable1(rows, markdown))
	case 2:
		rows, err := s.Table2()
		if err != nil {
			return err
		}
		section(w, "Table 2: branch working set sizes")
		_, _ = io.WriteString(w, RenderTable2(rows, markdown))
	case 3:
		rows, err := s.Table3()
		if err != nil {
			return err
		}
		section(w, "Table 3: BHT size required for branch allocation")
		_, _ = io.WriteString(w, RenderSizeTable(rows, s.Config().BaselineBHT, markdown))
	case 4:
		rows, err := s.Table4()
		if err != nil {
			return err
		}
		section(w, "Table 4: BHT size required with branch classification")
		_, _ = io.WriteString(w, RenderSizeTable(rows, s.Config().BaselineBHT, markdown))
	default:
		return fmt.Errorf("harness: no table %d (have 1-4)", table)
	}
	return nil
}

// RunFigure renders one numbered figure (3 or 4) to w.
func RunFigure(s *Suite, w io.Writer, figure int, markdown bool) error {
	var (
		f     *FigureResult
		title string
		err   error
	)
	switch figure {
	case 3:
		f, err = s.Figure3()
		title = "Figure 3: misprediction rates, branch allocation"
	case 4:
		f, err = s.Figure4()
		title = "Figure 4: misprediction rates, allocation with classification"
	default:
		return fmt.Errorf("harness: no figure %d (have 3 and 4)", figure)
	}
	if err != nil {
		return err
	}
	section(w, title)
	_, _ = io.WriteString(w, RenderFigure(f, markdown))
	fmt.Fprintf(w, "\naverage improvement of alloc-%d over conventional: %.1f%%\n",
		f.Sizes[len(f.Sizes)-1], 100*f.Average.Improvement())
	return nil
}

// RunAblations renders the ablation studies to w. It runs them as one
// mapOrdered schedule: a row per ablation benchmark computes all three
// of its per-benchmark studies, and one more row runs li's window
// ablation, weighted by its passes so that it starts beside the
// heaviest benchmark row. No row calls mapOrdered again: a nested pool
// would multiply the workers, Workers of them in each running row.
func RunAblations(s *Suite, w io.Writer, markdown bool) error {
	n := len(AblationBenchmarks)
	weight := func(i int) uint64 {
		if i == n {
			return uint64(len(windowMultiples)) * s.dynamicBranches("li")
		}
		return s.dynamicBranches(AblationBenchmarks[i])
	}
	rows, err := mapOrdered(s, n+1, weight, func(i int) (ablationRow, error) {
		if i == n {
			win, err := s.ablateWindows("li")
			return ablationRow{window: win}, err
		}
		return s.ablateBenchmark(AblationBenchmarks[i])
	})
	if err != nil {
		return err
	}
	var (
		th  []ThresholdRow
		def []DefinitionRow
		grp []GroupedRow
	)
	for _, r := range rows[:n] {
		th = append(th, r.threshold...)
		def = append(def, r.definition)
		grp = append(grp, r.grouped)
	}
	section(w, "Ablation: pruning threshold sensitivity (paper Section 4.2 claim)")
	_, _ = io.WriteString(w, RenderAblationThreshold(th, markdown))
	section(w, "Ablation: working-set definition (maximal cliques vs greedy partition)")
	_, _ = io.WriteString(w, RenderAblationDefinition(def, markdown))
	section(w, "Ablation: pre-classified branch groups (paper Sections 2/6 extension)")
	_, _ = io.WriteString(w, RenderAblationGrouped(grp, markdown))
	section(w, "Ablation: interleave scan window (this reproduction's optimization)")
	_, _ = io.WriteString(w, RenderAblationWindow(rows[n].window, markdown))
	return nil
}

// RunExtras renders the extended experiments to w: the related-work
// comparison and the pipeline costs of its PAg configurations.
func RunExtras(s *Suite, w io.Writer, markdown bool) error {
	model := pipeline.Deep()
	cmp, costs, err := s.Extras(model)
	if err != nil {
		return err
	}
	section(w, "Extended: branch allocation vs hardware anti-interference schemes")
	_, _ = io.WriteString(w, RenderComparison(cmp, markdown))
	section(w, "Extended: modeled pipeline cost (deeply pipelined front end)")
	_, _ = io.WriteString(w, RenderPipeline(costs, model, markdown))
	return nil
}
