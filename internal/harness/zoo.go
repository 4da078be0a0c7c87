package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/predict"
	"repro/internal/vm"
	"repro/internal/workload"
)

// This file runs the predictor zoo experiment: for each zoo member (PAg,
// gshare, TAGE, hashed perceptron) and each first-level table size, the
// misprediction rate under conventional PC-modulo indexing vs. under the
// paper's profile-driven branch allocation. It answers the question the
// paper leaves open — whether working-set-driven allocation still pays
// once the predictor hashes (gshare), tags (TAGE), or weighs
// (perceptron) the history — with the same determinism contract as the
// figures: byte-identical output for any Workers setting.

// ZooRow is one benchmark × predictor kind: misprediction rates under
// both indexing schemes at each configured table size.
type ZooRow struct {
	Benchmark string
	Kind      string
	// Conv[i] and Alloc[i] are the misprediction rates at table size
	// Config.AllocBHTSizes[i] with PC-modulo and allocated indexing.
	Conv, Alloc []float64
	// Branches is the number of simulated conditional branches.
	Branches uint64
}

// Improvement returns the fractional misprediction reduction of
// allocated over conventional indexing at the largest table size.
func (r ZooRow) Improvement() float64 {
	if len(r.Conv) == 0 {
		return 0
	}
	return improvement(r.Conv[len(r.Conv)-1], r.Alloc)
}

// ZooResult is the complete zoo run: rows grouped by predictor kind in
// ZooKinds order (benchmark-major inside each kind), plus one average
// row per kind.
type ZooResult struct {
	Kinds    []string
	Sizes    []int
	Rows     map[string][]ZooRow
	Averages map[string]ZooRow
}

// Zoo runs the predictor zoo over the figure benchmarks, one benchmark
// per worker. kinds selects the predictors (predict.ZooKinds order is
// kept regardless of argument order); empty means the whole zoo.
func (s *Suite) Zoo(kinds ...string) (*ZooResult, error) {
	selected, err := normalizeZooKinds(kinds)
	if err != nil {
		return nil, err
	}
	res := &ZooResult{Kinds: selected, Sizes: s.cfg.AllocBHTSizes}

	perBench, err := mapOrdered(s, len(FigureBenchmarks), s.byDynamicBranches(FigureBenchmarks), func(i int) ([]ZooRow, error) {
		a, err := s.Artifacts(FigureBenchmarks[i], workload.InputRef)
		if err != nil {
			return nil, err
		}
		s.progressf("zoo sims %s (%d predictors)", FigureBenchmarks[i], len(selected))
		return s.convAllocRows(a.Spec.Name, a.Profile, func(k vm.BranchSink) error { return s.replayFull(a, k) }, selected)
	})
	if err != nil {
		return nil, err
	}

	res.Rows = make(map[string][]ZooRow, len(selected))
	for _, rows := range perBench {
		for _, r := range rows {
			res.Rows[r.Kind] = append(res.Rows[r.Kind], r)
		}
	}
	res.Averages = make(map[string]ZooRow, len(selected))
	for _, kind := range selected {
		res.Averages[kind] = averageZooRow(kind, res.Rows[kind], len(s.cfg.AllocBHTSizes))
	}
	return res, nil
}

// SplitZooKinds parses a comma-separated predictor selection, as the
// CLIs' -predictor flag and the service's predictor field carry it;
// empty input yields nil, which Zoo and Graphs read as the whole zoo.
func SplitZooKinds(s string) []string {
	if s == "" {
		return nil
	}
	var kinds []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k != "" {
			kinds = append(kinds, k)
		}
	}
	return kinds
}

// normalizeZooKinds validates the requested kinds and returns them in
// canonical ZooKinds order, deduplicated; empty input selects all.
func normalizeZooKinds(kinds []string) ([]string, error) {
	if len(kinds) == 0 {
		return predict.ZooKinds(), nil
	}
	want := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		if !predict.ValidZooKind(k) {
			return nil, fmt.Errorf("harness: unknown zoo predictor %q (have %v)", k, predict.ZooKinds())
		}
		want[k] = true
	}
	var out []string
	for _, k := range predict.ZooKinds() {
		if want[k] {
			out = append(out, k)
		}
	}
	return out, nil
}

// averageZooRow computes the arithmetic mean across one kind's rows.
func averageZooRow(kind string, rows []ZooRow, sizes int) ZooRow {
	mean, branches := meanRates(rows, 2*sizes, func(r ZooRow) ([]float64, uint64) {
		return append(append([]float64{}, r.Conv...), r.Alloc...), r.Branches
	})
	return ZooRow{Benchmark: "average", Kind: kind, Conv: mean[:sizes], Alloc: mean[sizes:], Branches: branches}
}

// RenderZoo formats the zoo run: one table per predictor kind with a
// conv/alloc column pair per table size, then a cross-zoo summary of the
// allocated-indexing improvement at the largest size.
func RenderZoo(res *ZooResult, markdown bool) string {
	out := renderConvAllocTables(res.Kinds, res.Sizes, []string{"benchmark"}, func(kind string) []convAllocRow {
		var rows []convAllocRow
		for _, r := range append(append([]ZooRow{}, res.Rows[kind]...), res.Averages[kind]) {
			rows = append(rows, convAllocRow{lead: []string{r.Benchmark}, conv: r.Conv, alloc: r.Alloc})
		}
		return rows
	}, markdown)

	sum := newTextTable("predictor", "avg conv", "avg alloc", "improvement")
	last := len(res.Sizes) - 1
	for _, kind := range res.Kinds {
		avg := res.Averages[kind]
		sum.add(kind,
			fmt.Sprintf("%.4f", avg.Conv[last]),
			fmt.Sprintf("%.4f", avg.Alloc[last]),
			fmt.Sprintf("%+.1f%%", 100*avg.Improvement()),
		)
	}
	out += fmt.Sprintf("[summary at table size %d]\n", res.Sizes[last])
	return out + sum.render(markdown)
}

// RunZoo renders the predictor zoo experiment to w. kinds empty runs the
// whole zoo.
func RunZoo(s *Suite, w io.Writer, markdown bool, kinds ...string) error {
	res, err := s.Zoo(kinds...)
	if err != nil {
		return err
	}
	section(w, "Extended: predictor zoo — allocated vs conventional indexing")
	_, _ = io.WriteString(w, RenderZoo(res, markdown))
	return nil
}
