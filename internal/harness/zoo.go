package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
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
	if len(r.Conv) == 0 || r.Conv[len(r.Conv)-1] == 0 {
		return 0
	}
	last := len(r.Conv) - 1
	return (r.Conv[last] - r.Alloc[last]) / r.Conv[last]
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
		return s.zooRows(a, selected)
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

// zooRows simulates every (kind, size, indexing) configuration over one
// benchmark's full branch stream — a single replay drives all sims.
func (s *Suite) zooRows(a *Artifacts, kinds []string) ([]ZooRow, error) {
	sizes := s.cfg.AllocBHTSizes

	// One allocation per table size, shared by every predictor kind:
	// the allocation is a property of the branch working sets, not of
	// the predictor consuming it. Plain allocation (no classification)
	// matches Figure 3, the apples-to-apples comparison.
	allocs := make([]*core.AllocationMap, len(sizes))
	for i, size := range sizes {
		alloc, err := core.Allocate(a.Profile, core.AllocationConfig{
			TableSize: size,
			Threshold: s.cfg.Threshold,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: allocating %s at %d: %w", a.Spec.Name, size, err)
		}
		allocs[i] = alloc.Map
	}

	type simPair struct{ conv, alloc *predict.Sim }
	pairs := make([][]simPair, len(kinds))
	sinks := make(vm.MultiSink, 0, 2*len(kinds)*len(sizes))
	for ki, kind := range kinds {
		pairs[ki] = make([]simPair, len(sizes))
		for si, size := range sizes {
			cfg := predict.ZooConfig{TableSize: size, PHTEntries: s.cfg.PHTEntries}
			conv, err := predict.NewZooPredictor(kind, predict.PCModIndexer{Entries: size}, cfg)
			if err != nil {
				return nil, err
			}
			allocated, err := predict.NewZooPredictor(kind, predict.AllocIndexer{Map: allocs[si]}, cfg)
			if err != nil {
				return nil, err
			}
			pairs[ki][si] = simPair{conv: predict.NewSim(conv), alloc: predict.NewSim(allocated)}
			sinks = append(sinks, pairs[ki][si].conv, pairs[ki][si].alloc)
		}
	}

	span := s.stageSpan(a.Spec.Name, "simulate")
	err := s.replayFull(a, sinks)
	span.End()
	if err != nil {
		return nil, err
	}
	pm := s.cfg.Metrics.Predict()

	rows := make([]ZooRow, len(kinds))
	for ki, kind := range kinds {
		row := ZooRow{
			Benchmark: a.Spec.Name,
			Kind:      kind,
			Conv:      make([]float64, len(sizes)),
			Alloc:     make([]float64, len(sizes)),
		}
		for si := range sizes {
			p := pairs[ki][si]
			p.conv.FlushMetrics(pm)
			p.alloc.FlushMetrics(pm)
			row.Conv[si] = p.conv.MispredictRate()
			row.Alloc[si] = p.alloc.MispredictRate()
			row.Branches = p.conv.Branches()
		}
		rows[ki] = row
	}
	return rows, nil
}

// averageZooRow computes the arithmetic mean across one kind's rows.
func averageZooRow(kind string, rows []ZooRow, sizes int) ZooRow {
	avg := ZooRow{Benchmark: "average", Kind: kind, Conv: make([]float64, sizes), Alloc: make([]float64, sizes)}
	if len(rows) == 0 {
		return avg
	}
	for _, r := range rows {
		avg.Branches += r.Branches
		for i := range r.Conv {
			avg.Conv[i] += r.Conv[i]
			avg.Alloc[i] += r.Alloc[i]
		}
	}
	n := float64(len(rows))
	for i := range avg.Conv {
		avg.Conv[i] /= n
		avg.Alloc[i] /= n
	}
	return avg
}

// RenderZoo formats the zoo run: one table per predictor kind with a
// conv/alloc column pair per table size, then a cross-zoo summary of the
// allocated-indexing improvement at the largest size.
func RenderZoo(res *ZooResult, markdown bool) string {
	var out string
	for _, kind := range res.Kinds {
		header := []string{"benchmark"}
		for _, size := range res.Sizes {
			header = append(header, fmt.Sprintf("conv-%d", size), fmt.Sprintf("alloc-%d", size))
		}
		t := newTextTable(header...)
		for _, r := range append(append([]ZooRow{}, res.Rows[kind]...), res.Averages[kind]) {
			cells := []string{r.Benchmark}
			for i := range res.Sizes {
				cells = append(cells, fmt.Sprintf("%.4f", r.Conv[i]), fmt.Sprintf("%.4f", r.Alloc[i]))
			}
			t.add(cells...)
		}
		out += fmt.Sprintf("[%s]\n", kind)
		if markdown {
			out += t.markdown()
		} else {
			out += t.String()
		}
		out += "\n"
	}

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
	if markdown {
		return out + sum.markdown()
	}
	return out + sum.String()
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
