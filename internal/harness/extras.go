package harness

import (
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/predict"
	"repro/internal/vm"
	"repro/internal/workload"
)

// This file holds the extended experiments beyond the paper's own
// evaluation: a comparison of branch allocation against the hardware
// anti-interference alternatives its related-work section discusses
// (set-partitioned second levels, the agree predictor, index hashing,
// tournament selection), and a pipeline cost model translating the
// accuracy differences into CPI.

// ComparisonRow holds one benchmark's misprediction rates across the
// contrasted schemes, all at comparable second-level budgets.
type ComparisonRow struct {
	Benchmark string
	// Conventional is PAg with PC-modulo BHT indexing (the baseline).
	Conventional float64
	// Allocated is PAg with classification-aware branch allocation —
	// the paper's compile-time answer to interference.
	Allocated float64
	// Agree is the Sprangle et al. biasing-bit scheme — the hardware
	// answer to PHT interference.
	Agree float64
	// Gshare is McFarling's index-hashing answer.
	Gshare float64
	// GAs partitions the second level by PC set.
	GAs float64
	// Combining is a bimodal/PAg tournament.
	Combining float64
	// InterferenceFree is the PAg upper bound.
	InterferenceFree float64
}

// PipelineRow holds the modeled execution cost of one benchmark under
// three predictor configurations.
type PipelineRow struct {
	Benchmark string
	// CPIConventional, CPIAllocated and CPIIdeal are modeled cycles per
	// instruction for conventional PAg, allocated (classified) PAg, and
	// the interference-free reference.
	CPIConventional, CPIAllocated, CPIIdeal float64
	// Speedup is conventional cycles / allocated cycles.
	Speedup float64
	// MPKIConventional and MPKIAllocated are mispredictions per 1000
	// instructions.
	MPKIConventional, MPKIAllocated float64
}

// Extras runs the related-work predictor comparison over the figure
// benchmarks, one benchmark per worker, and evaluates model on three of
// its configurations: conventional, allocated (classified) and
// interference-free PAg. Each benchmark is replayed once for both.
func (s *Suite) Extras(model pipeline.Model) ([]ComparisonRow, []PipelineRow, error) {
	type row struct {
		cmp  ComparisonRow
		cost PipelineRow
	}
	rows, err := mapOrdered(s, len(FigureBenchmarks), s.byDynamicBranches(FigureBenchmarks), func(i int) (row, error) {
		a, err := s.Artifacts(FigureBenchmarks[i], workload.InputRef)
		if err != nil {
			return row{}, err
		}
		s.progressf("comparison sims %s", FigureBenchmarks[i])
		cmp, cost, err := s.extrasRow(a, model)
		return row{cmp, cost}, err
	})
	if err != nil {
		return nil, nil, err
	}
	cmp := make([]ComparisonRow, len(rows))
	costs := make([]PipelineRow, len(rows))
	for i, r := range rows {
		cmp[i], costs[i] = r.cmp, r.cost
	}
	return cmp, costs, nil
}

// extrasRow simulates one benchmark's comparison configurations: the
// paper's three (paperPredictors over a classified allocation at the
// baseline size) and the hardware schemes at comparable budgets.
func (s *Suite) extrasRow(a *Artifacts, model pipeline.Model) (ComparisonRow, PipelineRow, error) {
	maps, err := s.allocMaps(a.Profile, []int{s.cfg.BaselineBHT}, true)
	if err != nil {
		return ComparisonRow{}, PipelineRow{}, err
	}
	bim, err := predict.NewBimodal(2048)
	if err != nil {
		return ComparisonRow{}, PipelineRow{}, err
	}
	pag, err := predict.NewPAg(predict.PCModIndexer{Entries: s.cfg.BaselineBHT}, s.cfg.PHTEntries)
	if err != nil {
		return ComparisonRow{}, PipelineRow{}, err
	}
	ps := s.paperPredictors(maps)
	ps.add(predict.NewAgree(s.cfg.PHTEntries, s.cfg.BaselineBHT))
	ps.add(predict.NewGshare(s.cfg.PHTEntries))
	ps.add(predict.NewGAs(4, s.cfg.PHTEntries/4))
	ps.add(predict.NewCombining(bim, pag, 1024))
	sims, err := s.simulate(a.Spec.Name, func(k vm.BranchSink) error { return s.replayFull(a, k) }, ps)
	if err != nil {
		return ComparisonRow{}, PipelineRow{}, err
	}
	conv, ifree, allocated := sims[0], sims[1], sims[2]
	cmp := ComparisonRow{
		Benchmark:        a.Spec.Name,
		Conventional:     conv.MispredictRate(),
		Allocated:        allocated.MispredictRate(),
		Agree:            sims[3].MispredictRate(),
		Gshare:           sims[4].MispredictRate(),
		GAs:              sims[5].MispredictRate(),
		Combining:        sims[6].MispredictRate(),
		InterferenceFree: ifree.MispredictRate(),
	}

	st := a.VMStats
	costConv := model.Evaluate(st.Instructions, st.CondBranches, st.Taken, conv.Mispredicts())
	costAlloc := model.Evaluate(st.Instructions, st.CondBranches, st.Taken, allocated.Mispredicts())
	costIdeal := model.Evaluate(st.Instructions, st.CondBranches, st.Taken, ifree.Mispredicts())
	return cmp, PipelineRow{
		Benchmark:        a.Spec.Name,
		CPIConventional:  costConv.CPI(),
		CPIAllocated:     costAlloc.CPI(),
		CPIIdeal:         costIdeal.CPI(),
		Speedup:          pipeline.Speedup(costConv, costAlloc),
		MPKIConventional: costConv.MPKI(),
		MPKIAllocated:    costAlloc.MPKI(),
	}, nil
}

// RenderComparison formats the related-work comparison.
func RenderComparison(rows []ComparisonRow, markdown bool) string {
	t := newTextTable("benchmark", "PAg-conv", "PAg-alloc+class", "agree", "gshare", "GAs", "combining", "interference-free")
	for _, r := range rows {
		t.add(r.Benchmark,
			fmt.Sprintf("%.4f", r.Conventional),
			fmt.Sprintf("%.4f", r.Allocated),
			fmt.Sprintf("%.4f", r.Agree),
			fmt.Sprintf("%.4f", r.Gshare),
			fmt.Sprintf("%.4f", r.GAs),
			fmt.Sprintf("%.4f", r.Combining),
			fmt.Sprintf("%.4f", r.InterferenceFree),
		)
	}
	return t.render(markdown)
}

// RenderPipeline formats the pipeline cost table.
func RenderPipeline(rows []PipelineRow, model pipeline.Model, markdown bool) string {
	t := newTextTable("benchmark", "CPI conv", "CPI alloc", "CPI ideal", "speedup", "MPKI conv", "MPKI alloc")
	for _, r := range rows {
		t.add(r.Benchmark,
			fmt.Sprintf("%.3f", r.CPIConventional),
			fmt.Sprintf("%.3f", r.CPIAllocated),
			fmt.Sprintf("%.3f", r.CPIIdeal),
			fmt.Sprintf("%.3fx", r.Speedup),
			fmt.Sprintf("%.2f", r.MPKIConventional),
			fmt.Sprintf("%.2f", r.MPKIAllocated),
		)
	}
	head := fmt.Sprintf("(model: %d-cycle mispredict penalty, %d-cycle taken bubble)\n",
		model.MispredictPenalty, model.TakenPenalty)
	return head + t.render(markdown)
}
