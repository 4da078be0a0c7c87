package harness

import (
	"fmt"

	"repro/internal/core"
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

// Comparison runs the related-work predictor comparison over the figure
// benchmark set, one benchmark per worker.
func (s *Suite) Comparison() ([]ComparisonRow, error) {
	return mapOrdered(s, len(FigureBenchmarks), s.byDynamicBranches(FigureBenchmarks), func(i int) (ComparisonRow, error) {
		a, err := s.Artifacts(FigureBenchmarks[i], workload.InputRef)
		if err != nil {
			return ComparisonRow{}, err
		}
		s.progressf("comparison sims %s", FigureBenchmarks[i])
		return s.comparisonRow(a)
	})
}

func (s *Suite) comparisonRow(a *Artifacts) (ComparisonRow, error) {
	row := ComparisonRow{Benchmark: a.Spec.Name}

	alloc, err := core.Allocate(a.Profile, core.AllocationConfig{
		TableSize:         s.cfg.BaselineBHT,
		Threshold:         s.cfg.Threshold,
		UseClassification: true,
	})
	if err != nil {
		return row, err
	}

	conv, err := predict.NewPAg(predict.PCModIndexer{Entries: s.cfg.BaselineBHT}, s.cfg.PHTEntries)
	if err != nil {
		return row, err
	}
	allocated, err := predict.NewPAg(predict.AllocIndexer{Map: alloc.Map}, s.cfg.PHTEntries)
	if err != nil {
		return row, err
	}
	agree, err := predict.NewAgree(s.cfg.PHTEntries, s.cfg.BaselineBHT)
	if err != nil {
		return row, err
	}
	gshare, err := predict.NewGshare(s.cfg.PHTEntries)
	if err != nil {
		return row, err
	}
	gas, err := predict.NewGAs(4, s.cfg.PHTEntries/4)
	if err != nil {
		return row, err
	}
	bim, err := predict.NewBimodal(2048)
	if err != nil {
		return row, err
	}
	pagForComb, err := predict.NewPAg(predict.PCModIndexer{Entries: s.cfg.BaselineBHT}, s.cfg.PHTEntries)
	if err != nil {
		return row, err
	}
	comb, err := predict.NewCombining(bim, pagForComb, 1024)
	if err != nil {
		return row, err
	}
	ifree, err := predict.NewPAg(predict.NewIdealIndexer(), s.cfg.PHTEntries)
	if err != nil {
		return row, err
	}

	sims := []*predict.Sim{
		predict.NewSim(conv), predict.NewSim(allocated), predict.NewSim(agree),
		predict.NewSim(gshare), predict.NewSim(gas), predict.NewSim(comb),
		predict.NewSim(ifree),
	}
	fan := make(vm.MultiSink, len(sims))
	for i, sim := range sims {
		fan[i] = sim
	}
	if err := s.replayFull(a, fan); err != nil {
		return row, err
	}

	row.Conventional = sims[0].MispredictRate()
	row.Allocated = sims[1].MispredictRate()
	row.Agree = sims[2].MispredictRate()
	row.Gshare = sims[3].MispredictRate()
	row.GAs = sims[4].MispredictRate()
	row.Combining = sims[5].MispredictRate()
	row.InterferenceFree = sims[6].MispredictRate()
	return row, nil
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

// PipelineCosts evaluates the pipeline model over the figure
// benchmarks, one benchmark per worker.
func (s *Suite) PipelineCosts(model pipeline.Model) ([]PipelineRow, error) {
	return mapOrdered(s, len(FigureBenchmarks), s.byDynamicBranches(FigureBenchmarks), func(i int) (PipelineRow, error) {
		name := FigureBenchmarks[i]
		a, err := s.Artifacts(name, workload.InputRef)
		if err != nil {
			return PipelineRow{}, err
		}
		s.progressf("pipeline costs %s", name)

		alloc, err := core.Allocate(a.Profile, core.AllocationConfig{
			TableSize:         s.cfg.BaselineBHT,
			Threshold:         s.cfg.Threshold,
			UseClassification: true,
		})
		if err != nil {
			return PipelineRow{}, err
		}
		conv, err := predict.NewPAg(predict.PCModIndexer{Entries: s.cfg.BaselineBHT}, s.cfg.PHTEntries)
		if err != nil {
			return PipelineRow{}, err
		}
		allocated, err := predict.NewPAg(predict.AllocIndexer{Map: alloc.Map}, s.cfg.PHTEntries)
		if err != nil {
			return PipelineRow{}, err
		}
		ifree, err := predict.NewPAg(predict.NewIdealIndexer(), s.cfg.PHTEntries)
		if err != nil {
			return PipelineRow{}, err
		}
		sims := []*predict.Sim{predict.NewSim(conv), predict.NewSim(allocated), predict.NewSim(ifree)}
		fan := make(vm.MultiSink, len(sims))
		for i, sim := range sims {
			fan[i] = sim
		}
		if err := s.replayFull(a, fan); err != nil {
			return PipelineRow{}, err
		}

		st := a.VMStats
		costConv := model.Evaluate(st.Instructions, st.CondBranches, st.Taken, sims[0].Mispredicts())
		costAlloc := model.Evaluate(st.Instructions, st.CondBranches, st.Taken, sims[1].Mispredicts())
		costIdeal := model.Evaluate(st.Instructions, st.CondBranches, st.Taken, sims[2].Mispredicts())
		return PipelineRow{
			Benchmark:        name,
			CPIConventional:  costConv.CPI(),
			CPIAllocated:     costAlloc.CPI(),
			CPIIdeal:         costIdeal.CPI(),
			Speedup:          pipeline.Speedup(costConv, costAlloc),
			MPKIConventional: costConv.MPKI(),
			MPKIAllocated:    costAlloc.MPKI(),
		}, nil
	})
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
	if markdown {
		return t.markdown()
	}
	return t.String()
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
	if markdown {
		return head + t.markdown()
	}
	return head + t.String()
}
