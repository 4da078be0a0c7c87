package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/vm"
	"repro/internal/workload"
)

// FigureRow is one benchmark's misprediction-rate comparison from
// Figure 3 (plain allocation) or Figure 4 (with classification):
// conventional PAg-1024 vs. allocation-indexed PAg at several BHT sizes
// vs. the interference-free reference.
type FigureRow struct {
	Benchmark string
	// Conventional is the PAg baseline's misprediction rate.
	Conventional float64
	// Alloc holds the allocation-indexed rates, one per configured
	// allocated BHT size (Config.AllocBHTSizes order).
	Alloc []float64
	// InterferenceFree is the per-branch-history reference rate.
	InterferenceFree float64
	// Branches is the number of simulated conditional branches.
	Branches uint64
}

// Improvement returns the fractional misprediction reduction of the
// largest allocated configuration vs. the conventional baseline — the
// paper's headline "improved by 16%" metric for the 1024-entry case.
func (r FigureRow) Improvement() float64 {
	if r.Conventional == 0 || len(r.Alloc) == 0 {
		return 0
	}
	last := r.Alloc[len(r.Alloc)-1]
	return (r.Conventional - last) / r.Conventional
}

// FigureResult is a complete figure: per-benchmark rows plus the
// arithmetic-mean row the paper plots as "average".
type FigureResult struct {
	Classified bool
	Sizes      []int
	Rows       []FigureRow
	Average    FigureRow
}

// Figure3 reproduces Figure 3: allocation without classification.
func (s *Suite) Figure3() (*FigureResult, error) { return s.figure(false) }

// Figure4 reproduces Figure 4: allocation with branch classification.
func (s *Suite) Figure4() (*FigureResult, error) { return s.figure(true) }

func (s *Suite) figure(classified bool) (*FigureResult, error) {
	res := &FigureResult{Classified: classified, Sizes: s.cfg.AllocBHTSizes}
	rows, err := mapOrdered(s, len(FigureBenchmarks), s.byDynamicBranches(FigureBenchmarks), func(i int) (FigureRow, error) {
		a, err := s.Artifacts(FigureBenchmarks[i], workload.InputRef)
		if err != nil {
			return FigureRow{}, err
		}
		s.progressf("figure sims %s (classification=%v)", FigureBenchmarks[i], classified)
		return s.figureRow(a, classified)
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.Average = averageRow(res.Rows, len(s.cfg.AllocBHTSizes))
	return res, nil
}

// figureRow simulates every predictor configuration of one figure over
// one benchmark's full branch stream.
func (s *Suite) figureRow(a *Artifacts, classified bool) (FigureRow, error) {
	row := FigureRow{Benchmark: a.Spec.Name}

	// Conventional PAg.
	conv, err := predict.NewPAg(predict.PCModIndexer{Entries: s.cfg.BaselineBHT}, s.cfg.PHTEntries)
	if err != nil {
		return row, err
	}
	convSim := predict.NewSim(conv)

	// Interference-free PAg (per-branch histories; the paper's
	// 2M-entry BHT).
	ifree, err := predict.NewPAg(predict.NewIdealIndexer(), s.cfg.PHTEntries)
	if err != nil {
		return row, err
	}
	ifreeSim := predict.NewSim(ifree)

	// Allocation-indexed PAg at each size. The allocation map comes
	// from the same profile the analysis tables use; branches outside
	// the analyzed set fall back to PC-modulo indexing inside the map,
	// as unrecompiled (library) code would.
	allocSims := make([]*predict.Sim, len(s.cfg.AllocBHTSizes))
	for i, size := range s.cfg.AllocBHTSizes {
		alloc, err := core.Allocate(a.Profile, core.AllocationConfig{
			TableSize:         size,
			Threshold:         s.cfg.Threshold,
			UseClassification: classified,
		})
		if err != nil {
			return row, fmt.Errorf("harness: allocating %s at %d: %w", a.Spec.Name, size, err)
		}
		p, err := predict.NewPAg(predict.AllocIndexer{Map: alloc.Map}, s.cfg.PHTEntries)
		if err != nil {
			return row, err
		}
		allocSims[i] = predict.NewSim(p)
	}

	// One re-execution drives every configuration.
	sinks := make(vm.MultiSink, 0, len(allocSims)+2)
	sinks = append(sinks, convSim, ifreeSim)
	for _, sim := range allocSims {
		sinks = append(sinks, sim)
	}
	span := s.stageSpan(a.Spec.Name, "simulate")
	err = s.replayFull(a, sinks)
	span.End()
	if err != nil {
		return row, err
	}
	pm := s.cfg.Metrics.Predict()
	convSim.FlushMetrics(pm)
	ifreeSim.FlushMetrics(pm)
	for _, sim := range allocSims {
		sim.FlushMetrics(pm)
	}

	row.Conventional = convSim.MispredictRate()
	row.InterferenceFree = ifreeSim.MispredictRate()
	row.Branches = convSim.Branches()
	row.Alloc = make([]float64, len(allocSims))
	for i, sim := range allocSims {
		row.Alloc[i] = sim.MispredictRate()
	}
	return row, nil
}

// averageRow computes the arithmetic mean across rows.
func averageRow(rows []FigureRow, sizes int) FigureRow {
	avg := FigureRow{Benchmark: "average", Alloc: make([]float64, sizes)}
	if len(rows) == 0 {
		return avg
	}
	for _, r := range rows {
		avg.Conventional += r.Conventional
		avg.InterferenceFree += r.InterferenceFree
		avg.Branches += r.Branches
		for i := range r.Alloc {
			avg.Alloc[i] += r.Alloc[i]
		}
	}
	n := float64(len(rows))
	avg.Conventional /= n
	avg.InterferenceFree /= n
	for i := range avg.Alloc {
		avg.Alloc[i] /= n
	}
	return avg
}
