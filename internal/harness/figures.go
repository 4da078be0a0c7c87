package harness

import (
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
func (r FigureRow) Improvement() float64 { return improvement(r.Conventional, r.Alloc) }

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

// figureRow simulates every predictor configuration of one figure
// (paperPredictors over one allocation per size) over one benchmark's
// full branch stream.
func (s *Suite) figureRow(a *Artifacts, classified bool) (FigureRow, error) {
	maps, err := s.allocMaps(a.Profile, s.cfg.AllocBHTSizes, classified)
	if err != nil {
		return FigureRow{}, err
	}
	sims, err := s.simulate(a.Spec.Name, func(k vm.BranchSink) error { return s.replayFull(a, k) }, s.paperPredictors(maps))
	if err != nil {
		return FigureRow{}, err
	}
	return FigureRow{
		Benchmark:        a.Spec.Name,
		Conventional:     sims[0].MispredictRate(),
		Alloc:            rates(sims[2:]),
		InterferenceFree: sims[1].MispredictRate(),
		Branches:         sims[0].Branches(),
	}, nil
}

// averageRow computes the arithmetic mean across rows.
func averageRow(rows []FigureRow, sizes int) FigureRow {
	mean, branches := meanRates(rows, 2+sizes, func(r FigureRow) ([]float64, uint64) {
		return append([]float64{r.Conventional, r.InterferenceFree}, r.Alloc...), r.Branches
	})
	return FigureRow{Benchmark: "average", Conventional: mean[0], Alloc: mean[2:], InterferenceFree: mean[1], Branches: branches}
}
