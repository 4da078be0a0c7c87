package harness

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/vm"
)

// This file is the one simulation path every predictor experiment
// takes: allocate one map per table size (allocMaps), build the
// predictor configurations (predictors), and drive them all from one
// replay of the benchmark's branch stream (simulate).

// allocMaps allocates one branch-allocation map per table size from
// prof at the suite's threshold. With Config.Check set, each allocation
// is verified against prof before it is used.
func (s *Suite) allocMaps(prof *profile.Profile, sizes []int, classified bool) ([]*core.AllocationMap, error) {
	maps := make([]*core.AllocationMap, len(sizes))
	for i, size := range sizes {
		alloc, err := core.Allocate(prof, core.AllocationConfig{
			TableSize:         size,
			Threshold:         s.cfg.Threshold,
			UseClassification: classified,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: allocating %s at %d: %w", prof.Benchmark, size, err)
		}
		if s.cfg.Check {
			if err := analysis.VerifyAllocation(prof, alloc); err != nil {
				return nil, fmt.Errorf("harness: %s allocation at %d: %w", prof.Benchmark, size, err)
			}
		}
		maps[i] = alloc.Map
	}
	return maps, nil
}

// predictors collects the configurations one replay drives. It keeps
// the first construction error, so a list is built without a check per
// member and simulate reports the error.
type predictors struct {
	list []predict.Predictor
	err  error
}

func (ps *predictors) add(p predict.Predictor, err error) {
	if ps.err == nil {
		ps.err = err
	}
	ps.list = append(ps.list, p)
}

// paperPredictors are the configurations of the paper's Section 5
// comparison: conventional PAg at the baseline BHT size, the
// interference-free reference (per-branch histories; the paper's
// 2M-entry BHT), then allocation-indexed PAg over each map in order.
// Branches outside an allocation's analyzed set fall back to PC-modulo
// indexing inside its map, as unrecompiled (library) code would.
func (s *Suite) paperPredictors(maps []*core.AllocationMap) predictors {
	var ps predictors
	ps.add(predict.NewPAg(predict.PCModIndexer{Entries: s.cfg.BaselineBHT}, s.cfg.PHTEntries))
	ps.add(predict.NewPAg(predict.NewIdealIndexer(), s.cfg.PHTEntries))
	for _, m := range maps {
		ps.add(predict.NewPAg(predict.AllocIndexer{Map: m}, s.cfg.PHTEntries))
	}
	return ps
}

// simulate drives every predictor of ps from one replay of benchmark's
// branch stream, inside the benchmark's simulate span, and flushes each
// Sim's outcome counts into the predictor metrics. The Sims come back
// in ps order.
func (s *Suite) simulate(benchmark string, replay func(vm.BranchSink) error, ps predictors) ([]*predict.Sim, error) {
	if ps.err != nil {
		return nil, ps.err
	}
	sims := make([]*predict.Sim, len(ps.list))
	fan := make(vm.MultiSink, len(ps.list))
	for i, p := range ps.list {
		sims[i] = predict.NewSim(p)
		fan[i] = sims[i]
	}
	span := s.stageSpan(benchmark, "simulate")
	err := replay(fan)
	span.End()
	if err != nil {
		return nil, err
	}
	pm := s.cfg.Metrics.Predict()
	for _, sim := range sims {
		sim.FlushMetrics(pm)
	}
	return sims, nil
}

// convAllocRows simulates every kind at every table size twice over one
// replay: PC-modulo indexed, and indexed by a plain allocation of prof
// at that size (Figure 3's, the apples-to-apples comparison). One
// allocation per size is shared by every kind: the allocation is a
// property of the branch working sets, not of the predictor consuming
// it. The rows come back in kinds order, labeled benchmark.
func (s *Suite) convAllocRows(benchmark string, prof *profile.Profile, replay func(vm.BranchSink) error, kinds []string) ([]ZooRow, error) {
	sizes := s.cfg.AllocBHTSizes
	maps, err := s.allocMaps(prof, sizes, false)
	if err != nil {
		return nil, err
	}
	var ps predictors
	for _, kind := range kinds {
		for i, size := range sizes {
			cfg := predict.ZooConfig{TableSize: size, PHTEntries: s.cfg.PHTEntries}
			ps.add(predict.NewZooPredictor(kind, predict.PCModIndexer{Entries: size}, cfg))
			ps.add(predict.NewZooPredictor(kind, predict.AllocIndexer{Map: maps[i]}, cfg))
		}
	}
	sims, err := s.simulate(benchmark, replay, ps)
	if err != nil {
		return nil, err
	}
	rows := make([]ZooRow, len(kinds))
	for k, kind := range kinds {
		pairs := sims[2*k*len(sizes) : 2*(k+1)*len(sizes)]
		rows[k] = ZooRow{Benchmark: benchmark, Kind: kind, Conv: make([]float64, len(sizes)), Alloc: make([]float64, len(sizes))}
		for i := range sizes {
			rows[k].Conv[i] = pairs[2*i].MispredictRate()
			rows[k].Alloc[i] = pairs[2*i+1].MispredictRate()
			rows[k].Branches = pairs[2*i].Branches()
		}
	}
	return rows, nil
}

// rates returns each Sim's misprediction rate.
func rates(sims []*predict.Sim) []float64 {
	out := make([]float64, len(sims))
	for i, sim := range sims {
		out[i] = sim.MispredictRate()
	}
	return out
}

// improvement returns the fractional misprediction reduction of the
// last (largest table size's) of rates vs. the conventional rate conv;
// 0 when conv is 0 or rates is empty.
func improvement(conv float64, rates []float64) float64 {
	if conv == 0 || len(rates) == 0 {
		return 0
	}
	return (conv - rates[len(rates)-1]) / conv
}

// meanRates is the arithmetic-mean row of an experiment: the
// element-wise mean of each row's rate vector (width long), summed in
// row order, and the rows' total branch count. No rows give zeros.
func meanRates[R any](rows []R, width int, vec func(R) ([]float64, uint64)) ([]float64, uint64) {
	mean := make([]float64, width)
	var branches uint64
	for _, r := range rows {
		v, b := vec(r)
		for i := range v {
			mean[i] += v[i]
		}
		branches += b
	}
	if len(rows) > 0 {
		for i := range mean {
			mean[i] /= float64(len(rows))
		}
	}
	return mean, branches
}
