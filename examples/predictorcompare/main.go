// Predictor comparison: runs one benchmark's branch stream through
// the whole predictor zoo — the paper's PAg configurations plus the
// classic baselines its related-work section discusses (bimodal, GAg,
// gshare, profile-guided static) — and prints a ranked accuracy table.
// It also demonstrates the Section 5.2 option of statically predicting
// highly biased branches and letting the dynamic predictor handle only
// the mixed ones.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/workload"
)

const (
	benchmark = "chess"
	phtSize   = 4096
	bhtSize   = 1024
)

func main() {
	spec, err := workload.ByName(benchmark)
	if err != nil {
		log.Fatal(err)
	}
	// The profiling run: a bounded scan window (2x the nominal working
	// set) keeps profiling linear; see DESIGN.md on the approximation.
	cfg := workload.RunConfig{Scale: 0.5}
	profiler := profile.NewProfiler(spec.Name, workload.InputRef.Name,
		profile.WithWindow(2*spec.WorkingSetSize()))
	stats, err := spec.RunInto(cfg, profiler)
	if err != nil {
		log.Fatal(err)
	}
	prof := profiler.Profile()
	fmt.Printf("%s: %d dynamic branches, %d static\n\n", benchmark, stats.CondBranches, prof.NumBranches())

	alloc, err := core.Allocate(prof, core.AllocationConfig{TableSize: bhtSize})
	if err != nil {
		log.Fatal(err)
	}
	classAlloc, err := core.Allocate(prof, core.AllocationConfig{TableSize: bhtSize, UseClassification: true})
	if err != nil {
		log.Fatal(err)
	}

	// Biased-branch map for the hybrid static/dynamic predictor.
	cls := classify.Classify(prof, classify.Default())
	biased := make(map[uint64]bool)
	for id, c := range cls.Classes {
		switch c {
		case classify.BiasedTaken:
			biased[prof.PCs[id]] = true
		case classify.BiasedNotTaken:
			biased[prof.PCs[id]] = false
		}
	}

	// Profile-guided static directions.
	static := make(map[uint64]bool)
	for id := range prof.PCs {
		static[prof.PCs[id]] = prof.TakenRate(int32(id)) >= 0.5
	}

	mk := func(p predict.Predictor, err error) predict.Predictor {
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	hybridInner := mk(predict.NewPAg(predict.PCModIndexer{Entries: bhtSize}, phtSize))
	zoo := []predict.Predictor{
		mk(predict.NewPAg(predict.PCModIndexer{Entries: bhtSize}, phtSize)),
		mk(predict.NewPAg(predict.AllocIndexer{Map: alloc.Map}, phtSize)),
		mk(predict.NewPAg(predict.AllocIndexer{Map: classAlloc.Map}, phtSize)),
		mk(predict.NewPAg(predict.NewIdealIndexer(), phtSize)),
		predict.NewHybridBiasedStatic(biased, hybridInner),
		mk(predict.NewBimodal(2048)),
		mk(predict.NewGAg(phtSize)),
		mk(predict.NewGshare(phtSize)),
		predict.NewProfileStatic(static),
		predict.AlwaysTaken{},
	}

	// The evaluation run: the deterministic VM delivers the profiled
	// stream again, to every predictor at once.
	sims := make([]*predict.Sim, len(zoo))
	sinks := make(vm.MultiSink, len(zoo))
	for i, p := range zoo {
		sims[i] = predict.NewSim(p)
		sinks[i] = sims[i]
	}
	if _, err := spec.RunInto(cfg, sinks); err != nil {
		log.Fatal(err)
	}

	results := make([]predict.SimResult, len(sims))
	for i, s := range sims {
		results[i] = s.Result()
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Rate() < results[j].Rate() })

	fmt.Printf("%-45s %s\n", "predictor", "mispredict rate")
	for _, r := range results {
		fmt.Printf("%-45s %.4f\n", r.Name, r.Rate())
	}
}
