// Quickstart: the full pipeline of the paper on one benchmark — run a
// workload with the interleave profiler attached, extract the branch
// working sets, build a branch allocation, and compare predictor
// accuracy with and without it on a second run of the same stream.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	// 1. Profile: execute a benchmark with the interleave profiler
	//    attached, which time-stamps every conditional branch and counts
	//    pairwise interleavings.
	spec, err := workload.ByName("compress")
	if err != nil {
		log.Fatal(err)
	}
	cfg := workload.RunConfig{Scale: 0.5}
	profiler := profile.NewProfiler(spec.Name, workload.InputRef.Name)
	stats, err := spec.RunInto(cfg, profiler)
	if err != nil {
		log.Fatal(err)
	}
	prof := profiler.Profile()
	fmt.Printf("ran %s: %d dynamic conditional branches\n", spec.Name, stats.CondBranches)
	fmt.Printf("profiled %d static branches, %d interleaving pairs\n",
		prof.NumBranches(), prof.Pairs.Len())

	// 2. Branch working set analysis (paper Section 4).
	analysis, err := core.Analyze(prof, core.AnalysisConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("working sets: %d, average size %.0f static / %.0f dynamic, largest %d\n",
		analysis.NumSets(), analysis.AvgStaticSize(), analysis.AvgDynamicSize(), analysis.MaxSetSize())

	// 3. Branch allocation (paper Section 5): color the conflict graph
	//    into a 1024-entry BHT.
	alloc, err := core.Allocate(prof, core.AllocationConfig{TableSize: 1024})
	if err != nil {
		log.Fatal(err)
	}
	occupied, maxLoad := alloc.Map.LoadStats()
	fmt.Printf("allocation: %d branches over %d entries (max %d per entry), conflict cost %d\n",
		alloc.Map.Allocated(), occupied, maxLoad, alloc.ConflictCost)

	// 4. Compare predictors on the same stream: conventional PC-indexed
	//    PAg vs. allocation-indexed PAg vs. interference-free. The VM is
	//    deterministic, so a second run replays the profiled stream.
	var sims []*predict.Sim
	var sinks vm.MultiSink
	for _, ix := range []predict.Indexer{
		predict.PCModIndexer{Entries: 1024},
		predict.AllocIndexer{Map: alloc.Map},
		predict.NewIdealIndexer(),
	} {
		p, err := predict.NewPAg(ix, 4096)
		if err != nil {
			log.Fatal(err)
		}
		sim := predict.NewSim(p)
		sims = append(sims, sim)
		sinks = append(sinks, sim)
	}
	if _, err := spec.RunInto(cfg, sinks); err != nil {
		log.Fatal(err)
	}
	conv, allocated, ifree := sims[0].Result(), sims[1].Result(), sims[2].Result()
	fmt.Println()
	fmt.Printf("conventional PAg-1024:   %.4f mispredict rate\n", conv.Rate())
	fmt.Printf("allocated PAg-1024:      %.4f\n", allocated.Rate())
	fmt.Printf("interference-free PAg:   %.4f\n", ifree.Rate())
	if conv.Rate() > 0 {
		fmt.Printf("allocation removed %.0f%% of the mispredictions the conventional index adds\n",
			100*(conv.Rate()-allocated.Rate())/conv.Rate())
	}
}
