// Profile-guided allocation robustness (paper Section 5.2): a branch
// allocation built from one input set can mispredict badly when the
// program runs on a different input that exercises other code. The
// paper's remedy is cumulative profiling — merging conflict graphs from
// several inputs. This example quantifies all three cases on the ss
// benchmark (whose ss_a/ss_b rows differ most in the paper):
//
//  1. allocate from input A, evaluate on input A (self profile);
//  2. allocate from input A, evaluate on input B (mismatched profile);
//  3. allocate from merged A+B profiles, evaluate on B (cumulative).
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

const (
	benchmark = "ss"
	scale     = 0.5
	table     = 256
)

func main() {
	spec, err := workload.ByName(benchmark)
	if err != nil {
		log.Fatal(err)
	}
	profA := profileRun(spec, workload.InputA)
	profB := profileRun(spec, workload.InputB)
	fmt.Printf("%s: input a profiles %d static branches, input b %d\n",
		benchmark, profA.NumBranches(), profB.NumBranches())

	merged, err := profile.Merge(profA, profB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cumulative profile: %d static branches from %v\n\n",
		merged.NumBranches(), merged.InputSets)

	allocA, err := core.Allocate(profA, core.AllocationConfig{TableSize: table})
	if err != nil {
		log.Fatal(err)
	}
	allocMerged, err := core.Allocate(merged, core.AllocationConfig{TableSize: table})
	if err != nil {
		log.Fatal(err)
	}

	conv := predict.PCModIndexer{Entries: table}
	onA := simulate(spec, workload.InputA, conv, predict.AllocIndexer{Map: allocA.Map})
	onB := simulate(spec, workload.InputB, conv, predict.AllocIndexer{Map: allocA.Map}, predict.AllocIndexer{Map: allocMerged.Map})
	selfRate, crossRate, cumulRate := onA[1], onB[1], onB[2]

	fmt.Printf("conventional PAg-%d on input a:              %.4f\n", table, onA[0])
	fmt.Printf("alloc(profile a) on input a (self):           %.4f\n", selfRate)
	fmt.Println()
	fmt.Printf("conventional PAg-%d on input b:              %.4f\n", table, onB[0])
	fmt.Printf("alloc(profile a) on input b (mismatched):     %.4f\n", crossRate)
	fmt.Printf("alloc(cumulative a+b) on input b:             %.4f\n", cumulRate)
	fmt.Println()
	switch {
	case cumulRate <= crossRate:
		fmt.Println("cumulative profiling recovered the mismatched profile's loss, as Section 5.2 argues.")
	default:
		fmt.Println("unexpected: cumulative profile did not help on this run.")
	}
}

// profileRun executes the benchmark on one input with the interleave
// profiler attached. The bounded scan window (2x the nominal working
// set) keeps profiling linear on this large benchmark; see DESIGN.md on
// the approximation.
func profileRun(spec workload.Spec, in workload.InputSet) *profile.Profile {
	p := profile.NewProfiler(spec.Name, in.Name, profile.WithWindow(2*spec.WorkingSetSize()))
	if _, err := spec.RunInto(workload.RunConfig{Input: in, Scale: scale}, p); err != nil {
		log.Fatal(err)
	}
	return p.Profile()
}

// simulate executes the benchmark on one input, driving a PAg per
// first-level indexer from the one run, and returns their
// misprediction rates in indexer order.
func simulate(spec workload.Spec, in workload.InputSet, indexers ...predict.Indexer) []float64 {
	sims := make([]*predict.Sim, len(indexers))
	sinks := make(vm.MultiSink, len(indexers))
	for i, ix := range indexers {
		p, err := predict.NewPAg(ix, 4096)
		if err != nil {
			log.Fatal(err)
		}
		sims[i] = predict.NewSim(p)
		sinks[i] = sims[i]
	}
	if _, err := spec.RunInto(workload.RunConfig{Input: in, Scale: scale}, sinks); err != nil {
		log.Fatal(err)
	}
	rates := make([]float64, len(sims))
	for i, s := range sims {
		rates[i] = s.Result().Rate()
	}
	return rates
}
