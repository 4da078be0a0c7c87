// Command branchsim is the study's sim-bpred analogue: it runs a
// benchmark's branch stream through one or more predictors and reports
// misprediction rates.
//
// Usage:
//
//	branchsim -bench gcc [-predictors pag,pag-alloc,pag-ideal,bimodal,gshare,gag,static,taken]
//	          [-bht 1024] [-pht 4096] [-alloc-size 1024] [-classify]
//	          [-tail n] [-cpuprofile f] [-memprofile f]
//
// The benchmark executes twice, mirroring the paper's separate
// profiling and sim-bpred runs: the first run gathers per-branch
// statistics (for the profile-guided static predictor) and, when
// pag-alloc is listed, the interleave profile its branch allocation is
// built from; the second drives every predictor at once. -tail n prints
// the last n branch events of the stream (a bounded ring, so it costs
// O(n) memory regardless of run length).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	var (
		bench      = flag.String("bench", "", "built-in benchmark")
		input      = flag.String("input", "ref", "input set: ref, a, or b")
		scale      = flag.Float64("scale", 1.0, "workload scale factor")
		predictors = flag.String("predictors", "pag,pag-alloc,pag-ideal", "comma-separated predictor list")
		bht        = flag.Int("bht", 1024, "first-level (BHT) entries for PC-indexed PAg")
		pht        = flag.Int("pht", 4096, "second-level (PHT) entries")
		allocSize  = flag.Int("alloc-size", 1024, "BHT entries for the allocated PAg")
		classifyF  = flag.Bool("classify", false, "use branch classification in the allocation")
		bimodalN   = flag.Int("bimodal", 2048, "bimodal table entries")
		tail       = flag.Int("tail", 0, "print the last n branch events of the stream")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiling, err := obs.StartProfiling(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "branchsim:", err)
		os.Exit(1)
	}

	if err := run(*bench, *input, *scale, *predictors, *bht, *pht, *allocSize, *classifyF, *bimodalN, *tail); err != nil {
		fmt.Fprintln(os.Stderr, "branchsim:", err)
		os.Exit(1)
	}

	if err := stopProfiling(); err != nil {
		fmt.Fprintln(os.Stderr, "branchsim:", err)
		os.Exit(1)
	}
}

func run(bench, input string, scale float64, predictors string, bht, pht, allocSize int, useClass bool, bimodalN, tail int) error {
	if bench == "" {
		return fmt.Errorf("need -bench")
	}
	if tail < 0 {
		return fmt.Errorf("-tail %d: want 0 (none) or a positive event count", tail)
	}
	spec, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	in, err := workload.InputByName(input)
	if err != nil {
		return err
	}

	names := strings.Split(predictors, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		if !slices.Contains(predictorNames, names[i]) {
			return fmt.Errorf("unknown predictor %q (have %s)", names[i], strings.Join(predictorNames, ", "))
		}
	}
	runCfg := workload.RunConfig{Input: in, Scale: scale}
	var freq trace.FreqCounter
	var profiler *profile.Profiler
	var sink vm.BranchSink = &freq
	if slices.Contains(names, "pag-alloc") {
		profiler = profile.NewProfiler(spec.Name, in.Name)
		sink = vm.MultiSink{&freq, profiler}
	}
	stats, err := spec.RunInto(runCfg, sink)
	if err != nil {
		return err
	}
	fmt.Printf("%s/%s: %d instructions, %d conditional branches (%.1f%% taken)\n",
		bench, in.Name, stats.Instructions, stats.CondBranches, 100*stats.TakenRate())
	var prof *profile.Profile
	if profiler != nil {
		prof = profiler.Profile()
	}

	var sims []*predict.Sim
	var sinks vm.MultiSink
	for _, name := range names {
		p, err := buildPredictor(name, &freq, prof, bht, pht, allocSize, useClass, bimodalN)
		if err != nil {
			return err
		}
		sim := predict.NewSim(p)
		sims = append(sims, sim)
		sinks = append(sinks, sim)
	}
	var ring *trace.Ring
	if tail > 0 {
		ring = trace.NewRing(tail)
		sinks = append(sinks, ring)
	}
	if _, err := spec.RunInto(runCfg, sinks); err != nil {
		return err
	}

	fmt.Println()
	for _, s := range sims {
		r := s.Result()
		fmt.Printf("%-40s mispredict %.4f  (%d/%d)\n", r.Name, r.Rate(), r.Mispredicts, r.Branches)
	}

	if ring != nil {
		fmt.Printf("\nlast %d of %d branch events:\n", len(ring.Tail()), ring.Total())
		for _, e := range ring.Tail() {
			fmt.Printf("  icount=%-12d pc=%#x taken=%v\n", e.ICount, e.PC, e.Taken)
		}
	}
	return nil
}

// predictorNames lists the predictors buildPredictor knows, so that a
// bad -predictors list fails before the benchmark runs.
var predictorNames = []string{"pag", "pag-alloc", "pag-ideal", "bimodal", "gshare", "gag", "static", "taken"}

// buildPredictor builds the named predictor, one of predictorNames.
// freq holds the first run's per-branch statistics; prof is that run's
// interleave profile, non-nil whenever pag-alloc is among the
// predictors.
func buildPredictor(name string, freq *trace.FreqCounter, prof *profile.Profile, bht, pht, allocSize int, useClass bool, bimodalN int) (predict.Predictor, error) {
	switch name {
	case "pag":
		return predict.NewPAg(predict.PCModIndexer{Entries: bht}, pht)
	case "pag-ideal":
		return predict.NewPAg(predict.NewIdealIndexer(), pht)
	case "pag-alloc":
		alloc, err := core.Allocate(prof, core.AllocationConfig{
			TableSize:         allocSize,
			UseClassification: useClass,
		})
		if err != nil {
			return nil, err
		}
		return predict.NewPAg(predict.AllocIndexer{Map: alloc.Map}, pht)
	case "bimodal":
		return predict.NewBimodal(bimodalN)
	case "gshare":
		return predict.NewGshare(pht)
	case "gag":
		return predict.NewGAg(pht)
	case "static":
		dirs := make(map[uint64]bool)
		for _, st := range freq.Stats() {
			dirs[st.PC] = st.TakenRate() >= 0.5
		}
		return predict.NewProfileStatic(dirs), nil
	case "taken":
		return predict.AlwaysTaken{}, nil
	}
	return nil, fmt.Errorf("unknown predictor %q", name)
}
