// Command branchsim is the study's sim-bpred analogue: it replays a
// benchmark's branch stream through one or more predictors and reports
// misprediction rates.
//
// Usage:
//
//	branchsim -bench gcc [-predictors pag,pag-alloc,pag-ideal,bimodal,gshare,gag,static,taken]
//	          [-bht 1024] [-pht 4096] [-alloc-size 1024] [-classify]
//	          [-tail n] [-cpuprofile f] [-memprofile f]
//
// The pag-alloc predictor first profiles the same run and builds a
// branch allocation, mirroring the paper's compile-time flow. -tail n
// prints the last n branch events of the stream (a bounded ring, so it
// costs O(n) memory regardless of run length).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/trace"
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
	spec, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	in, err := workload.InputByName(input)
	if err != nil {
		return err
	}

	tr, stats, err := spec.Run(workload.RunConfig{Input: in, Scale: scale})
	if err != nil {
		return err
	}
	fmt.Printf("%s/%s: %d instructions, %d conditional branches (%.1f%% taken)\n",
		bench, in.Name, stats.Instructions, stats.CondBranches, 100*stats.TakenRate())

	var sims []*predict.Sim
	for _, name := range strings.Split(predictors, ",") {
		p, err := buildPredictor(strings.TrimSpace(name), tr, bht, pht, allocSize, useClass, bimodalN)
		if err != nil {
			return err
		}
		sims = append(sims, predict.NewSim(p))
	}

	for _, e := range tr.Events {
		for _, s := range sims {
			s.Branch(e.PC, e.Taken, e.ICount)
		}
	}

	fmt.Println()
	for _, s := range sims {
		r := s.Result()
		fmt.Printf("%-40s mispredict %.4f  (%d/%d)\n", r.Name, r.Rate(), r.Mispredicts, r.Branches)
	}

	if tail > 0 {
		ring := trace.NewRing(tail)
		tr.Replay(ring)
		fmt.Printf("\nlast %d of %d branch events:\n", len(ring.Tail()), ring.Total())
		for _, e := range ring.Tail() {
			fmt.Printf("  icount=%-12d pc=%#x taken=%v\n", e.ICount, e.PC, e.Taken)
		}
	}
	return nil
}

func buildPredictor(name string, tr *trace.Trace, bht, pht, allocSize int, useClass bool, bimodalN int) (predict.Predictor, error) {
	switch name {
	case "pag":
		return predict.NewPAg(predict.PCModIndexer{Entries: bht}, pht)
	case "pag-ideal":
		return predict.NewPAg(predict.NewIdealIndexer(), pht)
	case "pag-alloc":
		prof := profileOf(tr)
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
		for _, st := range tr.Stats() {
			dirs[st.PC] = st.TakenRate() >= 0.5
		}
		return predict.NewProfileStatic(dirs), nil
	case "taken":
		return predict.AlwaysTaken{}, nil
	}
	return nil, fmt.Errorf("unknown predictor %q", name)
}

// profileOf runs the interleave profiler over the recorded trace — the
// paper's profile pass, reusing the same run the evaluation replays.
func profileOf(tr *trace.Trace) *profile.Profile {
	p := profile.NewProfiler(tr.Benchmark, tr.InputSet)
	tr.Replay(p)
	p.SetInstructions(tr.Instructions)
	return p.Profile()
}
