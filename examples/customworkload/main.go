// Custom workload: build a program for the simulated machine directly
// with the program.Builder API — a two-phase loop nest with biased,
// periodic, and data-dependent branches — then run the full analysis on
// it. This is the route for studying control-flow shapes the built-in
// benchmark suite does not cover.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/vm"
)

// buildPhase emits a function with nBranches branch sites: a loop-exit
// style counter branch, then alternating biased and random sites.
func buildPhase(b *program.Builder, nBranches int, ctrBase int32) program.Label {
	fn := b.NewLabel()
	b.Bind(fn)
	for j := 0; j < nBranches; j++ {
		skip := b.NewLabel()
		switch j % 3 {
		case 0: // periodic: taken 7 of 8
			addr := ctrBase + int32(j)
			b.Load(1, isa.RZero, addr)
			b.AddI(1, 1, 1)
			b.SltI(2, 1, 8)
			b.Store(1, isa.RZero, addr)
			b.Bne(2, isa.RZero, skip)
			b.Store(isa.RZero, isa.RZero, addr)
		case 1: // biased taken (~99.9%)
			b.Rand(1)
			b.ShrI(1, 1, 54)
			b.Bne(1, isa.RZero, skip)
			b.Nop()
		case 2: // data-dependent coin flip
			b.Rand(1)
			b.AndI(1, 1, 1)
			b.Bne(1, isa.RZero, skip)
			b.Nop()
		}
		b.Bind(skip)
		b.Nop()
	}
	b.Ret()
	return fn
}

func main() {
	b := program.NewBuilder("custom")
	b.ReserveMem(1024)

	// Two phases of 24 branches each; main alternates long runs of
	// phase 1 with short bursts of phase 2, creating two working sets.
	phase1 := b.NewLabel()
	phase2 := b.NewLabel()
	mainStart := b.NewLabel()
	b.Jump(mainStart)

	b.Bind(phase1)
	p1 := buildPhase(b, 24, 0)
	b.Bind(phase2)
	p2 := buildPhase(b, 24, 256)
	_ = p1
	_ = p2

	b.Bind(mainStart)
	// Three rounds of: dwell in phase 1 for 250 calls, then in phase 2
	// for 120. Each phase's branches interleave heavily among
	// themselves; across phases they interleave only at the six phase
	// transitions — below the analysis threshold, so two distinct
	// working sets emerge.
	b.LoadImm(21, 3)
	roundTop := b.Here()
	b.LoadImm(20, 250)
	p1Top := b.Here()
	b.Call(phase1)
	b.AddI(20, 20, -1)
	b.Bne(20, isa.RZero, p1Top)
	b.LoadImm(20, 120)
	p2Top := b.Here()
	b.Call(phase2)
	b.AddI(20, 20, -1)
	b.Bne(20, isa.RZero, p2Top)
	b.AddI(21, 21, -1)
	b.Bne(21, isa.RZero, roundTop)
	b.Halt()

	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %q: %d instructions, %d static conditional branches\n",
		prog.Name, len(prog.Code), prog.NumCondBranches())

	// The profiling run: the online interleave profiler rides the
	// execution.
	const seed = 42
	profiler := profile.NewProfiler(prog.Name, "demo")
	stats, err := vm.Run(prog, vm.Config{DataSeed: seed, Sink: profiler})
	if err != nil {
		log.Fatal(err)
	}
	prof := profiler.Profile()
	fmt.Printf("executed %d instructions, %d branches (%.1f%% taken)\n",
		stats.Instructions, stats.CondBranches, 100*stats.TakenRate())

	analysis, err := core.Analyze(prof, core.AnalysisConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworking sets: %d (largest %d, avg %.1f static / %.1f dynamic)\n",
		analysis.NumSets(), analysis.MaxSetSize(), analysis.AvgStaticSize(), analysis.AvgDynamicSize())
	for i, ws := range analysis.Sets {
		fmt.Printf("  set %d: %d branches, %d executions\n", i+1, ws.Size(), ws.ExecWeight)
	}

	// A small allocated BHT suffices for two ~25-branch working sets.
	alloc, err := core.Allocate(prof, core.AllocationConfig{TableSize: 64})
	if err != nil {
		log.Fatal(err)
	}
	// The evaluation run: the same seed replays the profiled stream
	// through the conventional and the allocated PAg at once.
	conv, err := predict.NewPAg(predict.PCModIndexer{Entries: 64}, 1024)
	if err != nil {
		log.Fatal(err)
	}
	allocated, err := predict.NewPAg(predict.AllocIndexer{Map: alloc.Map}, 1024)
	if err != nil {
		log.Fatal(err)
	}
	convSim, allocSim := predict.NewSim(conv), predict.NewSim(allocated)
	if _, err := vm.Run(prog, vm.Config{DataSeed: seed, Sink: vm.MultiSink{convSim, allocSim}}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPAg-64 conventional: %.4f mispredict, allocated: %.4f (conflict cost %d)\n",
		convSim.Result().Rate(), allocSim.Result().Rate(), alloc.ConflictCost)
}
