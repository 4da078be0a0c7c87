package workload

import (
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/vm"
)

// RunConfig controls benchmark execution.
type RunConfig struct {
	// Input selects the input set; the zero value means InputRef.
	Input InputSet
	// Scale multiplies the schedule length; 0 means 1.0. Scale 1.0 runs
	// the spec's default dynamic size; larger values approach the
	// paper's full runs.
	Scale float64
	// Metrics, when non-nil, receives the VM's aggregate throughput
	// totals for the run.
	Metrics *obs.VMMetrics
}

func (c RunConfig) input() InputSet {
	if c.Input == (InputSet{}) {
		return InputRef
	}
	return c.Input
}

// Run executes the benchmark and records its branch trace. The
// recorder's event buffer is pre-sized from the spec's expected
// dynamic-branch count, so recording does not regrow it.
func (s Spec) Run(cfg RunConfig) (*trace.Trace, vm.Stats, error) {
	input := cfg.input()
	rec := trace.NewRecorder(s.Name, input.Name)
	rec.Reserve(int(s.DynamicBranches(cfg.Scale)))
	stats, err := s.RunInto(cfg, rec)
	if err != nil {
		return nil, stats, err
	}
	return rec.Finish(stats.Instructions), stats, nil
}

// RunInto executes the benchmark, streaming branch events to sink
// (which may be a recorder, a profiler, predictor sims, or a MultiSink
// of several).
func (s Spec) RunInto(cfg RunConfig, sink vm.BranchSink) (vm.Stats, error) {
	input := cfg.input()
	p, err := s.Build(input, cfg.Scale)
	if err != nil {
		return vm.Stats{}, err
	}
	return vm.Run(p, vm.Config{
		DataSeed: input.Seed,
		Sink:     sink,
		Metrics:  cfg.Metrics,
	})
}

// Profile executes the benchmark with an online interleave profiler and
// returns the resulting profile — the paper's profiling run, without
// materializing the trace in memory.
func (s Spec) Profile(cfg RunConfig) (*profile.Profile, vm.Stats, error) {
	input := cfg.input()
	prof := profile.NewProfiler(s.Name, input.Name)
	stats, err := s.RunInto(cfg, prof)
	if err != nil {
		return nil, stats, err
	}
	prof.SetInstructions(stats.Instructions)
	return prof.Profile(), stats, nil
}
