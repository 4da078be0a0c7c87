package workload

import (
	"repro/internal/obs"
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

// RunInto executes the benchmark, streaming branch events to sink (a
// profiler, predictor sims, a frequency counter, or a MultiSink of
// several). It is the one way a benchmark executes: the run is
// deterministic, so a consumer that needs the stream twice calls it
// twice.
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
