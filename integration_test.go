package repro

// End-to-end integration tests: each test walks a complete flow a
// library adopter would run, across module boundaries (workload → vm →
// profile → core → predict). A flow that needs the branch stream twice
// executes the benchmark twice; the VM is deterministic.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/workload"
)

const itScale = 0.15

// profileRun executes a benchmark on one input at itScale with the
// interleave profiler attached and returns the profile and the run's VM
// statistics.
func profileRun(t *testing.T, name string, in workload.InputSet) (*profile.Profile, vm.Stats) {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p := profile.NewProfiler(spec.Name, in.Name)
	stats, err := spec.RunInto(workload.RunConfig{Input: in, Scale: itScale}, p)
	if err != nil {
		t.Fatal(err)
	}
	return p.Profile(), stats
}

// pagRates executes a benchmark once at itScale, driving a
// 4096-entry-PHT PAg per first-level indexer, and returns their
// misprediction rates in order.
func pagRates(t *testing.T, name string, indexers ...predict.Indexer) []float64 {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sims := make([]*predict.Sim, len(indexers))
	sinks := make(vm.MultiSink, len(indexers))
	for i, ix := range indexers {
		p, err := predict.NewPAg(ix, 4096)
		if err != nil {
			t.Fatal(err)
		}
		sims[i] = predict.NewSim(p)
		sinks[i] = sims[i]
	}
	if _, err := spec.RunInto(workload.RunConfig{Scale: itScale}, sinks); err != nil {
		t.Fatal(err)
	}
	rates := make([]float64, len(sims))
	for i, s := range sims {
		rates[i] = s.Result().Rate()
	}
	return rates
}

func TestEndToEndAnalysisPipeline(t *testing.T) {
	prof, stats := profileRun(t, "compress", workload.InputRef)
	if stats.CondBranches == 0 {
		t.Fatal("empty run")
	}
	if prof.NumBranches() == 0 {
		t.Fatal("empty profile")
	}

	res, err := core.Analyze(prof, core.AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSets() == 0 {
		t.Fatal("no working sets found")
	}
	if res.AvgStaticSize() <= 1 {
		t.Fatalf("degenerate working sets: avg %v", res.AvgStaticSize())
	}
	// compress's nominal working set is a scene: ~40 branches.
	if res.MaxSetSize() < 10 || res.MaxSetSize() > 120 {
		t.Fatalf("max working set %d outside plausible range", res.MaxSetSize())
	}
}

func TestEndToEndAllocationBeatsConventional(t *testing.T) {
	prof, _ := profileRun(t, "li", workload.InputRef)

	alloc, err := core.Allocate(prof, core.AllocationConfig{TableSize: 1024})
	if err != nil {
		t.Fatal(err)
	}

	rates := pagRates(t, "li",
		predict.PCModIndexer{Entries: 1024}, predict.AllocIndexer{Map: alloc.Map}, predict.NewIdealIndexer())
	conv, allocated, ifree := rates[0], rates[1], rates[2]

	if allocated > conv {
		t.Fatalf("allocation (%.4f) worse than conventional (%.4f)", allocated, conv)
	}
	if ifree > conv {
		t.Fatalf("interference-free (%.4f) worse than conventional (%.4f)", ifree, conv)
	}
	// The paper's Figure 3 claim: allocated 1024 approximates
	// interference-free for a mid-sized program.
	if allocated > ifree+0.01 {
		t.Fatalf("allocated 1024 (%.4f) far from interference-free (%.4f)", allocated, ifree)
	}
}

func TestEndToEndClassificationShrinksTables(t *testing.T) {
	prof, _ := profileRun(t, "m88ksim", workload.InputRef)
	plain, err := core.Allocate(prof, core.AllocationConfig{TableSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	classified, err := core.Allocate(prof, core.AllocationConfig{TableSize: 64, UseClassification: true})
	if err != nil {
		t.Fatal(err)
	}
	if classified.ConflictCost > plain.ConflictCost {
		t.Fatalf("classification raised conflicts: %d vs %d", classified.ConflictCost, plain.ConflictCost)
	}
	if classified.Classification == nil {
		t.Fatal("classification result missing")
	}
}

func TestEndToEndCumulativeProfiles(t *testing.T) {
	// Section 5.2: profiles from two inputs merge into one cumulative
	// profile covering both runs' branch populations.
	pa, _ := profileRun(t, "perl", workload.InputA)
	pb, _ := profileRun(t, "perl", workload.InputB)
	merged, err := profile.Merge(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumBranches() < pa.NumBranches() || merged.NumBranches() < pb.NumBranches() {
		t.Fatal("merged profile lost branches")
	}
	var dynamic uint64
	for _, e := range merged.Exec {
		dynamic += e
	}
	for _, e := range append(pa.Exec, pb.Exec...) {
		dynamic -= e
	}
	if dynamic != 0 {
		t.Fatal("merged dynamic counts do not add up")
	}
	// A cumulative allocation must still work.
	if _, err := core.Allocate(merged, core.AllocationConfig{TableSize: 128}); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndBenchmarkRegistry(t *testing.T) {
	names := workload.Names()
	if len(names) != 13 {
		t.Fatalf("suite size %d", len(names))
	}
	spec, err := workload.ByName("gcc")
	if err != nil || spec.Name != "gcc" {
		t.Fatalf("ByName(gcc): %v %v", spec.Name, err)
	}
	if _, err := workload.ByName("missing"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestEndToEndWindowedProfileKeepsShape(t *testing.T) {
	spec, err := workload.ByName("pgp")
	if err != nil {
		t.Fatal(err)
	}
	// Both profilers ride one run, so they see one stream.
	exactP := profile.NewProfiler(spec.Name, workload.InputRef.Name)
	windowedP := profile.NewProfiler(spec.Name, workload.InputRef.Name, profile.WithWindow(2*spec.WorkingSetSize()))
	if _, err := spec.RunInto(workload.RunConfig{Scale: itScale}, vm.MultiSink{exactP, windowedP}); err != nil {
		t.Fatal(err)
	}

	exactRes, err := core.Analyze(exactP.Profile(), core.AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	windowedRes, err := core.Analyze(windowedP.Profile(), core.AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The windowed profile must find essentially the same working-set
	// structure (the harness relies on this).
	if windowedRes.NumSets() == 0 {
		t.Fatal("windowed profile found nothing")
	}
	ratio := windowedRes.AvgStaticSize() / exactRes.AvgStaticSize()
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("windowed avg size drifted: %v vs %v", windowedRes.AvgStaticSize(), exactRes.AvgStaticSize())
	}
}
