package repro

// End-to-end integration tests over the public facade: each test walks a
// complete flow a library adopter would run, across module boundaries
// (workload → vm → trace → profile → core → predict).

import (
	"testing"
)

const itScale = 0.15

func TestEndToEndAnalysisPipeline(t *testing.T) {
	tr, err := Run("compress", RunConfig{Scale: itScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}

	prof := ProfileTrace(tr, 0)
	if prof.NumBranches() == 0 {
		t.Fatal("empty profile")
	}

	res, err := Analyze(prof, AnalysisConfig{})
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
	tr, err := Run("li", RunConfig{Scale: itScale})
	if err != nil {
		t.Fatal(err)
	}
	prof := ProfileTrace(tr, 0)

	alloc, err := Allocate(prof, AllocationConfig{TableSize: 1024})
	if err != nil {
		t.Fatal(err)
	}

	conv, err := SimulatePAg(tr, 1024, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocated, err := SimulatePAg(tr, 1024, 4096, alloc)
	if err != nil {
		t.Fatal(err)
	}
	ifree, err := SimulateInterferenceFree(tr, 4096)
	if err != nil {
		t.Fatal(err)
	}

	if allocated.Rate() > conv.Rate() {
		t.Fatalf("allocation (%.4f) worse than conventional (%.4f)", allocated.Rate(), conv.Rate())
	}
	if ifree.Rate() > conv.Rate() {
		t.Fatalf("interference-free (%.4f) worse than conventional (%.4f)", ifree.Rate(), conv.Rate())
	}
	// The paper's Figure 3 claim: allocated 1024 approximates
	// interference-free for a mid-sized program.
	if allocated.Rate() > ifree.Rate()+0.01 {
		t.Fatalf("allocated 1024 (%.4f) far from interference-free (%.4f)", allocated.Rate(), ifree.Rate())
	}
}

func TestEndToEndClassificationShrinksTables(t *testing.T) {
	prof, err := ProfileBenchmark("m88ksim", RunConfig{Scale: itScale})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Allocate(prof, AllocationConfig{TableSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	classified, err := Allocate(prof, AllocationConfig{TableSize: 64, UseClassification: true})
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
	pa, err := ProfileBenchmark("perl", RunConfig{Input: InputA, Scale: itScale})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := ProfileBenchmark("perl", RunConfig{Input: InputB, Scale: itScale})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeProfiles(pa, pb)
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
	if _, err := Allocate(merged, AllocationConfig{TableSize: 128}); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndBenchmarkRegistry(t *testing.T) {
	names := Benchmarks()
	if len(names) != 13 {
		t.Fatalf("suite size %d", len(names))
	}
	spec, err := Benchmark("gcc")
	if err != nil || spec.Name != "gcc" {
		t.Fatalf("Benchmark(gcc): %v %v", spec.Name, err)
	}
	if _, err := Benchmark("missing"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := Run("missing", RunConfig{}); err == nil {
		t.Fatal("Run of unknown benchmark accepted")
	}
	if _, err := ProfileBenchmark("missing", RunConfig{}); err == nil {
		t.Fatal("ProfileBenchmark of unknown benchmark accepted")
	}
}

func TestEndToEndWindowedProfileKeepsShape(t *testing.T) {
	tr, err := Run("pgp", RunConfig{Scale: itScale})
	if err != nil {
		t.Fatal(err)
	}
	exact := ProfileTrace(tr, 0)
	spec, _ := Benchmark("pgp")
	windowed := ProfileTrace(tr, 2*spec.WorkingSetSize())

	exactRes, err := Analyze(exact, AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	windowedRes, err := Analyze(windowed, AnalysisConfig{})
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

func TestEndToEndSuiteFacade(t *testing.T) {
	s := NewSuite(SuiteConfig{Scale: 0.05}, nil)
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("rows = %d", len(rows))
	}
}
