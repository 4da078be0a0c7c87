package repro

// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, as indexed in DESIGN.md. Each iteration
// regenerates the corresponding experiment end to end (workload
// execution, profiling, analysis/allocation/prediction) at a reduced
// scale chosen so a single iteration stays in benchmark-friendly
// territory; run cmd/tables -scale 1 for the full-scale numbers recorded
// in EXPERIMENTS.md. Custom metrics report the experiment's headline
// quantity alongside time/op. cmd/bench wraps these same experiments
// into the machine-readable BENCH_3.json regression report.

import (
	"io"
	"testing"

	"repro/internal/harness"
)

// benchScale keeps one full-suite iteration around a second or two.
const benchScale = 0.1

func newBenchSuite() *harness.Suite {
	return harness.NewSuite(harness.Config{Scale: benchScale})
}

// BenchmarkTable1 regenerates Table 1: benchmark execution, dynamic
// branch counts, and frequency-filter coverage.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		var dyn uint64
		for _, r := range rows {
			dyn += r.TotalDynamic
		}
		b.ReportMetric(float64(dyn)/float64(b.Elapsed().Seconds())/1e6, "Mbranches/s")
	}
}

// BenchmarkTable2 regenerates Table 2: working-set extraction across the
// Table 2 benchmark set.
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		sets := 0
		for _, r := range rows {
			sets += r.NumSets
		}
		b.ReportMetric(float64(sets), "working-sets")
	}
}

// BenchmarkTable3 regenerates Table 3: the required-BHT-size search for
// plain branch allocation over all 14 benchmark/input rows.
func BenchmarkTable3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, r := range rows {
			total += r.RequiredSize
		}
		b.ReportMetric(float64(total)/float64(len(rows)), "mean-required-entries")
	}
}

// BenchmarkTable4 regenerates Table 4: required BHT size with branch
// classification.
func BenchmarkTable4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		rows, err := s.Table4()
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, r := range rows {
			total += r.RequiredSize
		}
		b.ReportMetric(float64(total)/float64(len(rows)), "mean-required-entries")
	}
}

// BenchmarkFigure3 regenerates Figure 3: misprediction-rate comparison
// of conventional, allocated (16/128/1024), and interference-free PAg.
func BenchmarkFigure3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		f, err := s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f.Average.Improvement(), "avg-improvement-%")
		b.ReportMetric(100*f.Average.Conventional, "conv-mispredict-%")
	}
}

// BenchmarkFigure4 regenerates Figure 4: the same comparison with branch
// classification — the paper's headline 16% improvement at 1024 entries.
func BenchmarkFigure4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newBenchSuite()
		f, err := s.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f.Average.Improvement(), "avg-improvement-%")
		b.ReportMetric(100*f.Average.Conventional, "conv-mispredict-%")
	}
}

// BenchmarkPipelineSingle measures the full single-benchmark pipeline
// (run → filter → profile) on the paper's most demanding program, gcc.
func BenchmarkPipelineSingle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := ProfileBenchmark("gcc", RunConfig{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(p.NumBranches()), "static-branches")
	}
}

// BenchmarkSuiteParallelFused regenerates the complete evaluation —
// every table and both figures — at the default worker count, streaming
// each benchmark's branches with no retained traces.
func BenchmarkSuiteParallelFused(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := harness.NewSuite(harness.Config{Scale: benchScale})
		if err := harness.RunAll(s, io.Discard, false); err != nil {
			b.Fatal(err)
		}
	}
}
