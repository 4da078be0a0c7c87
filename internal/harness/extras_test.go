package harness

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/pipeline"
)

var ablationSet = []string{"compress", "li"}

var (
	ablationOnce sync.Once
	ablationRows []ablationRow
	ablationErr  error
)

// benchmarkAblations computes ablationSet's per-benchmark ablation rows
// once on the shared test suite.
func benchmarkAblations(t *testing.T) []ablationRow {
	t.Helper()
	ablationOnce.Do(func() {
		s := testSuite()
		for _, name := range ablationSet {
			row, err := s.ablateBenchmark(name)
			if err != nil {
				ablationErr = err
				return
			}
			ablationRows = append(ablationRows, row)
		}
	})
	if ablationErr != nil {
		t.Fatal(ablationErr)
	}
	return ablationRows
}

func TestAblationThreshold(t *testing.T) {
	var rows []ThresholdRow
	for _, r := range benchmarkAblations(t) {
		if len(r.threshold) != len(ablationThresholds) {
			t.Fatalf("%s: %d threshold rows, want %d", r.definition.Benchmark, len(r.threshold), len(ablationThresholds))
		}
		rows = append(rows, r.threshold...)
	}
	// Higher thresholds can only prune edges.
	for i := 1; i < len(rows); i++ {
		if rows[i].Benchmark == rows[i-1].Benchmark && rows[i].Edges > rows[i-1].Edges {
			t.Fatalf("%s: edges grew with threshold: %d -> %d",
				rows[i].Benchmark, rows[i-1].Edges, rows[i].Edges)
		}
	}
	if out := RenderAblationThreshold(rows, false); !strings.Contains(out, "threshold") {
		t.Error("render missing header")
	}
}

func TestAblationDefinition(t *testing.T) {
	var rows []DefinitionRow
	for _, r := range benchmarkAblations(t) {
		rows = append(rows, r.definition)
	}
	for _, r := range rows {
		if r.CliqueSets == 0 || r.PartitionSets == 0 {
			t.Errorf("%s: empty definition comparison", r.Benchmark)
		}
		// A partition never has more sets than the overlapping cliques
		// on these workloads' graphs... it can, in principle; just
		// check both produced sane averages.
		if r.CliqueAvgStatic <= 1 || r.PartitionAvg <= 0 {
			t.Errorf("%s: degenerate averages %+v", r.Benchmark, r)
		}
	}
	if out := RenderAblationDefinition(rows, true); !strings.HasPrefix(out, "| benchmark") {
		t.Error("markdown render malformed")
	}
}

func TestAblationGrouped(t *testing.T) {
	var rows []GroupedRow
	for _, r := range benchmarkAblations(t) {
		rows = append(rows, r.grouped)
	}
	for _, r := range rows {
		if r.BiasedFraction <= 0 || r.BiasedFraction >= 1 {
			t.Errorf("%s: biased fraction %v", r.Benchmark, r.BiasedFraction)
		}
		// Collapsing biased branches must shrink the average set.
		if r.GroupedAvg >= r.IndividualAvg {
			t.Errorf("%s: grouping did not shrink sets (%v vs %v)",
				r.Benchmark, r.GroupedAvg, r.IndividualAvg)
		}
	}
	if out := RenderAblationGrouped(rows, false); !strings.Contains(out, "grouped") {
		t.Error("render missing header")
	}
}

func TestAblationWindow(t *testing.T) {
	s := testSuite()
	rows, err := s.ablateWindows("compress")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	exact := rows[len(rows)-1] // unbounded last
	if exact.Window != 0 {
		t.Fatal("last row should be unbounded")
	}
	for _, r := range rows[:len(rows)-1] {
		if r.Pairs > exact.Pairs {
			t.Errorf("window %d counted more pairs (%d) than exact (%d)", r.Window, r.Pairs, exact.Pairs)
		}
		// The pruned graph must keep its shape at the default window.
		if r.Window >= 2*81 && r.NumSets == 0 && exact.NumSets > 0 {
			t.Errorf("window %d lost all working sets", r.Window)
		}
	}
	if out := RenderAblationWindow(rows, false); !strings.Contains(out, "unbounded") {
		t.Error("render missing unbounded row")
	}
}

func TestComparisonExtras(t *testing.T) {
	s := testSuite()
	rows, _, err := s.Extras(pipeline.Deep())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(FigureBenchmarks) {
		t.Fatalf("rows = %d", len(rows))
	}
	betterThanAgree := 0
	for _, r := range rows {
		for _, rate := range []float64{r.Conventional, r.Allocated, r.Agree, r.Gshare, r.GAs, r.Combining, r.InterferenceFree} {
			if rate < 0 || rate > 1 {
				t.Errorf("%s: rate %v out of range", r.Benchmark, rate)
			}
		}
		if r.Allocated <= r.Agree {
			betterThanAgree++
		}
	}
	// The paper's position: compile-time allocation beats the hardware
	// interference mitigations on local-history-predictable code.
	if betterThanAgree < len(rows)-1 {
		t.Fatalf("allocation beat agree on only %d/%d benchmarks", betterThanAgree, len(rows))
	}
	if out := RenderComparison(rows, false); !strings.Contains(out, "agree") {
		t.Error("render missing agree column")
	}
}

func TestPipelineCosts(t *testing.T) {
	s := testSuite()
	model := pipeline.Deep()
	_, rows, err := s.Extras(model)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(FigureBenchmarks) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.CPIConventional < 1 || r.CPIAllocated < 1 || r.CPIIdeal < 1 {
			t.Errorf("%s: CPI below 1: %+v", r.Benchmark, r)
		}
		if r.CPIAllocated > r.CPIConventional+1e-9 {
			t.Errorf("%s: allocation raised CPI (%v vs %v)", r.Benchmark, r.CPIAllocated, r.CPIConventional)
		}
		if r.Speedup < 1 {
			t.Errorf("%s: speedup %v < 1", r.Benchmark, r.Speedup)
		}
		if r.MPKIAllocated > r.MPKIConventional+1e-9 {
			t.Errorf("%s: allocation raised MPKI", r.Benchmark)
		}
	}
	if out := RenderPipeline(rows, model, false); !strings.Contains(out, "CPI") {
		t.Error("render missing CPI header")
	}
}
