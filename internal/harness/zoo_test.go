package harness

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/predict"
)

func TestZooShape(t *testing.T) {
	s := testSuite()
	res, err := s.Zoo(predict.KindGshare, predict.KindTAGE)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kinds) != 2 || res.Kinds[0] != predict.KindGshare || res.Kinds[1] != predict.KindTAGE {
		t.Fatalf("kinds %v", res.Kinds)
	}
	if len(res.Sizes) != len(s.Config().AllocBHTSizes) {
		t.Fatalf("sizes %v", res.Sizes)
	}
	for _, kind := range res.Kinds {
		rows := res.Rows[kind]
		if len(rows) != len(FigureBenchmarks) {
			t.Fatalf("%s: %d rows, want %d", kind, len(rows), len(FigureBenchmarks))
		}
		for i, r := range rows {
			if r.Benchmark != FigureBenchmarks[i] {
				t.Fatalf("%s row %d is %q, want %q", kind, i, r.Benchmark, FigureBenchmarks[i])
			}
			if r.Branches == 0 {
				t.Fatalf("%s/%s: no branches simulated", kind, r.Benchmark)
			}
			if len(r.Conv) != len(res.Sizes) || len(r.Alloc) != len(res.Sizes) {
				t.Fatalf("%s/%s: rate vectors sized %d/%d", kind, r.Benchmark, len(r.Conv), len(r.Alloc))
			}
			for j := range r.Conv {
				if r.Conv[j] < 0 || r.Conv[j] > 1 || r.Alloc[j] < 0 || r.Alloc[j] > 1 {
					t.Fatalf("%s/%s: rate out of range: %+v", kind, r.Benchmark, r)
				}
			}
		}
		avg := res.Averages[kind]
		if avg.Benchmark != "average" || avg.Kind != kind {
			t.Fatalf("%s average row %+v", kind, avg)
		}
	}
}

// TestZooKindOrderAndValidation: requested kinds come back in canonical
// ZooKinds order regardless of argument order, duplicates collapse, and
// unknown kinds fail fast before any simulation.
func TestZooKindOrderAndValidation(t *testing.T) {
	got, err := normalizeZooKinds([]string{predict.KindTAGE, predict.KindPAg, predict.KindTAGE})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != predict.KindPAg || got[1] != predict.KindTAGE {
		t.Fatalf("normalized %v", got)
	}
	all, err := normalizeZooKinds(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(predict.ZooKinds()) {
		t.Fatalf("empty selection %v", all)
	}
	if _, err := normalizeZooKinds([]string{"bogus"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := testSuite().Zoo("bogus"); err == nil {
		t.Fatal("Zoo accepted unknown kind")
	}
}

// TestZooAllocationHelpsPAg pins the directional claim the zoo extends:
// for the paper's own PAg, allocated indexing still beats conventional
// at the largest table size on average — the zoo experiment must agree
// with Figure 3 about the scheme both share.
func TestZooAllocationHelpsPAg(t *testing.T) {
	s := testSuite()
	res, err := s.Zoo(predict.KindPAg)
	if err != nil {
		t.Fatal(err)
	}
	avg := res.Averages[predict.KindPAg]
	last := len(res.Sizes) - 1
	if avg.Alloc[last] >= avg.Conv[last] {
		t.Fatalf("PAg allocation did not help: conv %.4f vs alloc %.4f", avg.Conv[last], avg.Alloc[last])
	}
	if avg.Improvement() <= 0 {
		t.Fatalf("improvement %v", avg.Improvement())
	}
}

func TestRenderZooAndRunZoo(t *testing.T) {
	s := testSuite()
	res, err := s.Zoo(predict.KindGshare)
	if err != nil {
		t.Fatal(err)
	}
	text := RenderZoo(res, false)
	for _, want := range []string{"[gshare]", "benchmark", "conv-", "alloc-", "[summary", "improvement", "average"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
	md := RenderZoo(res, true)
	if !strings.Contains(md, "| benchmark") {
		t.Error("markdown render malformed")
	}

	var b strings.Builder
	if err := RunZoo(s, &b, false, predict.KindGshare); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "## Extended: predictor zoo") {
		t.Errorf("RunZoo missing section header:\n%s", b.String())
	}
	if err := RunZoo(s, &b, false, "bogus"); err == nil {
		t.Fatal("RunZoo accepted unknown kind")
	}
}

// TestZooDifferentialAcrossWorkers extends the byte-identity
// requirement to the predictor zoo: the full rendered zoo output —
// every seed benchmark × every predictor kind × conventional and
// allocated indexing — must be byte-identical between the strictly
// serial suite and one running GOMAXPROCS workers. CI runs this under
// -race, so the benchmark-level parallelism around the zoo sims is
// exercised for data races at the same time.
func TestZooDifferentialAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		s := NewSuite(Config{Scale: 0.05, Workers: workers, Metrics: obs.New(obs.NewRegistry())})
		var b strings.Builder
		if err := RunZoo(s, &b, false); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(1)
	if !strings.Contains(serial, "[tage]") || !strings.Contains(serial, "[perceptron]") {
		t.Fatalf("zoo output incomplete:\n%.1000s", serial)
	}
	max := runtime.GOMAXPROCS(0)
	if got := render(max); got != serial {
		t.Errorf("zoo output differs between serial and workers=%d\n--- serial ---\n%.3000s\n--- parallel ---\n%.3000s",
			max, serial, got)
	}
}
