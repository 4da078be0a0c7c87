package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "regenerate testdata/digests.json from the harness")

// TestMain lets the test binary serve as a benchmark child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testScale keeps the replay tests to a few seconds.
const testScale = 0.01

func atScale(w *workloadDef, scale float64) *workloadDef {
	c := *w
	c.scale = scale
	return &c
}

// harnessOutput runs one job through the harness, instrumented into
// reg when reg is non-nil.
func harnessOutput(t *testing.T, w *workloadDef, j job, reg *obs.Registry) ([]byte, *harness.Suite) {
	t.Helper()
	s := harness.NewSuite(harness.Config{Scale: w.scale, Fused: true, Metrics: obs.New(reg)})
	var buf bytes.Buffer
	if err := j.run(s, &buf); err != nil {
		t.Fatalf("%s: harness: %v", j.key, err)
	}
	return buf.Bytes(), s
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{{ten, 0.25, 2.75}, {ten, 0.5, 5.5}, {ten, 0.75, 8.25},
		{[]float64{1, 2}, 0.25, 0.75}, {[]float64{1, 2}, 0.75, 2.25}} {
		if got := quantile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2, 3}, 0.9); got != 3 {
		t.Errorf("percentile clamps to the slowest sample: got %v", got)
	}
}

// TestDigests regenerates the committed output digests with -update.
// Without it, every benchmark run checks its outputs against them.
func TestDigests(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/digests.json")
	}
	got := make(map[string]string)
	for _, w := range workloads {
		for _, j := range w.jobs {
			out, _ := harnessOutput(t, w, j, nil)
			sum := sha256.Sum256(out)
			got[j.key] = hex.EncodeToString(sum[:])
		}
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/digests.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTracedReplayMatchesHarness holds the traced run to the harness:
// identical rendered output, and layer counts equal to the harness's
// own totals.
func TestTracedReplayMatchesHarness(t *testing.T) {
	for _, name := range []string{"paper", "graph-zoo", "ablations"} {
		t.Run(name, func(t *testing.T) {
			base, err := workloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w := atScale(base, testScale)
			reg := obs.NewRegistry()
			want, suite := harnessOutput(t, w, w.jobs[0], reg)
			r, got, err := replayJobs(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(want)
			if got[0] != hex.EncodeToString(sum[:]) {
				t.Fatalf("traced replay output differs from the harness's")
			}

			var instr, kept, updates uint64
			sizes := uint64(len(suite.Config().AllocBHTSizes))
			for _, b := range w.classic {
				a, ok := suite.Cached(b.name, b.input)
				if !ok {
					t.Fatalf("harness did not run %s/%s", b.name, b.input.Name)
				}
				instr += a.VMStats.Instructions
				kept += a.Filter.DynamicKept
				if name == "ablations" && b.name == "li" {
					kept += 4 * a.Filter.DynamicKept // the window ablation's profilers
				}
			}
			if name == "paper" {
				for _, b := range harness.FigureBenchmarks {
					a, _ := suite.Cached(b, workload.InputRef)
					updates += 2 * (2 + sizes) * a.Filter.DynamicTotal // two figures
				}
			}
			for _, g := range w.graphs {
				a, ok := suite.GraphCached(g)
				if !ok {
					t.Fatalf("harness did not run %s", g)
				}
				instr += a.Stats.Instructions
				kept += a.Stats.CondBranches
				updates += 2 * sizes * uint64(len(predict.ZooKinds())) * a.Stats.CondBranches // conv and alloc per kind and size
			}
			c := r.counts
			if c.instructions != instr {
				t.Errorf("vm.instructions = %d, harness VMStats sum %d", c.instructions, instr)
			}
			if c.profileEvents != kept {
				t.Errorf("profile.events = %d, harness DynamicKept sum %d", c.profileEvents, kept)
			}
			if c.simUpdates != updates {
				t.Errorf("predict.updates = %d, sims × stream length %d", c.simUpdates, updates)
			}
			// The harness leaves the window ablation's profilers
			// uninstrumented, so its counter covers the other workloads.
			if want := reg.Counter("wsd_profile_pair_increments_total").Value(); name != "ablations" && c.pairIncrements != want {
				t.Errorf("profile.pair_increments = %d, harness counter %d", c.pairIncrements, want)
			}

			rec := &runRecord{}
			coverage := setLayerMetrics(r, rec)
			if coverage < minCoverage {
				t.Errorf("traced.coverage_frac = %.4f, want >= %.2f", coverage, minCoverage)
			}
		})
	}
}

// benchmarkJSON is the repository's benchmark declaration.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []endToEndBound `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, the benchmark reports %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, m := range spec.EndToEnd {
		if u := unitOf(m.Name); u != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q reported", m.Name, m.Unit, u)
		}
	}
	for _, m := range spec.PerLayer {
		if u := unitOf(m.Name); u != m.Unit {
			t.Errorf("per-layer %s: unit %q in BENCHMARK.json, %q reported", m.Name, m.Unit, u)
		}
	}
}

// TestServiceSmoke makes a short untraced and a short traced run of the
// service workload. Neither may fail a job or a check, and each must
// report every metric BENCHMARK.json names for it, with its unit.
func TestServiceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives wsanalyzed")
	}
	spec := readBenchmarkJSON(t)
	bin := filepath.Join(t.TempDir(), "wsanalyzed")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/wsanalyzed").CombinedOutput(); err != nil {
		t.Fatalf("building wsanalyzed: %v\n%s", err, out)
	}
	svc, err := workloadByName("service")
	if err != nil {
		t.Fatal(err)
	}
	// The traced run's eight passes take about 20 s each under -race.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	rec := &runRecord{}
	measureService(ctx, svc, 1, 2*time.Second, bin, 1, rec)
	if rec.Failed != 0 || rec.Attempted == 0 {
		t.Fatalf("untraced: %d of %d failed: %v", rec.Failed, rec.Attempted, rec.Errors)
	}
	for _, m := range spec.EndToEnd {
		if got, ok := rec.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("untraced: %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
		}
	}

	rec = &runRecord{}
	traceRun(ctx, svc, 1, 2*time.Second, bin, rec)
	if rec.Failed != 0 {
		t.Fatalf("traced: %d of %d failed: %v", rec.Failed, rec.Attempted, rec.Errors)
	}
	for _, m := range spec.PerLayer {
		if got, ok := rec.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("traced: %s missing or not in %s: %+v", m.Name, m.Unit, got)
		}
	}
}

func TestCompareVerdict(t *testing.T) {
	bd := endToEndBound{Better: "lower", Bound: 0.10}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{10.02, 9.98, 10.1, 9.9, 10}, "unchanged"},
		{[]float64{12, 12.1, 11.9, 12.05, 11.95}, "worse"},
		{[]float64{8, 8.1, 7.9, 8.05, 7.95}, "better"},
		{[]float64{7, 13, 10, 8, 12}, "unresolved"},
	} {
		if got, _ := verdict(base, c.b, bd); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}
