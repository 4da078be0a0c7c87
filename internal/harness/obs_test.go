package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/predict"
	"repro/internal/workload"
)

// metricsRegistry builds a deterministic registry for harness tests:
// frozen clock, zero allocation source.
func metricsRegistry() *obs.Registry {
	return obs.NewRegistry(
		obs.WithClock(obs.NewFakeClock(time.Unix(0, 0), 0)),
		obs.WithMemSource(func() uint64 { return 0 }),
	)
}

// TestMetricsDoNotPerturbOutput is the central determinism guarantee of
// the observability layer: a full parallel suite run renders
// byte-identical output with instrumentation off and on.
func TestMetricsDoNotPerturbOutput(t *testing.T) {
	render := func(m *obs.Metrics) string {
		// Scale 0.02 keeps the double full-suite run affordable under
		// -race; the byte-identity property is scale-independent.
		s := NewSuite(Config{Scale: 0.02, Metrics: m})
		var buf bytes.Buffer
		if err := RunAll(s, &buf, false); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	off := render(nil)
	on := render(obs.New(obs.NewRegistry()))
	if off != on {
		t.Error("RunAll output differs between metrics off and on")
	}
}

// TestStreamCountersExact pins the instrumented pipeline's counters to
// independently-known quantities for one benchmark: the VM runs twice
// (pre-count and profiling pass), so each VM series is twice the run's
// Stats; the profiler event count must equal the filtered dynamic branch
// count, and the pair-increment total the pair table's total weight.
func TestStreamCountersExact(t *testing.T) {
	reg := metricsRegistry()
	s := NewSuite(Config{Scale: 0.05, Workers: 1, Metrics: obs.New(reg)})
	a, err := s.Artifacts("li", workload.InputRef)
	if err != nil {
		t.Fatal(err)
	}

	counter := func(name string) uint64 { return reg.Counter(name).Value() }
	if got := counter("wsd_vm_runs_total"); got != 2 {
		t.Errorf("vm runs = %d, want 2 (pre-count and profiling pass)", got)
	}
	if got := counter("wsd_vm_instructions_total"); got != 2*a.VMStats.Instructions {
		t.Errorf("vm instructions = %d, want 2 × Stats %d", got, a.VMStats.Instructions)
	}
	if got := counter("wsd_vm_branches_total"); got != 2*a.VMStats.CondBranches {
		t.Errorf("vm branches = %d, want 2 × Stats %d", got, a.VMStats.CondBranches)
	}
	if got := counter("wsd_vm_taken_total"); got != 2*a.VMStats.Taken {
		t.Errorf("vm taken = %d, want 2 × Stats %d", got, a.VMStats.Taken)
	}

	if got := counter("wsd_profile_events_total"); got != a.Filter.DynamicKept {
		t.Errorf("profile events = %d, want filtered dynamic count %d", got, a.Filter.DynamicKept)
	}
	var pairWeight, pairCount uint64
	for _, pc := range a.Profile.SortedPairs() {
		pairWeight += pc.Count
		pairCount++
	}
	if got := counter("wsd_profile_pair_increments_total"); got != pairWeight {
		t.Errorf("pair increments = %d, want pair-table total weight %d", got, pairWeight)
	}
	if got := counter("wsd_profile_merged_pairs_total"); got != pairCount {
		t.Errorf("merged pairs = %d, want distinct pair count %d", got, pairCount)
	}
	if got := counter("wsd_profile_merges_total"); got != 1 {
		t.Errorf("merges = %d, want 1", got)
	}
}

// simulated is what one experiment reports it simulated: Σ rows ×
// configurations × branches, and the benchmarks it replayed.
type simulated struct {
	branches   uint64
	benchmarks []string
	// graph marks graph benchmarks, whose artifacts take one VM run
	// (the profiled execution) instead of two.
	graph bool
}

// TestFigurePredictFlushExact reconciles the predictor counters with
// the rows of every simulating experiment: each configuration consumes
// its benchmark's full branch stream once, so the branch total is rows
// × configurations × per-row branches, hits and mispredicts partition
// it, and every simulated benchmark opens exactly one simulate span
// around its one replay.
func TestFigurePredictFlushExact(t *testing.T) {
	figure := func(res *FigureResult, err error) (simulated, error) {
		var out simulated
		if err != nil {
			return out, err
		}
		configs := uint64(2 + len(res.Sizes)) // conventional + interference-free + one per size
		for _, row := range res.Rows {
			out.branches += row.Branches * configs
			out.benchmarks = append(out.benchmarks, row.Benchmark)
		}
		return out, nil
	}
	cases := []struct {
		name string
		run  func(*Suite) (simulated, error)
	}{
		{"figure3", func(s *Suite) (simulated, error) { return figure(s.Figure3()) }},
		{"figure4", func(s *Suite) (simulated, error) { return figure(s.Figure4()) }},
		{"zoo", func(s *Suite) (simulated, error) {
			res, err := s.Zoo()
			if err != nil {
				return simulated{}, err
			}
			out := simulated{benchmarks: FigureBenchmarks}
			for _, kind := range res.Kinds {
				for _, row := range res.Rows[kind] {
					out.branches += row.Branches * uint64(2*len(res.Sizes))
				}
			}
			return out, nil
		}},
		{"graphs", func(s *Suite) (simulated, error) {
			res, err := s.Graphs(predict.KindPAg, predict.KindTAGE)
			if err != nil {
				return simulated{}, err
			}
			out := simulated{benchmarks: workload.GraphNames(), graph: true}
			for _, kind := range res.Kinds {
				for _, row := range res.Rows[kind] {
					out.branches += row.Branches * uint64(2*len(res.Sizes))
				}
			}
			return out, nil
		}},
		{"extras", func(s *Suite) (simulated, error) {
			rows, _, err := s.Extras(pipeline.Deep())
			if err != nil {
				return simulated{}, err
			}
			var out simulated
			for _, row := range rows {
				a, ok := s.Cached(row.Benchmark, workload.InputRef)
				if !ok {
					return out, fmt.Errorf("%s: no artifacts", row.Benchmark)
				}
				out.branches += a.VMStats.CondBranches * 7 // the seven compared schemes
				out.benchmarks = append(out.benchmarks, row.Benchmark)
			}
			return out, nil
		}},
		{"static", func(s *Suite) (simulated, error) {
			res, err := s.StaticComparison()
			if err != nil {
				return simulated{}, err
			}
			var out simulated
			configs := uint64(2 + 2*len(res.Sizes)) // conventional + interference-free + profiled and static per size
			for _, row := range res.Rows {
				out.branches += row.Branches * configs
				out.benchmarks = append(out.benchmarks, row.Benchmark)
			}
			return out, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := metricsRegistry()
			s := NewSuite(Config{Scale: 0.02, Workers: 1, Metrics: obs.New(reg)})
			want, err := tc.run(s)
			if err != nil {
				t.Fatal(err)
			}
			branches := reg.Counter("wsd_predict_branches_total").Value()
			hits := reg.Counter("wsd_predict_hits_total").Value()
			miss := reg.Counter("wsd_predict_mispredicts_total").Value()
			if branches != want.branches {
				t.Errorf("predict branches = %d, want %d", branches, want.branches)
			}
			if hits+miss != branches {
				t.Errorf("hits %d + mispredicts %d != branches %d", hits, miss, branches)
			}
			if miss == 0 {
				t.Error("no mispredicts recorded; predictors are not that good")
			}

			spans := map[string]uint64{}
			for _, st := range reg.Snapshot().Stages {
				if strings.Contains(st.Name, `stage="simulate"`) {
					spans[st.Name] = st.Count
				}
			}
			for _, b := range want.benchmarks {
				name := obs.Name("wsd_stage", "benchmark", b, "stage", "simulate")
				if spans[name] != 1 {
					t.Errorf("%s: %d simulate spans, want 1", b, spans[name])
				}
				delete(spans, name)
			}
			if len(spans) != 0 {
				t.Errorf("simulate spans for benchmarks the rows do not name: %v", spans)
			}
			perBenchmark := uint64(3) // pre-count, profiling pass, one replay
			if want.graph {
				perBenchmark = 2 // profiled execution, one replay
			}
			runs := perBenchmark * uint64(len(want.benchmarks))
			if got := reg.Counter("wsd_vm_runs_total").Value(); got != runs {
				t.Errorf("vm runs = %d, want %d", got, runs)
			}
		})
	}
}

// TestStageSpansRecorded checks the span taxonomy: a table+figure run
// must record execute/profile/analyze/simulate stages for the
// benchmarks it touched.
func TestStageSpansRecorded(t *testing.T) {
	reg := metricsRegistry()
	s := NewSuite(Config{Scale: 0.02, Workers: 1, Metrics: obs.New(reg)})
	if _, err := s.Table2(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Figure3(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	found := map[string]bool{}
	for _, st := range snap.Stages {
		if st.Count == 0 {
			t.Errorf("stage %s recorded with zero count", st.Name)
		}
		found[st.Name] = true
	}
	for _, want := range []string{
		obs.Name("wsd_stage", "benchmark", "li", "stage", "execute"),
		obs.Name("wsd_stage", "benchmark", "li", "stage", "profile"),
		obs.Name("wsd_stage", "benchmark", "li", "stage", "analyze"),
		obs.Name("wsd_stage", "benchmark", "li", "stage", "simulate"),
	} {
		if !found[want] {
			t.Errorf("missing stage span %s (have %v)", want, snap.Stages)
		}
	}
}
