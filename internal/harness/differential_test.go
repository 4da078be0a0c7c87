package harness

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/workload"
)

// canonGraph dumps a conflict graph canonically: node count plus every
// undirected edge with its weight, sorted. Byte equality of dumps is
// byte equality of graphs.
func canonGraph(g *graph.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d\n", g.N())
	type edge struct {
		u, v int32
		w    uint64
	}
	var edges []edge
	for u := 0; u < g.N(); u++ {
		ns, ws := g.Row(int32(u))
		for i, v := range ns {
			if int32(u) < v {
				edges = append(edges, edge{int32(u), v, ws[i]})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "%d-%d:%d\n", e.u, e.v, e.w)
	}
	return b.String()
}

// canonSets dumps working sets in their reported order.
func canonSets(res *core.AnalysisResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sets=%d truncated=%v isolated=%d\n",
		res.NumSets(), res.Truncated, res.IsolatedBranches)
	for _, ws := range res.Sets {
		fmt.Fprintf(&b, "%v w=%d\n", ws.Branches, ws.ExecWeight)
	}
	return b.String()
}

// canonAlloc dumps an allocation: every assigned PC with its entry, the
// conflict cost, and the per-entry load vector.
func canonAlloc(a *core.Allocation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost=%d\n", a.ConflictCost)
	for _, pc := range a.Map.SortedPCs() {
		fmt.Fprintf(&b, "%#x->%d\n", pc, a.Map.Index[pc])
	}
	fmt.Fprintf(&b, "load=%v\n", a.Map.EntryLoad())
	return b.String()
}

// benchmarkDump profiles one benchmark under the given shard count and
// renders the merged conflict graph, maximal-clique working sets, and a
// 64-entry allocation canonically.
func benchmarkDump(t *testing.T, s *Suite, name string, shards int) string {
	t.Helper()
	a, err := s.Artifacts(name, workload.InputRef)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := core.Analyze(a.Profile, core.AnalysisConfig{
		Threshold:  s.cfg.Threshold,
		Definition: core.MaximalCliques,
		Workers:    shards,
		Metrics:    s.cfg.Metrics.Clique(),
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	alloc, err := core.Allocate(a.Profile, core.AllocationConfig{
		TableSize: 64,
		Threshold: s.cfg.Threshold,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return canonGraph(res.Graph) + canonSets(res) + canonAlloc(alloc)
}

// TestShardedSuiteMatchesSerial is the differential equivalence suite of
// ISSUE 3: for every seed benchmark and shards ∈ {1, 2, 7, GOMAXPROCS},
// the merged conflict graph, the extracted working sets, and the
// allocation must be byte-identical to the serial (shards=1) pipeline.
// CI runs it under -race, so the shard workers' synchronization is
// checked at the same time. Every suite runs fully instrumented: the
// equivalence must hold with metrics enabled (ISSUE 4), and -race then
// also covers the metric writes on the shard hot paths.
func TestShardedSuiteMatchesSerial(t *testing.T) {
	shardCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	names := workload.Names()

	// Reference: strictly serial intra-benchmark pipeline.
	ref := NewSuite(Config{Scale: 0.05, Workers: 1, ProfileShards: 1, Fused: true, Metrics: obs.New(obs.NewRegistry())})
	want := make(map[string]string, len(names))
	for _, name := range names {
		want[name] = benchmarkDump(t, ref, name, 1)
	}

	seen := map[int]bool{1: true}
	for _, shards := range shardCounts {
		if seen[shards] {
			continue // skip re-running the serial reference
		}
		seen[shards] = true
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := NewSuite(Config{Scale: 0.05, Workers: 1, ProfileShards: shards, Fused: true, Metrics: obs.New(obs.NewRegistry())})
			for _, name := range names {
				if got := benchmarkDump(t, s, name, shards); got != want[name] {
					t.Errorf("%s: shards=%d artifacts differ from serial\n--- serial ---\n%.2000s\n--- shards=%d ---\n%.2000s",
						name, shards, want[name], shards, got)
				}
			}
		})
	}
}

// TestShardedRenderedTables extends the byte-identity requirement to
// the formatted output layer: the rendered Table 2 text must not change
// with the shard count.
func TestShardedRenderedTables(t *testing.T) {
	render := func(shards int) string {
		s := NewSuite(Config{Scale: 0.05, Workers: 1, ProfileShards: shards, Fused: true, Metrics: obs.New(obs.NewRegistry())})
		rows, err := s.Table2()
		if err != nil {
			t.Fatal(err)
		}
		return RenderTable2(rows, false)
	}
	serial := render(1)
	if got := render(5); got != serial {
		t.Errorf("rendered Table 2 differs between shards=1 and shards=5:\n--- serial ---\n%s\n--- sharded ---\n%s", serial, got)
	}
}

// TestZooDifferentialAcrossShards extends the byte-identity requirement
// to the predictor zoo: the full rendered zoo output — every seed
// benchmark × every predictor kind × conventional and allocated
// indexing — must be byte-identical between the strictly serial suite
// and one running with GOMAXPROCS workers and profile shards. CI runs
// this under -race, so the zoo sims' fan-out is exercised for data races
// at the same time. The sims themselves are sequential per benchmark
// (one MultiSink replay); what this protects is the allocation inputs
// (sharded profiles) and the benchmark-level parallelism around them.
func TestZooDifferentialAcrossShards(t *testing.T) {
	render := func(workers, shards int) string {
		s := NewSuite(Config{Scale: 0.05, Workers: workers, ProfileShards: shards, Fused: true, Metrics: obs.New(obs.NewRegistry())})
		var b strings.Builder
		if err := RunZoo(s, &b, false); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(1, 1)
	if !strings.Contains(serial, "[tage]") || !strings.Contains(serial, "[perceptron]") {
		t.Fatalf("zoo output incomplete:\n%.1000s", serial)
	}
	max := runtime.GOMAXPROCS(0)
	if got := render(max, max); got != serial {
		t.Errorf("zoo output differs between serial and workers=shards=%d\n--- serial ---\n%.3000s\n--- parallel ---\n%.3000s",
			max, serial, got)
	}
}

// TestShardedProfilerOnBenchmarkStream cross-checks the record-then-
// replay path too: a recorded filtered trace replayed into serial and
// sharded profilers yields identical pair tables.
func TestShardedProfilerOnBenchmarkStream(t *testing.T) {
	spec, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := spec.Run(workload.RunConfig{Input: workload.InputRef, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	filter := tr.FilterByCoverage(spec.AnalyzeCoverage)

	dump := func(shards int) string {
		prof := profile.NewProfiler("li", "ref",
			profile.WithShards(shards), profile.WithMetrics(obs.New(obs.NewRegistry()).Profile()))
		filter.Kept.Replay(prof)
		p := prof.Profile()
		defer p.Release()
		pairs := p.SortedPairs()
		var b strings.Builder
		for _, pc := range pairs {
			fmt.Fprintf(&b, "%d-%d:%d\n", pc.A, pc.B, pc.Count)
		}
		return b.String()
	}
	serial := dump(1)
	for _, n := range []int{2, 7} {
		if got := dump(n); got != serial {
			t.Errorf("shards=%d replayed pair table differs from serial", n)
		}
	}
}
