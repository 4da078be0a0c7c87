package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/vm"
	"repro/internal/workload"
)

// This file runs the graph-workload experiment: every traversal-kernel
// × generator pair from workload.Graphs(), in both its branchy and
// branch-avoiding variants, simulated under the whole predictor zoo
// with conventional and allocated indexing at the baseline table size.
// It is the adversarial regime the paper's allocation story had never
// been tested against — data-dependent branches over irregular graph
// traversals — and the charact report (charact.go) explains whatever
// gap appears here. Differential tests assert the rendered output is
// byte-identical across Workers settings, like every other experiment.

// GraphArtifacts are the cached products of one graph benchmark run.
type GraphArtifacts struct {
	Spec workload.GraphSpec
	// Program is the compiled kernel at the suite's scale.
	Program *program.Program
	Stats   vm.Stats
	// Profile is the exact (unbounded-window) interleave profile of
	// the full branch stream; graph kernels have few static branches,
	// so no frequency filtering is applied.
	Profile *profile.Profile
	// Result is the kernel's algorithmic result read back from VM
	// memory (BFS levels, CC labels, or the triangle count).
	Result []int64
}

// graphEntry is one graph-cache slot (see entry).
type graphEntry struct {
	done chan struct{}
	a    *GraphArtifacts
	err  error
}

// GraphArtifacts runs (or returns the cached run of) one graph
// benchmark: compile, execute into the profiler, and read the result
// back. Concurrent requests for one benchmark share a computation.
func (s *Suite) GraphArtifacts(name string) (*GraphArtifacts, error) {
	s.graphMu.Lock()
	if e, ok := s.graphCache[name]; ok {
		s.graphMu.Unlock()
		<-e.done
		return e.a, e.err
	}
	e := &graphEntry{done: make(chan struct{})}
	s.graphCache[name] = e
	s.graphMu.Unlock()

	e.a, e.err = s.computeGraph(name)
	if e.err != nil {
		s.graphMu.Lock()
		delete(s.graphCache, name)
		s.graphMu.Unlock()
	}
	close(e.done)
	return e.a, e.err
}

func (s *Suite) computeGraph(name string) (*GraphArtifacts, error) {
	spec, err := workload.GraphByName(name)
	if err != nil {
		return nil, err
	}
	p, err := spec.Build(s.cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("harness: building graph %s: %w", name, err)
	}
	if s.cfg.ProgCheck {
		if _, err := s.verifyProgram(spec.Name, p); err != nil {
			return nil, err
		}
	}
	s.progressf("run graph %s (%s %s, %d nodes, scale %.2f)",
		spec.Name, spec.Variant(), spec.Kind, spec.Nodes, s.cfg.Scale)
	execSpan := s.stageSpan(spec.Name, "execute")
	prof := profile.NewProfiler(spec.Name, "ref", profile.WithMetrics(s.cfg.Metrics.Profile()))
	prof.Reserve(p.NumCondBranches())
	m, stats, err := spec.RunInto(s.cfg.Scale, prof, s.cfg.Metrics.VM())
	execSpan.End()
	if err != nil {
		return nil, fmt.Errorf("harness: running graph %s: %w", name, err)
	}
	prof.SetInstructions(stats.Instructions)
	result := spec.Result(m)
	if s.cfg.Check {
		want := spec.Reference()
		if len(result) != len(want) {
			return nil, fmt.Errorf("harness: graph %s result length %d, reference %d", name, len(result), len(want))
		}
		for i := range result {
			if result[i] != want[i] {
				return nil, fmt.Errorf("harness: graph %s result[%d] = %d, reference %d", name, i, result[i], want[i])
			}
		}
	}
	return &GraphArtifacts{
		Spec:    spec,
		Program: p,
		Stats:   stats,
		Profile: prof.Profile(),
		Result:  result,
	}, nil
}

// replayGraph re-executes the deterministic graph benchmark, streaming
// its full branch stream into sink (graph programs contain no OpRand,
// so every replay is the identical stream).
func (s *Suite) replayGraph(a *GraphArtifacts, sink vm.BranchSink) error {
	if _, _, err := a.Spec.RunInto(s.cfg.Scale, sink, s.cfg.Metrics.VM()); err != nil {
		return fmt.Errorf("harness: replaying graph %s: %w", a.Spec.Name, err)
	}
	return nil
}

// GraphCached returns the graph artifacts for name if they are already
// computed, without triggering a computation — the graph counterpart of
// Cached, used by bench throughput accounting.
func (s *Suite) GraphCached(name string) (*GraphArtifacts, bool) {
	s.graphMu.Lock()
	e, ok := s.graphCache[name]
	s.graphMu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.done:
		return e.a, e.err == nil
	default:
		return nil, false
	}
}

// GraphRow is one graph benchmark variant under one predictor kind:
// misprediction rates under both indexing schemes at each configured
// table size, mirroring ZooRow with the variant dimension added.
type GraphRow struct {
	// Benchmark is the kernel×generator pair name ("bfs-uniform").
	Benchmark string
	// Variant is "branchy" or "avoiding".
	Variant string
	Kind    string
	// Branches is the simulated dynamic conditional-branch count and
	// Static the static site count.
	Branches uint64
	Static   int
	// TakenRate is the stream's taken fraction.
	TakenRate float64
	// Conv[i] and Alloc[i] are the misprediction rates at table size
	// GraphsResult.Sizes[i] with PC-modulo and allocated indexing.
	Conv, Alloc []float64
}

// GraphsResult is the complete graph experiment: per predictor kind,
// rows in registry order, branchy before branch-avoiding in each pair.
type GraphsResult struct {
	Kinds []string
	Sizes []int
	Rows  map[string][]GraphRow
}

// Graphs runs the graph-workload experiment, one kernel×generator pair
// per worker. kinds selects zoo predictors as in Zoo; empty means all.
func (s *Suite) Graphs(kinds ...string) (*GraphsResult, error) {
	selected, err := normalizeZooKinds(kinds)
	if err != nil {
		return nil, err
	}
	pairs := workload.GraphPairNames()
	perPair, err := mapOrdered(s, len(pairs), nil, func(i int) ([][]GraphRow, error) {
		var out [][]GraphRow
		for _, suffix := range []string{"", "-ba"} {
			a, err := s.GraphArtifacts(pairs[i] + suffix)
			if err != nil {
				return nil, err
			}
			s.progressf("graph sims %s (%d predictors)", a.Spec.Name, len(selected))
			rows, err := s.graphRows(a, selected)
			if err != nil {
				return nil, err
			}
			out = append(out, rows)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res := &GraphsResult{Kinds: selected, Sizes: s.cfg.AllocBHTSizes, Rows: make(map[string][]GraphRow, len(selected))}
	for _, variants := range perPair {
		for _, rows := range variants {
			for _, r := range rows {
				res.Rows[r.Kind] = append(res.Rows[r.Kind], r)
			}
		}
	}
	return res, nil
}

// graphRows simulates one variant under every (kind, size, indexing)
// configuration — conventional and allocated indexing share one
// deterministic replay through a MultiSink, exactly like the zoo. One
// allocation per table size is shared across predictor kinds.
func (s *Suite) graphRows(a *GraphArtifacts, kinds []string) ([]GraphRow, error) {
	sizes := s.cfg.AllocBHTSizes
	allocs := make([]*core.AllocationMap, len(sizes))
	for i, size := range sizes {
		alloc, err := core.Allocate(a.Profile, core.AllocationConfig{
			TableSize: size,
			Threshold: s.cfg.Threshold,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: allocating graph %s at %d: %w", a.Spec.Name, size, err)
		}
		allocs[i] = alloc.Map
	}

	type simPair struct{ conv, alloc *predict.Sim }
	pairs := make([][]simPair, len(kinds))
	sinks := make(vm.MultiSink, 0, 2*len(kinds)*len(sizes))
	for ki, kind := range kinds {
		pairs[ki] = make([]simPair, len(sizes))
		for si, size := range sizes {
			cfg := predict.ZooConfig{TableSize: size, PHTEntries: s.cfg.PHTEntries}
			conv, err := predict.NewZooPredictor(kind, predict.PCModIndexer{Entries: size}, cfg)
			if err != nil {
				return nil, err
			}
			allocated, err := predict.NewZooPredictor(kind, predict.AllocIndexer{Map: allocs[si]}, cfg)
			if err != nil {
				return nil, err
			}
			pairs[ki][si] = simPair{conv: predict.NewSim(conv), alloc: predict.NewSim(allocated)}
			sinks = append(sinks, pairs[ki][si].conv, pairs[ki][si].alloc)
		}
	}

	span := s.stageSpan(a.Spec.Name, "simulate")
	err := s.replayGraph(a, sinks)
	span.End()
	if err != nil {
		return nil, err
	}

	pm := s.cfg.Metrics.Predict()
	rows := make([]GraphRow, len(kinds))
	for ki, kind := range kinds {
		row := GraphRow{
			Benchmark: a.Spec.PairName(),
			Variant:   a.Spec.Variant(),
			Kind:      kind,
			Static:    a.Program.NumCondBranches(),
			TakenRate: a.Stats.TakenRate(),
			Conv:      make([]float64, len(sizes)),
			Alloc:     make([]float64, len(sizes)),
		}
		for si := range sizes {
			p := pairs[ki][si]
			p.conv.FlushMetrics(pm)
			p.alloc.FlushMetrics(pm)
			row.Conv[si] = p.conv.MispredictRate()
			row.Alloc[si] = p.alloc.MispredictRate()
			row.Branches = p.conv.Branches()
		}
		rows[ki] = row
	}
	return rows, nil
}

// RenderGraphs formats the graph experiment: one table per predictor
// kind (both variants of every pair, a conv/alloc column pair per
// table size), then a summary of the branchy-vs-avoiding gap and the
// allocation delta at the smallest and largest sizes.
func RenderGraphs(res *GraphsResult, markdown bool) string {
	var out string
	for _, kind := range res.Kinds {
		header := []string{"benchmark", "variant", "branches", "taken"}
		for _, size := range res.Sizes {
			header = append(header, fmt.Sprintf("conv-%d", size), fmt.Sprintf("alloc-%d", size))
		}
		t := newTextTable(header...)
		for _, r := range res.Rows[kind] {
			cells := []string{r.Benchmark, r.Variant,
				fmt.Sprintf("%d", r.Branches), fmt.Sprintf("%.3f", r.TakenRate)}
			for i := range res.Sizes {
				cells = append(cells, fmt.Sprintf("%.4f", r.Conv[i]), fmt.Sprintf("%.4f", r.Alloc[i]))
			}
			t.add(cells...)
		}
		out += fmt.Sprintf("[%s]\n", kind)
		if markdown {
			out += t.markdown()
		} else {
			out += t.String()
		}
		out += "\n"
	}

	first, last := 0, len(res.Sizes)-1
	sum := newTextTable("predictor", "branchy conv", "avoiding conv",
		fmt.Sprintf("alloc delta @%d", res.Sizes[first]),
		fmt.Sprintf("alloc delta @%d", res.Sizes[last]))
	improvementAt := func(r GraphRow, i int) float64 {
		if r.Conv[i] == 0 {
			return 0
		}
		return (r.Conv[i] - r.Alloc[i]) / r.Conv[i]
	}
	for _, kind := range res.Kinds {
		var convB, convA, deltaFirst, deltaLast float64
		var nB, nA int
		for _, r := range res.Rows[kind] {
			deltaFirst += improvementAt(r, first)
			deltaLast += improvementAt(r, last)
			if r.Variant == "branchy" {
				convB += r.Conv[last]
				nB++
			} else {
				convA += r.Conv[last]
				nA++
			}
		}
		n := float64(nB + nA)
		if nB > 0 {
			convB /= float64(nB)
		}
		if nA > 0 {
			convA /= float64(nA)
		}
		if n > 0 {
			deltaFirst /= n
			deltaLast /= n
		}
		sum.add(kind,
			fmt.Sprintf("%.4f", convB),
			fmt.Sprintf("%.4f", convA),
			fmt.Sprintf("%+.1f%%", 100*deltaFirst),
			fmt.Sprintf("%+.1f%%", 100*deltaLast),
		)
	}
	out += fmt.Sprintf("[summary: averages across pairs; conv at table size %d]\n", res.Sizes[last])
	if markdown {
		return out + sum.markdown()
	}
	return out + sum.String()
}

// RunGraphs renders the graph-workload experiment to w. kinds empty
// runs the whole zoo.
func RunGraphs(s *Suite, w io.Writer, markdown bool, kinds ...string) error {
	res, err := s.Graphs(kinds...)
	if err != nil {
		return err
	}
	section(w, "Extended: graph workloads — branchy vs branch-avoiding kernels under the zoo")
	_, _ = io.WriteString(w, RenderGraphs(res, markdown))
	return RunGraphVerification(s, w, markdown)
}
