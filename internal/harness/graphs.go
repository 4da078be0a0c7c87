package harness

import (
	"fmt"
	"io"

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

// GraphArtifacts runs (or returns the cached run of) one graph
// benchmark: compile, execute into the profiler, and read the result
// back. Concurrent requests for one benchmark share a computation.
func (s *Suite) GraphArtifacts(name string) (*GraphArtifacts, error) {
	return s.graphs.get(name, func() (*GraphArtifacts, error) { return s.computeGraph(name) })
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
	return s.graphs.cached(name)
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
// configuration through convAllocRows, exactly like the zoo.
func (s *Suite) graphRows(a *GraphArtifacts, kinds []string) ([]GraphRow, error) {
	grid, err := s.convAllocRows(a.Spec.Name, a.Profile, func(k vm.BranchSink) error { return s.replayGraph(a, k) }, kinds)
	if err != nil {
		return nil, err
	}
	rows := make([]GraphRow, len(grid))
	for i, r := range grid {
		rows[i] = GraphRow{
			Benchmark: a.Spec.PairName(),
			Variant:   a.Spec.Variant(),
			Kind:      r.Kind,
			Branches:  r.Branches,
			Static:    a.Program.NumCondBranches(),
			TakenRate: a.Stats.TakenRate(),
			Conv:      r.Conv,
			Alloc:     r.Alloc,
		}
	}
	return rows, nil
}

// RenderGraphs formats the graph experiment: one table per predictor
// kind (both variants of every pair, a conv/alloc column pair per
// table size), then a summary of the branchy-vs-avoiding gap and the
// allocation delta at the smallest and largest sizes.
func RenderGraphs(res *GraphsResult, markdown bool) string {
	out := renderConvAllocTables(res.Kinds, res.Sizes, []string{"benchmark", "variant", "branches", "taken"}, func(kind string) []convAllocRow {
		var rows []convAllocRow
		for _, r := range res.Rows[kind] {
			lead := []string{r.Benchmark, r.Variant, fmt.Sprintf("%d", r.Branches), fmt.Sprintf("%.3f", r.TakenRate)}
			rows = append(rows, convAllocRow{lead: lead, conv: r.Conv, alloc: r.Alloc})
		}
		return rows
	}, markdown)

	first, last := 0, len(res.Sizes)-1
	sum := newTextTable("predictor", "branchy conv", "avoiding conv",
		fmt.Sprintf("alloc delta @%d", res.Sizes[first]),
		fmt.Sprintf("alloc delta @%d", res.Sizes[last]))
	for _, kind := range res.Kinds {
		var convB, convA, deltaFirst, deltaLast float64
		var nB, nA int
		for _, r := range res.Rows[kind] {
			deltaFirst += improvement(r.Conv[first], r.Alloc[:first+1])
			deltaLast += improvement(r.Conv[last], r.Alloc[:last+1])
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
	return out + sum.render(markdown)
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
