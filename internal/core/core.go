// Package core implements the paper's two contributions on top of the
// profiling and graph substrates:
//
//   - Branch working set analysis (Section 4): partitioning the pruned
//     branch conflict graph into working sets and summarizing their
//     static and execution-weighted sizes (Table 2).
//
//   - Branch allocation (Section 5): compiler-style assignment of each
//     static conditional branch to a BHT entry by minimum-conflict graph
//     coloring, optionally refined with taken-frequency branch
//     classification (Section 5.2), plus the required-BHT-size search
//     behind Tables 3 and 4.
//
// The inputs are profile.Profile values; the outputs are working-set
// reports and AllocationMaps consumed by the allocation-indexed
// predictors in package predict.
package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/profile"
)

// DefaultThreshold is the conflict-edge pruning threshold. The paper
// chooses 100 and reports that 500 or 1000 make no significant
// difference (Section 4.2).
const DefaultThreshold = 100

// SetDefinition selects how working sets are read off the conflict
// graph.
type SetDefinition int

const (
	// MaximalCliques enumerates all maximal complete subgraphs
	// (overlapping), matching the paper's definition and the scale of
	// its Table 2 set counts.
	MaximalCliques SetDefinition = iota
	// GreedyPartition produces disjoint cliques; each branch belongs to
	// exactly one working set. Useful when sets must partition the
	// program (e.g. per-set reporting).
	GreedyPartition
)

func (d SetDefinition) String() string {
	switch d {
	case MaximalCliques:
		return "maximal-cliques"
	case GreedyPartition:
		return "greedy-partition"
	}
	return "unknown"
}

// AnalysisConfig configures working-set analysis.
type AnalysisConfig struct {
	// Threshold prunes conflict edges below this interleave count;
	// 0 selects DefaultThreshold.
	Threshold uint64
	// Definition selects the working-set extraction; default
	// MaximalCliques.
	Definition SetDefinition
	// CliqueBudget bounds maximal-clique enumeration; <= 0 selects
	// graph.DefaultCliqueBudget.
	CliqueBudget int
	// IncludeSingletons counts isolated branches as singleton working
	// sets. The paper's statistics concern interacting branches, so the
	// default (false) excludes them; the number excluded is reported.
	IncludeSingletons bool
	// Deprecated: enumeration is serial; this field is ignored and remains only because perfbench/ still sets it.
	Workers int
	// Metrics, when non-nil, records clique-enumeration effort (budget
	// steps, cliques, truncations). Never affects the result.
	Metrics *obs.CliqueMetrics
}

// WorkingSet is one extracted set of interacting branches.
type WorkingSet struct {
	// Branches holds profile branch ids, sorted ascending.
	Branches []int32
	// ExecWeight is the summed dynamic execution count of the members.
	ExecWeight uint64
}

// Size returns the number of member branches.
func (ws WorkingSet) Size() int { return len(ws.Branches) }

// AnalysisResult is the outcome of working-set analysis for one profile
// — the per-benchmark row of Table 2 plus the underlying structures.
type AnalysisResult struct {
	Profile *profile.Profile
	Config  AnalysisConfig
	// Graph is the pruned conflict graph (nodes = profile branch ids).
	Graph *graph.Graph
	// Sets are the extracted working sets.
	Sets []WorkingSet
	// Truncated is true if clique enumeration hit its budget; the
	// statistics then cover only the enumerated sets.
	Truncated bool
	// IsolatedBranches counts branches with no conflict edge above
	// threshold (excluded from Sets unless IncludeSingletons).
	IsolatedBranches int
}

// NumSets returns the total number of working sets (Table 2, column 2).
func (r *AnalysisResult) NumSets() int { return len(r.Sets) }

// AvgStaticSize returns the unweighted mean working-set size (Table 2,
// column 3).
func (r *AnalysisResult) AvgStaticSize() float64 {
	if len(r.Sets) == 0 {
		return 0
	}
	total := 0
	for _, ws := range r.Sets {
		total += ws.Size()
	}
	return float64(total) / float64(len(r.Sets))
}

// AvgDynamicSize returns the execution-weighted mean working-set size
// (Table 2, column 4): each set weighted by its members' dynamic
// execution counts, so the sets the program actually lives in dominate.
func (r *AnalysisResult) AvgDynamicSize() float64 {
	var num, den float64
	for _, ws := range r.Sets {
		num += float64(ws.Size()) * float64(ws.ExecWeight)
		den += float64(ws.ExecWeight)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// MaxSetSize returns the largest working-set size, a lower bound on the
// conflict-free BHT requirement.
func (r *AnalysisResult) MaxSetSize() int {
	max := 0
	for _, ws := range r.Sets {
		if ws.Size() > max {
			max = ws.Size()
		}
	}
	return max
}

// Analyze runs working-set analysis over p.
func Analyze(p *profile.Profile, cfg AnalysisConfig) (*AnalysisResult, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil profile")
	}
	threshold := cfg.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	g := p.BuildGraph(threshold)

	isolated := 0
	for u := 0; u < g.N(); u++ {
		if g.Degree(int32(u)) == 0 {
			isolated++
		}
	}

	var cliques [][]int32
	truncated := false
	switch cfg.Definition {
	case MaximalCliques:
		res := g.MaximalCliquesObs(cfg.CliqueBudget, cfg.IncludeSingletons, 1, cfg.Metrics)
		cliques, truncated = res.Cliques, res.Truncated
	case GreedyPartition:
		cliques = g.GreedyCliquePartition(cfg.IncludeSingletons)
	default:
		return nil, fmt.Errorf("core: unknown set definition %d", cfg.Definition)
	}

	sets := make([]WorkingSet, 0, len(cliques))
	for _, c := range cliques {
		var w uint64
		for _, id := range c {
			w += p.Exec[id]
		}
		sets = append(sets, WorkingSet{Branches: c, ExecWeight: w})
	}
	// Deterministic order: largest first, ties broken by full member
	// comparison — a total order over distinct sets, so the ordering is
	// independent of enumeration (and worker) order.
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i].Branches, sets[j].Branches
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})

	return &AnalysisResult{
		Profile:          p,
		Config:           cfg,
		Graph:            g,
		Sets:             sets,
		Truncated:        truncated,
		IsolatedBranches: isolated,
	}, nil
}
