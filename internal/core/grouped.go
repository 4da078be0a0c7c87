package core

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/graph"
	"repro/internal/profile"
)

// GroupedAnalysis applies working-set analysis to pre-classified branch
// groups instead of individual branches — the extension the paper
// sketches in Sections 2 and 6: "branch working set analysis partitions
// branches or pre-classified branch groups into sets"; "treating all
// highly biased branches (e.g. not taken) as a single branch group
// sharing predictor resources". All biased-taken branches collapse into
// one supernode and all biased-not-taken branches into another; mixed
// branches stay individual. Edges re-accumulate over the collapsed node
// set, internal edges of a group vanish, and working sets are extracted
// from the grouped graph.
//
// The grouped sets measure how much of the working-set pressure remains
// once biased branches share resources — the quantity that lets the
// Table 4 allocations be so much smaller than Table 3's.

// GroupedResult is the outcome of a grouped working-set analysis.
type GroupedResult struct {
	// Analysis is the working-set analysis of the grouped graph. Node
	// ids in its sets are *group* ids, not branch ids; use Members to
	// expand them.
	Analysis *AnalysisResult
	// Classification is the classification that defined the groups.
	Classification *classify.Classification
	// Members[g] lists the profile branch ids collapsed into group g.
	Members [][]int32
	// TakenGroup and NotTakenGroup are the group ids of the two biased
	// supernodes, or -1 if that class is empty.
	TakenGroup, NotTakenGroup int32
}

// NumGroups returns the grouped graph's node count.
func (r *GroupedResult) NumGroups() int { return len(r.Members) }

// AnalyzeGrouped runs grouped working-set analysis over p. The analysis
// configuration is interpreted as in Analyze; thresholds apply to the
// re-accumulated group edge weights.
func AnalyzeGrouped(p *profile.Profile, cfg AnalysisConfig, th classify.Thresholds) (*GroupedResult, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil profile")
	}
	if th == (classify.Thresholds{}) {
		th = classify.Default()
	}
	cls := classify.Classify(p, th)

	// Assign group ids: one per mixed branch, one shared per biased
	// class (created on first member).
	groupOf := make([]int32, p.NumBranches())
	var members [][]int32
	takenGroup, notTakenGroup := int32(-1), int32(-1)
	newGroup := func() int32 {
		members = append(members, nil)
		return int32(len(members) - 1)
	}
	for id := 0; id < p.NumBranches(); id++ {
		var g int32
		switch cls.Classes[id] {
		case classify.BiasedTaken:
			if takenGroup == -1 {
				takenGroup = newGroup()
			}
			g = takenGroup
		case classify.BiasedNotTaken:
			if notTakenGroup == -1 {
				notTakenGroup = newGroup()
			}
			g = notTakenGroup
		default:
			g = newGroup()
		}
		groupOf[id] = g
		members[g] = append(members[g], int32(id))
	}

	// Re-accumulate interleave counts over groups; intra-group pairs
	// disappear (a group shares one resource, so it cannot conflict
	// with itself). Thresholds apply to the summed group counts. Mixed
	// branches are singleton groups, so a pair of two of them is
	// already unique and prunes on its own count; only pairs touching a
	// biased supernode collapse, and those sum per partner group (the
	// two supernodes' own pair sums under the taken one).
	threshold := cfg.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	toTaken := make([]uint64, len(members))
	toNotTaken := make([]uint64, len(members))
	var pairs []graph.Pair
	p.Pairs.Range(func(k, w uint64) bool {
		a, b := profile.UnpackPair(k)
		switch ga, gb := groupOf[a], groupOf[b]; {
		case ga == gb:
		case ga == takenGroup:
			toTaken[gb] += w
		case gb == takenGroup:
			toTaken[ga] += w
		case ga == notTakenGroup:
			toNotTaken[gb] += w
		case gb == notTakenGroup:
			toNotTaken[ga] += w
		case w >= threshold:
			pairs = append(pairs, graph.Pair{U: ga, V: gb, W: w})
		}
		return true
	})
	for grp := range members {
		if w := toTaken[grp]; w >= threshold {
			pairs = append(pairs, graph.Pair{U: takenGroup, V: int32(grp), W: w})
		}
		if w := toNotTaken[grp]; w >= threshold {
			pairs = append(pairs, graph.Pair{U: notTakenGroup, V: int32(grp), W: w})
		}
	}
	g := graph.FromPairs(len(members), pairs)

	// Group execution weights for the dynamic averages.
	exec := make([]uint64, len(members))
	for id, grp := range groupOf {
		exec[grp] += p.Exec[id]
	}

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
		res := g.MaximalCliquesObs(cfg.CliqueBudget, cfg.IncludeSingletons, 1, nil)
		cliques, truncated = res.Cliques, res.Truncated
	case GreedyPartition:
		cliques = g.GreedyCliquePartition(cfg.IncludeSingletons)
	default:
		return nil, fmt.Errorf("core: unknown set definition %d", cfg.Definition)
	}
	sets := make([]WorkingSet, 0, len(cliques))
	for _, c := range cliques {
		var w uint64
		for _, grp := range c {
			w += exec[grp]
		}
		sets = append(sets, WorkingSet{Branches: c, ExecWeight: w})
	}

	return &GroupedResult{
		Analysis: &AnalysisResult{
			Profile:          p,
			Config:           cfg,
			Graph:            g,
			Sets:             sets,
			Truncated:        truncated,
			IsolatedBranches: isolated,
		},
		Classification: cls,
		Members:        members,
		TakenGroup:     takenGroup,
		NotTakenGroup:  notTakenGroup,
	}, nil
}
