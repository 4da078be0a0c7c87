package core

import (
	"reflect"
	"testing"

	"repro/internal/classify"
	"repro/internal/rng"
)

func TestAnalyzeGroupedCollapsesBiased(t *testing.T) {
	// 6 branches: 0,1,2 biased-taken, 3 biased-not-taken, 4,5 mixed;
	// everything conflicts with everything.
	branches := [][2]uint64{
		{1000, 1000}, {1000, 999}, {1000, 998},
		{1000, 0},
		{1000, 500}, {1000, 500},
	}
	p := buildProfile(branches, cliquePairs(500, 0, 1, 2, 3, 4, 5))
	res, err := AnalyzeGrouped(p, AnalysisConfig{}, classify.Default())
	if err != nil {
		t.Fatal(err)
	}
	// Groups: taken supernode, not-taken supernode, 2 mixed = 4 nodes.
	if len(res.Members) != 4 {
		t.Fatalf("groups = %d, want 4", len(res.Members))
	}
	if res.TakenGroup == -1 || res.NotTakenGroup == -1 {
		t.Fatal("biased groups missing")
	}
	if len(res.Members[res.TakenGroup]) != 3 {
		t.Fatalf("taken group members = %d, want 3", len(res.Members[res.TakenGroup]))
	}
	if len(res.Members[res.NotTakenGroup]) != 1 {
		t.Fatalf("not-taken group members = %d, want 1", len(res.Members[res.NotTakenGroup]))
	}
	// The grouped graph is a clique of the 4 group nodes: one working
	// set of size 4 < the individual analysis's 6.
	if res.Analysis.NumSets() != 1 || res.Analysis.MaxSetSize() != 4 {
		t.Fatalf("grouped sets %d max %d, want 1 set of 4",
			res.Analysis.NumSets(), res.Analysis.MaxSetSize())
	}
	ind, err := Analyze(p, AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ind.MaxSetSize() != 6 {
		t.Fatalf("individual max set %d, want 6", ind.MaxSetSize())
	}
}

func TestAnalyzeGroupedDropsIntraGroupEdges(t *testing.T) {
	// Two biased-taken branches conflicting only with each other: the
	// group has no external edges, so no working set survives.
	branches := [][2]uint64{{1000, 1000}, {1000, 999}}
	p := buildProfile(branches, cliquePairs(500, 0, 1))
	res, err := AnalyzeGrouped(p, AnalysisConfig{}, classify.Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.Analysis.Graph.NumEdges() != 0 {
		t.Fatalf("intra-group edges survived: %d", res.Analysis.Graph.NumEdges())
	}
	if res.Analysis.NumSets() != 0 {
		t.Fatalf("sets = %d, want 0", res.Analysis.NumSets())
	}
}

func TestAnalyzeGroupedEdgeWeightsAccumulate(t *testing.T) {
	// Two biased-taken branches each conflicting with one mixed branch:
	// the group-to-mixed edge accumulates both weights.
	branches := [][2]uint64{
		{1000, 1000}, {1000, 999}, {1000, 500},
	}
	pairs := [][3]uint64{{0, 2, 300}, {1, 2, 400}}
	p := buildProfile(branches, pairs)
	res, err := AnalyzeGrouped(p, AnalysisConfig{}, classify.Default())
	if err != nil {
		t.Fatal(err)
	}
	mixedGroup := int32(-1)
	for g, m := range res.Members {
		if len(m) == 1 && m[0] == 2 {
			mixedGroup = int32(g)
		}
	}
	if mixedGroup == -1 {
		t.Fatal("mixed group not found")
	}
	if w := res.Analysis.Graph.Weight(res.TakenGroup, mixedGroup); w != 700 {
		t.Fatalf("accumulated weight %d, want 700", w)
	}
}

func TestAnalyzeGroupedAllMixedEqualsIndividual(t *testing.T) {
	// With no biased branches, grouping is the identity analysis. The
	// smaller clique comes first in id order, so the sets must also be
	// sorted alike, largest first, with the same exec weights.
	branches := make([][2]uint64, 7)
	for i := range branches {
		exec := 1000 + 100*uint64(i)
		branches[i] = [2]uint64{exec, exec / 2}
	}
	pairs := append(cliquePairs(500, 0, 1, 2), cliquePairs(500, 3, 4, 5, 6)...)
	p := buildProfile(branches, pairs)
	grp, err := AnalyzeGrouped(p, AnalysisConfig{}, classify.Default())
	if err != nil {
		t.Fatal(err)
	}
	ind, err := Analyze(p, AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grp.Analysis.Sets, ind.Sets) {
		t.Fatalf("grouped sets %v != individual sets %v", grp.Analysis.Sets, ind.Sets)
	}
	if grp.TakenGroup != -1 || grp.NotTakenGroup != -1 {
		t.Fatal("phantom biased groups created")
	}
}

func TestAnalyzeGroupedNilProfile(t *testing.T) {
	if _, err := AnalyzeGrouped(nil, AnalysisConfig{}, classify.Default()); err == nil {
		t.Fatal("nil profile accepted")
	}
}

func TestAnalyzeGroupedMemberPartition(t *testing.T) {
	branches := [][2]uint64{
		{1000, 1000}, {1000, 0}, {1000, 500}, {1000, 999}, {1000, 400},
	}
	p := buildProfile(branches, cliquePairs(200, 0, 1, 2, 3, 4))
	res, err := AnalyzeGrouped(p, AnalysisConfig{}, classify.Default())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool)
	total := 0
	for _, m := range res.Members {
		for _, id := range m {
			if seen[id] {
				t.Fatal("branch in two groups")
			}
			seen[id] = true
			total++
		}
	}
	if total != p.NumBranches() {
		t.Fatalf("members cover %d of %d", total, p.NumBranches())
	}
}

// TestAnalyzeGroupedMatchesMapReference checks the grouped graph's edge
// weights against group pairs summed in a map and then pruned, on a
// random profile with branches in both biased classes and weights
// around the threshold, so that collapsed pairs cross it only summed.
func TestAnalyzeGroupedMatchesMapReference(t *testing.T) {
	r := rng.New(5)
	const n = 60
	branches := make([][2]uint64, n)
	for i := range branches {
		branches[i] = [2]uint64{1000, [3]uint64{1000, 0, 500}[r.Intn(3)]}
	}
	var pairs [][3]uint64
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if r.Intn(3) == 0 {
				pairs = append(pairs, [3]uint64{uint64(a), uint64(b), uint64(r.Intn(120) + 1)})
			}
		}
	}
	p := buildProfile(branches, pairs)
	for _, threshold := range []uint64{1, 100} {
		res, err := AnalyzeGrouped(p, AnalysisConfig{Threshold: threshold}, classify.Default())
		if err != nil {
			t.Fatal(err)
		}
		if res.TakenGroup == -1 || res.NotTakenGroup == -1 {
			t.Fatal("random profile lacks a biased group")
		}
		groupOf := make([]int32, n)
		for g, members := range res.Members {
			for _, id := range members {
				groupOf[id] = int32(g)
			}
		}
		ref := make(map[[2]int32]uint64)
		for _, e := range pairs {
			ga, gb := groupOf[e[0]], groupOf[e[1]]
			if ga != gb {
				ref[[2]int32{min(ga, gb), max(ga, gb)}] += e[2]
			}
		}
		g := res.Analysis.Graph
		kept := 0
		for e, w := range ref {
			if w < threshold {
				w = 0
			} else {
				kept++
			}
			if got := g.Weight(e[0], e[1]); got != w {
				t.Fatalf("threshold %d: edge %v weight %d, map reference %d", threshold, e, got, w)
			}
		}
		if g.NumEdges() != kept {
			t.Fatalf("threshold %d: %d edges, map reference keeps %d", threshold, g.NumEdges(), kept)
		}
	}
}
