package core

import (
	"math"
	"testing"

	"repro/internal/profile"
)

// buildProfile constructs a synthetic profile: branches is a list of
// (exec, taken) pairs; pairs is a list of (a, b, weight) conflicts.
func buildProfile(branches [][2]uint64, pairs [][3]uint64) *profile.Profile {
	p := &profile.Profile{
		Benchmark: "synthetic",
		InputSets: []string{"ref"},
	}
	for i, b := range branches {
		p.PCs = append(p.PCs, uint64(i+1)*4)
		p.Exec = append(p.Exec, b[0])
		p.Taken = append(p.Taken, b[1])
	}
	counts := make([]profile.PairCount, len(pairs))
	for i, e := range pairs {
		counts[i] = profile.PairCount{A: int32(e[0]), B: int32(e[1]), Count: e[2]}
	}
	p.Pairs = profile.NewPairList(len(branches), counts)
	return p
}

// mixed returns n (exec, taken) entries at a 50% taken rate.
func mixed(n int, exec uint64) [][2]uint64 {
	out := make([][2]uint64, n)
	for i := range out {
		out[i] = [2]uint64{exec, exec / 2}
	}
	return out
}

// cliquePairs wires all pairs among ids with weight w.
func cliquePairs(w uint64, ids ...uint64) [][3]uint64 {
	var out [][3]uint64
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			out = append(out, [3]uint64{ids[i], ids[j], w})
		}
	}
	return out
}

func TestAnalyzeTwoCliques(t *testing.T) {
	pairs := append(cliquePairs(500, 0, 1, 2), cliquePairs(500, 3, 4, 5, 6)...)
	p := buildProfile(mixed(7, 1000), pairs)
	res, err := Analyze(p, AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSets() != 2 {
		t.Fatalf("sets = %d, want 2", res.NumSets())
	}
	if res.AvgStaticSize() != 3.5 {
		t.Fatalf("avg static = %v, want 3.5", res.AvgStaticSize())
	}
	if res.MaxSetSize() != 4 {
		t.Fatalf("max set = %d", res.MaxSetSize())
	}
	// Sets sorted largest first.
	if res.Sets[0].Size() != 4 {
		t.Fatalf("largest set not first: %d", res.Sets[0].Size())
	}
	if res.Truncated {
		t.Fatal("tiny analysis truncated")
	}
}

func TestAnalyzeThresholdPrunes(t *testing.T) {
	pairs := [][3]uint64{
		{0, 1, 99},  // below default threshold
		{1, 2, 100}, // at threshold: kept
	}
	p := buildProfile(mixed(3, 1000), pairs)
	res, err := Analyze(p, AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSets() != 1 || res.Sets[0].Size() != 2 {
		t.Fatalf("sets %v", res.Sets)
	}
	if res.IsolatedBranches != 1 {
		t.Fatalf("isolated = %d, want 1 (node 0)", res.IsolatedBranches)
	}
}

func TestAnalyzeCustomThreshold(t *testing.T) {
	pairs := [][3]uint64{{0, 1, 50}}
	p := buildProfile(mixed(2, 100), pairs)
	res, err := Analyze(p, AnalysisConfig{Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSets() != 1 {
		t.Fatal("threshold 10 dropped a weight-50 edge")
	}
}

func TestAnalyzeDynamicWeighting(t *testing.T) {
	// Set {0,1} executes 10x more than set {2,3,4}: dynamic average
	// leans toward size 2.
	branches := [][2]uint64{
		{10000, 5000}, {10000, 5000},
		{100, 50}, {100, 50}, {100, 50},
	}
	pairs := append(cliquePairs(500, 0, 1), cliquePairs(500, 2, 3, 4)...)
	p := buildProfile(branches, pairs)
	res, err := Analyze(p, AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	static := res.AvgStaticSize()
	dynamic := res.AvgDynamicSize()
	if static != 2.5 {
		t.Fatalf("static = %v", static)
	}
	want := (2.0*20000 + 3.0*300) / 20300
	if math.Abs(dynamic-want) > 1e-9 {
		t.Fatalf("dynamic = %v, want %v", dynamic, want)
	}
	if dynamic >= static {
		t.Fatal("hot small set did not pull dynamic average down")
	}
}

func TestAnalyzeGreedyPartition(t *testing.T) {
	// Overlapping triangles {0,1,2} and {1,2,3}: maximal cliques yields
	// 2 sets; a partition must not reuse nodes.
	pairs := append(cliquePairs(500, 0, 1, 2), cliquePairs(500, 1, 2, 3)...)
	p := buildProfile(mixed(4, 1000), pairs)

	mc, err := Analyze(p, AnalysisConfig{Definition: MaximalCliques})
	if err != nil {
		t.Fatal(err)
	}
	if mc.NumSets() != 2 {
		t.Fatalf("maximal cliques = %d, want 2", mc.NumSets())
	}

	gp, err := Analyze(p, AnalysisConfig{Definition: GreedyPartition})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, ws := range gp.Sets {
		for _, id := range ws.Branches {
			if seen[id] {
				t.Fatal("partition reused a branch")
			}
			seen[id] = true
		}
	}
}

func TestAnalyzeSingletons(t *testing.T) {
	p := buildProfile(mixed(3, 1000), cliquePairs(500, 0, 1))
	without, err := Analyze(p, AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	with, err := Analyze(p, AnalysisConfig{IncludeSingletons: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.NumSets() != 1 || with.NumSets() != 2 {
		t.Fatalf("sets without=%d with=%d", without.NumSets(), with.NumSets())
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil, AnalysisConfig{}); err == nil {
		t.Error("nil profile accepted")
	}
	p := buildProfile(mixed(2, 100), nil)
	if _, err := Analyze(p, AnalysisConfig{Definition: SetDefinition(9)}); err == nil {
		t.Error("bad definition accepted")
	}
}

func TestAnalyzeEmptyProfile(t *testing.T) {
	p := buildProfile(nil, nil)
	res, err := Analyze(p, AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSets() != 0 || res.AvgStaticSize() != 0 || res.AvgDynamicSize() != 0 {
		t.Fatal("empty profile produced sets")
	}
}

func TestSetDefinitionString(t *testing.T) {
	if MaximalCliques.String() != "maximal-cliques" ||
		GreedyPartition.String() != "greedy-partition" ||
		SetDefinition(7).String() != "unknown" {
		t.Fatal("definition names wrong")
	}
}
