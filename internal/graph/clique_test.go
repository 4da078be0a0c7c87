package graph

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/rng"
)

func cliqueSet(cliques [][]int32) map[string]bool {
	out := make(map[string]bool)
	for _, c := range cliques {
		key := ""
		for _, v := range c {
			key += string(rune('A' + v))
		}
		out[key] = true
	}
	return out
}

func TestMaximalCliquesTriangle(t *testing.T) {
	g := FromPairs(4, append(cliquePairs(1, 0, 1, 2), Pair{2, 3, 1}))
	res := g.MaximalCliquesObs(0, false, 1, nil)
	if res.Truncated {
		t.Fatal("tiny graph truncated")
	}
	got := cliqueSet(res.Cliques)
	if len(got) != 2 || !got["ABC"] || !got["CD"] {
		t.Fatalf("cliques %v", res.Cliques)
	}
}

func TestMaximalCliquesOverlapping(t *testing.T) {
	// Two overlapping triangles sharing an edge: {0,1,2} and {1,2,3}.
	g := FromPairs(4, append(cliquePairs(1, 0, 1, 2), cliquePairs(1, 1, 2, 3)...))
	res := g.MaximalCliquesObs(0, false, 1, nil)
	got := cliqueSet(res.Cliques)
	if len(got) != 2 || !got["ABC"] || !got["BCD"] {
		t.Fatalf("cliques %v", res.Cliques)
	}
}

func TestMaximalCliquesDisjoint(t *testing.T) {
	g := FromPairs(7, append(cliquePairs(1, 0, 1, 2), cliquePairs(1, 3, 4, 5, 6)...))
	res := g.MaximalCliquesObs(0, false, 1, nil)
	if len(res.Cliques) != 2 {
		t.Fatalf("cliques = %d, want 2", len(res.Cliques))
	}
	sizes := []int{len(res.Cliques[0]), len(res.Cliques[1])}
	sort.Ints(sizes)
	if sizes[0] != 3 || sizes[1] != 4 {
		t.Fatalf("clique sizes %v", sizes)
	}
}

func TestMaximalCliquesSingletons(t *testing.T) {
	g := FromPairs(3, []Pair{{0, 1, 1}})
	res := g.MaximalCliquesObs(0, false, 1, nil)
	if len(res.Cliques) != 1 {
		t.Fatalf("without singletons: %d cliques", len(res.Cliques))
	}
	res = g.MaximalCliquesObs(0, true, 1, nil)
	if len(res.Cliques) != 2 {
		t.Fatalf("with singletons: %d cliques, want 2 (edge + isolated node)", len(res.Cliques))
	}
}

func TestMaximalCliquesBudget(t *testing.T) {
	// A moderately dense random graph with a tiny budget must truncate
	// rather than hang.
	r := rng.New(3)
	g := randomGraph(r, 40, 0.5, 10)
	res := g.MaximalCliquesObs(5, false, 1, nil)
	if !res.Truncated {
		t.Fatal("budget 5 not reported as truncated")
	}
}

func TestMaximalCliquesAreCliquesAndMaximal(t *testing.T) {
	r := rng.New(13)
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(r, 25, 0.3, 10)
		res := g.MaximalCliquesObs(0, false, 1, nil)
		if res.Truncated {
			t.Fatal("unexpected truncation")
		}
		for _, c := range res.Cliques {
			// Complete subgraph.
			for i := 0; i < len(c); i++ {
				for j := i + 1; j < len(c); j++ {
					if !g.HasEdge(c[i], c[j]) {
						t.Fatalf("clique %v not complete", c)
					}
				}
			}
			// Maximal: no outside vertex adjacent to all members.
			for u := int32(0); u < int32(g.N()); u++ {
				inClique := false
				for _, v := range c {
					if v == u {
						inClique = true
						break
					}
				}
				if inClique {
					continue
				}
				all := true
				for _, v := range c {
					if !g.HasEdge(u, v) {
						all = false
						break
					}
				}
				if all {
					t.Fatalf("clique %v extensible by %d", c, u)
				}
			}
		}
	}
}

func TestMaximalCliquesMatchReference(t *testing.T) {
	// Cross-check clique counts against a brute-force enumeration on
	// small random graphs.
	r := rng.New(29)
	for trial := 0; trial < 20; trial++ {
		n := 8 + r.Intn(5)
		g := randomGraph(r, n, 0.4, 5)
		res := g.MaximalCliquesObs(0, false, 1, nil)
		want := bruteForceMaximalCliques(g)
		if len(res.Cliques) != len(want) {
			t.Fatalf("trial %d: %d cliques, reference %d", trial, len(res.Cliques), len(want))
		}
	}
}

// bruteForceMaximalCliques enumerates maximal cliques by subset scan
// (exponential; for tiny graphs only).
func bruteForceMaximalCliques(g *Graph) [][]int32 {
	n := g.N()
	isClique := func(mask int) bool {
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if mask&(1<<j) == 0 {
					continue
				}
				if !g.HasEdge(int32(i), int32(j)) {
					return false
				}
			}
		}
		return true
	}
	var cliques []int
	for mask := 1; mask < 1<<n; mask++ {
		if popcount(mask) < 2 || !isClique(mask) {
			continue
		}
		maximal := true
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				continue
			}
			if isClique(mask | 1<<v) {
				maximal = false
				break
			}
		}
		if maximal {
			cliques = append(cliques, mask)
		}
	}
	out := make([][]int32, 0, len(cliques))
	for _, mask := range cliques {
		var c []int32
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				c = append(c, int32(v))
			}
		}
		out = append(out, c)
	}
	return out
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func TestGreedyPartitionDisjointCliques(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(r, 30, 0.3, 10)
		parts := g.GreedyCliquePartition(true)
		seen := make([]bool, g.N())
		total := 0
		for _, c := range parts {
			for i, u := range c {
				if seen[u] {
					t.Fatal("partition overlaps")
				}
				seen[u] = true
				total++
				for j := i + 1; j < len(c); j++ {
					if !g.HasEdge(u, c[j]) {
						t.Fatalf("partition clique %v not complete", c)
					}
				}
			}
		}
		if total != g.N() {
			t.Fatalf("partition covers %d of %d (with singletons)", total, g.N())
		}
	}
}

func TestGreedyPartitionRecoversPlantedCliques(t *testing.T) {
	var ps []Pair
	for c := int32(0); c < 9; c += 3 {
		ps = append(ps, cliquePairs(100, c, c+1, c+2)...)
	}
	g := FromPairs(9, ps)
	parts := g.GreedyCliquePartition(false)
	if len(parts) != 3 {
		t.Fatalf("parts = %d, want 3", len(parts))
	}
	for _, c := range parts {
		if len(c) != 3 {
			t.Fatalf("part size %d, want 3", len(c))
		}
	}
}

func TestGreedyPartitionSingletonFlag(t *testing.T) {
	g := FromPairs(3, []Pair{{0, 1, 1}})
	with := g.GreedyCliquePartition(true)
	without := g.GreedyCliquePartition(false)
	if len(with) != 2 || len(without) != 1 {
		t.Fatalf("with=%d without=%d", len(with), len(without))
	}
}

func TestCliquesOnEmptyGraph(t *testing.T) {
	g := FromPairs(5, nil)
	res := g.MaximalCliquesObs(0, false, 1, nil)
	if len(res.Cliques) != 0 {
		t.Fatalf("empty graph produced %d cliques", len(res.Cliques))
	}
	res = g.MaximalCliquesObs(0, true, 1, nil)
	if len(res.Cliques) != 5 {
		t.Fatalf("empty graph with singletons produced %d, want 5", len(res.Cliques))
	}
}

// TestTruncatedCliquesDeterministic exhausts the enumeration budget on
// a dense random graph: every call must report Truncated and return the
// serial call's Cliques, whatever workers value it passes.
func TestTruncatedCliquesDeterministic(t *testing.T) {
	g := randomGraph(rng.New(7), 60, 2.0/3, 9)
	const budget = 2000
	serial := g.MaximalCliquesObs(budget, false, 1, nil)
	if !serial.Truncated {
		t.Fatalf("budget %d did not truncate", budget)
	}
	want := fmt.Sprint(serial.Cliques)
	for call := 0; call < 50; call++ {
		res := g.MaximalCliquesObs(budget, false, 4, nil)
		if !res.Truncated {
			t.Fatalf("call %d: budget %d did not truncate", call, budget)
		}
		if got := fmt.Sprint(res.Cliques); got != want {
			t.Fatalf("call %d with workers 4: %d cliques, differing from the serial call's %d",
				call, len(res.Cliques), len(serial.Cliques))
		}
	}
}
