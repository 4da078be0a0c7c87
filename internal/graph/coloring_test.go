package graph

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

func mustColor(t *testing.T, g *Graph, spec ColoringSpec) Coloring {
	t.Helper()
	c, err := g.Color(spec)
	if err != nil {
		t.Fatalf("color: %v", err)
	}
	if err := validateColors(g, c.Colors, spec.K); err != nil {
		t.Fatalf("invalid coloring: %v", err)
	}
	return c
}

func TestColorTriangleConflictFree(t *testing.T) {
	g := FromPairs(3, cliquePairs(10, 0, 1, 2))
	c := mustColor(t, g, ColoringSpec{K: 3})
	if g.ConflictCost(c.Colors) != 0 {
		t.Fatalf("triangle with 3 colors has conflicts: %v", c.Colors)
	}
}

func TestColorTriangleUnderPressure(t *testing.T) {
	// Three mutually conflicting nodes, two colors: exactly one edge
	// must go monochromatic — the cheapest one.
	g := FromPairs(3, []Pair{{0, 1, 100}, {1, 2, 50}, {0, 2, 10}})
	c := mustColor(t, g, ColoringSpec{K: 2})
	cost := g.ConflictCost(c.Colors)
	if cost != 10 {
		t.Fatalf("conflict cost %d, want 10 (cheapest edge shared)", cost)
	}
}

func TestColorZeroConflictWhenKExceedsDegree(t *testing.T) {
	// Greedy coloring is conflict-free whenever K > max degree.
	r := rng.New(7)
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(r, 40, 0.2, 100)
		maxDeg := 0
		for u := 0; u < g.N(); u++ {
			if d := g.Degree(int32(u)); d > maxDeg {
				maxDeg = d
			}
		}
		c := mustColor(t, g, ColoringSpec{K: maxDeg + 1})
		if cost := g.ConflictCost(c.Colors); cost != 0 {
			t.Fatalf("trial %d: K=maxdeg+1 still cost %d", trial, cost)
		}
	}
}

func TestColorEveryNodeAssigned(t *testing.T) {
	r := rng.New(9)
	g := randomGraph(r, 50, 0.3, 10)
	c := mustColor(t, g, ColoringSpec{K: 4})
	for u, col := range c.Colors {
		if col < 0 || col >= 4 {
			t.Fatalf("node %d color %d", u, col)
		}
	}
}

func TestColorSpreadsLoad(t *testing.T) {
	// 40 isolated nodes, 100 colors: every node should get a private
	// color (the allocator must not pack an empty graph).
	g := FromPairs(40, nil)
	c := mustColor(t, g, ColoringSpec{K: 100})
	used := make(map[int]int)
	for _, col := range c.Colors {
		used[col]++
	}
	for col, n := range used {
		if n > 1 {
			t.Fatalf("color %d shared by %d nodes despite free table space", col, n)
		}
	}
}

func TestColorPinnedRespected(t *testing.T) {
	g := FromPairs(4, cliquePairs(10, 0, 1, 2, 3))
	c := mustColor(t, g, ColoringSpec{
		K:      6,
		Pinned: map[int32]int{0: 5, 1: 4},
	})
	if c.Colors[0] != 5 || c.Colors[1] != 4 {
		t.Fatalf("pins ignored: %v", c.Colors)
	}
	if g.ConflictCost(c.Colors) != 0 {
		t.Fatalf("avoidable conflicts with pins: %v", c.Colors)
	}
}

func TestColorFirstFreeReservesEntries(t *testing.T) {
	g := FromPairs(10, cliquePairs(10, 0, 1, 2))
	c := mustColor(t, g, ColoringSpec{
		K:         8,
		FirstFree: 2,
		Pinned:    map[int32]int{9: 0, 8: 1},
	})
	for u := 0; u < 8; u++ {
		if c.Colors[u] < 2 {
			t.Fatalf("unpinned node %d took reserved color %d", u, c.Colors[u])
		}
	}
	if c.Colors[9] != 0 || c.Colors[8] != 1 {
		t.Fatal("pins to reserved entries lost")
	}
}

func TestColorErrors(t *testing.T) {
	g := FromPairs(3, nil)
	if _, err := g.Color(ColoringSpec{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := g.Color(ColoringSpec{K: 4, Pinned: map[int32]int{0: 9}}); err == nil {
		t.Error("out-of-range pin accepted")
	}
	if _, err := g.Color(ColoringSpec{K: 4, Pinned: map[int32]int{7: 0}}); err == nil {
		t.Error("pin of unknown node accepted")
	}
	if _, err := g.Color(ColoringSpec{K: 4, FirstFree: 4}); err == nil {
		t.Error("FirstFree >= K accepted")
	}
	if _, err := g.Color(ColoringSpec{K: 4, FirstFree: -1}); err == nil {
		t.Error("negative FirstFree accepted")
	}
}

func TestConflictCostIgnoresUncolored(t *testing.T) {
	g := FromPairs(2, []Pair{{0, 1, 7}})
	if cost := g.ConflictCost([]int{-1, -1}); cost != 0 {
		t.Fatalf("uncolored cost %d", cost)
	}
	if cost := g.ConflictCost([]int{0, 0}); cost != 7 {
		t.Fatalf("monochromatic cost %d", cost)
	}
}

func TestConflictCostShrinksWithMoreColors(t *testing.T) {
	r := rng.New(21)
	g := randomGraph(r, 60, 0.4, 100)
	prev := ^uint64(0)
	for _, k := range []int{2, 4, 8, 16, 32, 64} {
		c := mustColor(t, g, ColoringSpec{K: k})
		cost := g.ConflictCost(c.Colors)
		// Greedy coloring is not strictly monotone, but allow only tiny
		// regressions.
		if cost > prev+prev/10 {
			t.Fatalf("cost at K=%d (%d) grew sharply from %d", k, cost, prev)
		}
		prev = cost
	}
	c := mustColor(t, g, ColoringSpec{K: 60})
	if g.ConflictCost(c.Colors) != 0 {
		t.Fatal("K = N not conflict free")
	}
}

func TestValidateColorsErrors(t *testing.T) {
	g := FromPairs(2, nil)
	if err := validateColors(g, []int{0}, 2); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := validateColors(g, []int{0, 5}, 2); err == nil {
		t.Error("out-of-range color accepted")
	}
	if err := validateColors(g, []int{-1, 1}, 2); err != nil {
		t.Errorf("valid colors rejected: %v", err)
	}
}

func TestColorBetterThanModuloOnStructuredGraph(t *testing.T) {
	// The core claim of branch allocation: on a graph of working-set
	// cliques, coloring beats address-modulo mapping at equal table
	// size. Build 8 cliques of 8 whose members are spread across the
	// "address space" so modulo-16 collides within cliques.
	var ps []Pair
	for c := 0; c < 8; c++ {
		var nodes []int32
		for i := 0; i < 8; i++ {
			nodes = append(nodes, int32(c+8*i)) // stride 8 => heavy mod-16 collisions
		}
		ps = append(ps, cliquePairs(100, nodes...)...)
	}
	g := FromPairs(64, ps)
	const k = 16
	modColors := make([]int, 64)
	for u := range modColors {
		modColors[u] = u % k
	}
	modCost := g.ConflictCost(modColors)
	col := mustColor(t, g, ColoringSpec{K: k})
	allocCost := g.ConflictCost(col.Colors)
	if allocCost != 0 {
		t.Fatalf("allocator left %d conflicts with k=2x clique size", allocCost)
	}
	if modCost == 0 {
		t.Fatal("test graph failed to stress modulo mapping")
	}
}

func TestColorDeterministic(t *testing.T) {
	r := rng.New(77)
	g := randomGraph(r, 80, 0.3, 50)
	first := mustColor(t, g, ColoringSpec{K: 12})
	for trial := 0; trial < 5; trial++ {
		again := mustColor(t, g, ColoringSpec{K: 12})
		for u := range first.Colors {
			if first.Colors[u] != again.Colors[u] {
				t.Fatalf("trial %d: node %d colored %d then %d", trial, u, first.Colors[u], again.Colors[u])
			}
		}
	}
}

// workingSetGraph builds a graph the size of the largest Table 3 row's
// (gcc at scale 0.1: 3884 nodes, 86218 edges): 12 working sets of 120
// nodes drawn from 3884, each a clique with weights in [100, 1000):
// 85307 edges, most nodes isolated, and a top degree of 353 (gcc's is
// 352).
func workingSetGraph() *Graph {
	r := rng.New(3)
	const n, sets, size = 3884, 12, 120
	var ps []Pair
	for s := 0; s < sets; s++ {
		members := r.Perm(n)[:size]
		for i, u := range members {
			for _, v := range members[i+1:] {
				ps = append(ps, Pair{int32(u), int32(v), uint64(100 + r.Intn(900))})
			}
		}
	}
	return FromPairs(n, ps)
}

// BenchmarkColor colors workingSetGraph at table sizes where the K
// terms of coloring show, plain and under the classifier's layout
// (every third node pinned to color 0 or 1, FirstFree 2).
func BenchmarkColor(b *testing.B) {
	g := workingSetGraph()
	pinned := map[int32]int{}
	for u := int32(0); int(u) < g.N(); u += 3 {
		pinned[u] = int(u/3) % 2
	}
	for _, k := range []int{16, 128, 1024} {
		for _, layout := range []ColoringSpec{{K: k}, {K: k, Pinned: pinned, FirstFree: 2}} {
			b.Run(fmt.Sprintf("K=%d/pins=%v", k, layout.Pinned != nil), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := g.Color(layout); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
