package graph

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// atLeast is the threshold-pruning predicate.
func atLeast(threshold uint64) func(u, v int32, w uint64) bool {
	return func(_, _ int32, w uint64) bool { return w >= threshold }
}

func TestFromPairsAccumulates(t *testing.T) {
	g := FromPairs(3, []Pair{{0, 1, 10}, {1, 0, 5}})
	if g.Weight(0, 1) != 15 || g.Weight(1, 0) != 15 {
		t.Fatalf("weights %d/%d, want 15", g.Weight(0, 1), g.Weight(1, 0))
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := FromPairs(2, []Pair{{1, 1, 100}})
	if g.NumEdges() != 0 || g.Degree(1) != 0 {
		t.Fatal("self loop stored")
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := FromPairs(4, []Pair{{0, 3, 3}, {0, 1, 1}, {2, 0, 2}})
	if g.Degree(0) != 3 || g.Degree(1) != 1 {
		t.Fatalf("degrees %d/%d", g.Degree(0), g.Degree(1))
	}
	ns, ws := g.Row(0)
	if fmt.Sprint(ns, ws) != "[1 2 3] [1 2 3]" {
		t.Fatalf("row 0 = %v %v, want ascending neighbors with their weights", ns, ws)
	}
}

func TestTotalWeight(t *testing.T) {
	g := FromPairs(3, []Pair{{0, 1, 10}, {1, 2, 20}})
	if g.TotalWeight() != 30 {
		t.Fatalf("total weight %d", g.TotalWeight())
	}
}

func TestPrune(t *testing.T) {
	g := FromPairs(4, []Pair{{0, 1, 99}, {1, 2, 100}, {2, 3, 101}})
	p := g.Filter(atLeast(100))
	if p.NumEdges() != 2 {
		t.Fatalf("pruned edges = %d", p.NumEdges())
	}
	if p.HasEdge(0, 1) {
		t.Fatal("sub-threshold edge survived")
	}
	if !p.HasEdge(1, 2) || !p.HasEdge(2, 3) {
		t.Fatal("at/above-threshold edges lost")
	}
	// Original unchanged.
	if g.NumEdges() != 3 {
		t.Fatal("prune mutated the original")
	}
}

// TestRemoveEdge drops one edge by endpoint, the way classification
// removes same-class conflicts.
func TestRemoveEdge(t *testing.T) {
	g := FromPairs(3, []Pair{{0, 1, 5}, {1, 2, 6}})
	var calls []string
	r := g.Filter(func(u, v int32, w uint64) bool {
		calls = append(calls, fmt.Sprintf("%d-%d:%d", u, v, w))
		return u != 0 || v != 1
	})
	if r.HasEdge(0, 1) || r.Degree(0) != 0 || r.Degree(1) != 1 || !r.HasEdge(2, 1) {
		t.Fatal("edge not removed")
	}
	// keep sees each edge once per endpoint, lower id first.
	if got := fmt.Sprint(calls); got != "[0-1:5 0-1:5 1-2:6 1-2:6]" {
		t.Fatalf("keep calls %s", got)
	}
}

func TestComponents(t *testing.T) {
	g := FromPairs(6, []Pair{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}})
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3 (two clusters + isolated 5)", len(comps))
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Fatalf("first component %v", comps[0])
	}
	if len(comps[2]) != 1 || comps[2][0] != 5 {
		t.Fatalf("isolated component %v", comps[2])
	}
}

// TestWeightOutOfRange checks that any id outside [0, N) reads as no
// edge instead of indexing past the rows.
func TestWeightOutOfRange(t *testing.T) {
	g := FromPairs(2, []Pair{{0, 1, 7}})
	for _, tc := range []struct {
		u, v int32
		want uint64
	}{
		{0, 1, 7},
		{1, 0, 7},
		{0, 0, 0},
		{-1, 0, 0},
		{0, -1, 0},
		{-1, -1, 0},
		{2, 0, 0},
		{0, 2, 0},
		{1 << 30, 1, 0},
		{-1 << 31, 1, 0},
	} {
		if got := g.Weight(tc.u, tc.v); got != tc.want {
			t.Errorf("Weight(%d, %d) = %d, want %d", tc.u, tc.v, got, tc.want)
		}
		if got := g.HasEdge(tc.u, tc.v); got != (tc.want > 0) {
			t.Errorf("HasEdge(%d, %d) = %v", tc.u, tc.v, got)
		}
	}
}

func TestStringSummary(t *testing.T) {
	g := FromPairs(2, []Pair{{0, 1, 3}})
	if s := g.String(); s != "graph{nodes=2 edges=1 weight=3}" {
		t.Fatalf("String() = %q", s)
	}
}

// cliquePairs wires all pairs among nodes with weight w.
func cliquePairs(w uint64, nodes ...int32) []Pair {
	var ps []Pair
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			ps = append(ps, Pair{nodes[i], nodes[j], w})
		}
	}
	return ps
}

// randomGraph builds an Erdos-Renyi style weighted graph.
func randomGraph(r *rng.Xoshiro256, n int, p float64, maxW int) *Graph {
	var ps []Pair
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				ps = append(ps, Pair{int32(u), int32(v), uint64(r.Intn(maxW) + 1)})
			}
		}
	}
	return FromPairs(n, ps)
}

func TestComponentsPartitionProperty(t *testing.T) {
	r := rng.New(5)
	f := func(seed uint16) bool {
		n := int(seed%40) + 1
		g := randomGraph(r, n, 0.1, 10)
		comps := g.Components()
		seen := make([]bool, n)
		total := 0
		for _, c := range comps {
			if !slices.IsSorted(c) {
				return false
			}
			for _, u := range c {
				if seen[u] {
					return false
				}
				seen[u] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPruneMonotoneProperty(t *testing.T) {
	r := rng.New(11)
	g := randomGraph(r, 30, 0.3, 100)
	prev := g.NumEdges()
	for _, th := range []uint64{1, 10, 50, 90, 101} {
		p := g.Filter(atLeast(th))
		if p.NumEdges() > prev {
			t.Fatalf("prune(%d) grew the graph", th)
		}
		prev = p.NumEdges()
	}
	if g.Filter(atLeast(101)).NumEdges() != 0 {
		t.Fatal("prune above max weight left edges")
	}
}
