package graph

import (
	"testing"

	"repro/internal/rng"
)

// randPairs generates a random weighted pair list over n nodes,
// deliberately including duplicates, self-loops, and out-of-range
// endpoints so FromPairs' input hygiene is exercised too.
func randPairs(r *rng.Xoshiro256, n, count int) []Pair {
	pairs := make([]Pair, count)
	for i := range pairs {
		u := int32(r.Uint64()%uint64(n+2)) - 1 // in [-1, n]
		v := int32(r.Uint64()%uint64(n+2)) - 1
		pairs[i] = Pair{U: u, V: v, W: r.Uint64() % 500}
	}
	return pairs
}

// randGraph builds a random graph with roughly the requested edge
// density using only in-range, non-loop pairs.
func randGraph(r *rng.Xoshiro256, n, edges int) *Graph {
	ps := make([]Pair, edges)
	for i := range ps {
		u := int32(r.Uint64() % uint64(n))
		v := int32(r.Uint64() % uint64(n))
		ps[i] = Pair{u, v, 1 + r.Uint64()%300}
	}
	return FromPairs(n, ps)
}

// TestPropertyFromPairs checks the structural invariants of graph
// construction over random pair lists: symmetry, no self-edges,
// rejected out-of-range input, and exact weight accumulation against an
// independent reference map.
func TestPropertyFromPairs(t *testing.T) {
	r := rng.New(101)
	for trial := 0; trial < 50; trial++ {
		n := 2 + int(r.Uint64()%40)
		pairs := randPairs(r, n, int(r.Uint64()%200))
		g := FromPairs(n, pairs)

		if g.N() != n {
			t.Fatalf("trial %d: N() = %d, want %d", trial, g.N(), n)
		}
		// Independent reference: canonical (min,max) key accumulation.
		ref := map[[2]int32]uint64{}
		for _, p := range pairs {
			if p.U < 0 || p.V < 0 || int(p.U) >= n || int(p.V) >= n || p.U == p.V {
				continue
			}
			u, v := p.U, p.V
			if u > v {
				u, v = v, u
			}
			ref[[2]int32{u, v}] += p.W
		}
		for u := int32(0); int(u) < n; u++ {
			if g.Weight(u, u) != 0 {
				t.Fatalf("trial %d: self-edge on %d", trial, u)
			}
			for v := int32(0); int(v) < n; v++ {
				if g.Weight(u, v) != g.Weight(v, u) {
					t.Fatalf("trial %d: asymmetric weight %d-%d", trial, u, v)
				}
				a, b := u, v
				if a > b {
					a, b = b, a
				}
				want := ref[[2]int32{a, b}]
				if got := g.Weight(u, v); got != want {
					t.Fatalf("trial %d: weight(%d,%d) = %d, want %d", trial, u, v, got, want)
				}
			}
		}
	}
}

// TestPropertyPruneMonotone checks the pruning properties the analysis
// relies on (paper Section 4.2): pruning keeps exactly the edges at or
// above threshold with unchanged weights, a higher threshold yields a
// subgraph of a lower one, and pruning is idempotent.
func TestPropertyPruneMonotone(t *testing.T) {
	r := rng.New(202)
	for trial := 0; trial < 30; trial++ {
		n := 5 + int(r.Uint64()%40)
		g := randGraph(r, n, int(r.Uint64()%300))
		t1 := 1 + r.Uint64()%200
		t2 := t1 + 1 + r.Uint64()%200 // t2 > t1

		p1, p2 := g.Filter(atLeast(t1)), g.Filter(atLeast(t2))
		for u := int32(0); int(u) < n; u++ {
			ns, ws := g.Row(u)
			for i, v := range ns {
				w := ws[i]
				if got := p1.Weight(u, v); (w >= t1) != (got == w) || (w < t1 && got != 0) {
					t.Fatalf("trial %d: prune(%d) edge %d-%d w=%d got %d", trial, t1, u, v, w, got)
				}
			}
			// Monotone: every edge surviving the higher threshold survives
			// the lower one with the same weight.
			ns, _ = p2.Row(u)
			for _, v := range ns {
				if p1.Weight(u, v) != p2.Weight(u, v) {
					t.Fatalf("trial %d: prune not monotone at %d-%d", trial, u, v)
				}
			}
		}
		// Idempotent: re-pruning at the same threshold changes nothing.
		pp := p1.Filter(atLeast(t1))
		if pp.NumEdges() != p1.NumEdges() || pp.TotalWeight() != p1.TotalWeight() {
			t.Fatalf("trial %d: prune not idempotent", trial)
		}
	}
}

// checkMaximalCliques verifies each reported set is a clique and is
// maximal (no outside node adjacent to every member), the paper's
// working-set definition.
func checkMaximalCliques(t *testing.T, g *Graph, res CliqueResult, trial int) {
	t.Helper()
	for _, c := range res.Cliques {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				if !g.HasEdge(c[i], c[j]) {
					t.Fatalf("trial %d: reported set %v not a clique (%d-%d missing)", trial, c, c[i], c[j])
				}
			}
		}
		if len(c) < 2 {
			continue
		}
		for v := int32(0); int(v) < g.N(); v++ {
			inClique := false
			for _, u := range c {
				if u == v {
					inClique = true
					break
				}
			}
			if inClique {
				continue
			}
			extends := true
			for _, u := range c {
				if !g.HasEdge(u, v) {
					extends = false
					break
				}
			}
			if extends {
				t.Fatalf("trial %d: set %v not maximal (extends with %d)", trial, c, v)
			}
		}
	}
}

// TestPropertyMaximalCliques checks, over random graphs, that every
// working set the enumerator reports is a maximal clique, and that
// every node is covered.
func TestPropertyMaximalCliques(t *testing.T) {
	r := rng.New(303)
	for trial := 0; trial < 30; trial++ {
		n := 4 + int(r.Uint64()%30)
		g := randGraph(r, n, int(r.Uint64()%150))
		serial := g.MaximalCliquesObs(0, true, 1, nil)
		if serial.Truncated {
			t.Fatalf("trial %d: unexpected truncation", trial)
		}
		checkMaximalCliques(t, g, serial, trial)

		// Every node must be covered: each belongs to at least one
		// maximal clique (possibly a singleton).
		covered := make([]bool, n)
		for _, c := range serial.Cliques {
			for _, u := range c {
				covered[u] = true
			}
		}
		for u, ok := range covered {
			if !ok {
				t.Fatalf("trial %d: node %d in no working set", trial, u)
			}
		}
	}
}

// TestPropertyColoringConflictFree checks the allocator-facing coloring
// guarantee: whenever the table has more entries than any branch has
// conflicts (K > max degree), the greedy coloring is proper — no two
// conflicting branches share a BHT entry — and its conflict cost is 0.
func TestPropertyColoringConflictFree(t *testing.T) {
	r := rng.New(404)
	for trial := 0; trial < 30; trial++ {
		n := 4 + int(r.Uint64()%40)
		g := randGraph(r, n, int(r.Uint64()%200))
		maxDeg := 0
		for u := int32(0); int(u) < n; u++ {
			if d := g.Degree(u); d > maxDeg {
				maxDeg = d
			}
		}
		k := maxDeg + 1 + int(r.Uint64()%4)
		col, err := g.Color(ColoringSpec{K: k})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := validateColors(g, col.Colors, k); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for u := int32(0); int(u) < n; u++ {
			if col.Colors[u] < 0 {
				t.Fatalf("trial %d: node %d left uncolored", trial, u)
			}
			ns, _ := g.Row(u)
			for _, v := range ns {
				if col.Colors[u] == col.Colors[v] {
					t.Fatalf("trial %d: K=%d > maxdeg=%d but %d and %d share color %d",
						trial, k, maxDeg, u, v, col.Colors[u])
				}
			}
		}
		if cost := g.ConflictCost(col.Colors); cost != 0 {
			t.Fatalf("trial %d: conflict cost %d with K > max degree", trial, cost)
		}
	}
}

// TestPropertyColoringCostCounts cross-checks ConflictCost against a
// direct recount on random colorings, including uncolored (-1) nodes.
func TestPropertyColoringCostCounts(t *testing.T) {
	r := rng.New(505)
	for trial := 0; trial < 30; trial++ {
		n := 4 + int(r.Uint64()%30)
		g := randGraph(r, n, int(r.Uint64()%150))
		k := 2 + int(r.Uint64()%5)
		colors := make([]int, n)
		for i := range colors {
			colors[i] = int(r.Uint64()%uint64(k+1)) - 1 // in [-1, k)
		}
		var want uint64
		for u := int32(0); int(u) < n; u++ {
			ns, ws := g.Row(u)
			for i, v := range ns {
				if u < v && colors[u] >= 0 && colors[u] == colors[v] {
					want += ws[i]
				}
			}
		}
		if got := g.ConflictCost(colors); got != want {
			t.Fatalf("trial %d: ConflictCost = %d, want %d", trial, got, want)
		}
	}
}
