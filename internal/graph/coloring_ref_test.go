package graph

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// colorReference is the O(n·K) coloring that Color must reproduce
// exactly: the same recipe with every choice made by a plain scan. The
// spill pick scans all nodes for the least total weight (lowest id on
// ties), every pop scans the degree buckets from 0, and select clears
// and scans all K colors per node, with a modulo per step. The
// differential tests compare Color's Colors against it.
func colorReference(g *Graph, spec ColoringSpec) (Coloring, error) {
	if spec.K < 1 {
		return Coloring{}, fmt.Errorf("graph: coloring needs K >= 1, got %d", spec.K)
	}
	if spec.FirstFree < 0 || spec.FirstFree >= spec.K {
		return Coloring{}, fmt.Errorf("graph: FirstFree %d outside [0,%d)", spec.FirstFree, spec.K)
	}
	for u, c := range spec.Pinned {
		if c < 0 || c >= spec.K {
			return Coloring{}, fmt.Errorf("graph: pinned color %d for node %d outside [0,%d)", c, u, spec.K)
		}
		if int(u) < 0 || int(u) >= g.N() {
			return Coloring{}, fmt.Errorf("graph: pinned node %d outside graph", u)
		}
	}
	n := g.N()
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	removed := make([]bool, n)
	inStack := make([]int32, 0, n)

	pinned := make([]bool, n)
	for u := range spec.Pinned {
		pinned[u] = true
	}

	deg := make([]int, n)
	weight := make([]uint64, n)
	active := 0
	maxDeg := 0
	for u := 0; u < n; u++ {
		if pinned[u] {
			removed[u] = true
			continue
		}
		active++
		ns, ws := g.Row(int32(u))
		for i, v := range ns {
			if !pinned[v] {
				deg[u]++
			}
			weight[u] += ws[i]
		}
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}

	buckets := make([][]int32, maxDeg+1)
	for u := 0; u < n; u++ {
		if !removed[u] {
			buckets[deg[u]] = append(buckets[deg[u]], int32(u))
		}
	}
	pop := func() int32 {
		for d := 0; d < spec.K && d <= maxDeg; d++ {
			for len(buckets[d]) > 0 {
				u := buckets[d][len(buckets[d])-1]
				buckets[d] = buckets[d][:len(buckets[d])-1]
				if !removed[u] && deg[u] == d {
					return u
				}
			}
		}
		pick := int32(-1)
		var bestW uint64
		for u := 0; u < n; u++ {
			if removed[u] {
				continue
			}
			if pick == -1 || weight[u] < bestW {
				pick = int32(u)
				bestW = weight[u]
			}
		}
		return pick
	}
	for ; active > 0; active-- {
		u := pop()
		removed[u] = true
		inStack = append(inStack, u)
		ns, _ := g.Row(u)
		for _, v := range ns {
			if !removed[v] {
				deg[v]--
				buckets[deg[v]] = append(buckets[deg[v]], v)
			}
		}
	}

	for u, c := range spec.Pinned {
		colors[u] = c
	}

	used := make([]bool, spec.K)
	conflictW := make([]uint64, spec.K)
	load := make([]int, spec.K)
	for _, c := range spec.Pinned {
		load[c]++
	}
	nextProbe := spec.FirstFree
	for i := len(inStack) - 1; i >= 0; i-- {
		u := inStack[i]
		for c := range used {
			used[c] = false
			conflictW[c] = 0
		}
		ns, ws := g.Row(u)
		for i, v := range ns {
			if c := colors[v]; c >= 0 {
				used[c] = true
				conflictW[c] += ws[i]
			}
		}
		chosen := -1
		bestLoad := -1
		for off := 0; off < spec.K-spec.FirstFree; off++ {
			c := spec.FirstFree + (nextProbe-spec.FirstFree+off)%(spec.K-spec.FirstFree)
			if used[c] {
				continue
			}
			if bestLoad == -1 || load[c] < bestLoad {
				chosen = c
				bestLoad = load[c]
				if bestLoad == 0 {
					break
				}
			}
		}
		if chosen == -1 {
			var bestW uint64
			for c := spec.FirstFree; c < spec.K; c++ {
				if chosen == -1 || conflictW[c] < bestW {
					chosen = c
					bestW = conflictW[c]
				}
			}
		}
		colors[u] = chosen
		load[chosen]++
		nextProbe = chosen + 1
		if nextProbe >= spec.K {
			nextProbe = spec.FirstFree
		}
	}

	return Coloring{K: spec.K, Colors: colors, Cost: g.ConflictCost(colors)}, nil
}

// validateColors checks that colors has one entry per node and values
// in [-1, K).
func validateColors(g *Graph, colors []int, k int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("graph: colors length %d != node count %d", len(colors), g.N())
	}
	for u, c := range colors {
		if c < -1 || c >= k {
			return fmt.Errorf("graph: node %d color %d outside [-1,%d)", u, c, k)
		}
	}
	return nil
}

// checkAgainstReference colors g under spec with c and with
// colorReference and fails on any difference in Colors, or on a running
// cost that differs from ConflictCost. It then checks that a limit just
// below the cost stops the call, and that the next call on the same
// Colorer, at the cost as limit, still matches: the size search reuses
// one Colorer across probes and after aborted ones.
func checkAgainstReference(t *testing.T, g *Graph, c *Colorer, spec ColoringSpec) {
	t.Helper()
	want, werr := colorReference(g, spec)
	got, within, err := c.Color(spec.K, math.MaxUint64)
	if (err != nil) != (werr != nil) {
		t.Fatalf("K=%d FirstFree=%d: error %v, reference error %v", spec.K, spec.FirstFree, err, werr)
	}
	if err != nil {
		return
	}
	if err := validateColors(g, got.Colors, spec.K); err != nil {
		t.Fatal(err)
	}
	if !within || !slices.Equal(got.Colors, want.Colors) {
		t.Fatalf("K=%d FirstFree=%d pins=%v: colors %v (within %v), reference %v",
			spec.K, spec.FirstFree, spec.Pinned, got.Colors, within, want.Colors)
	}
	if got.Cost != want.Cost {
		t.Fatalf("K=%d FirstFree=%d: running cost %d, ConflictCost %d", spec.K, spec.FirstFree, got.Cost, want.Cost)
	}
	if want.Cost > 0 {
		part, within, err := c.Color(spec.K, want.Cost-1)
		if err != nil || within || part.Cost <= want.Cost-1 {
			t.Fatalf("K=%d: limit %d below cost %d: within %v, cost %d, err %v",
				spec.K, want.Cost-1, want.Cost, within, part.Cost, err)
		}
	}
	again, within, err := c.Color(spec.K, want.Cost)
	if err != nil || !within || again.Cost != want.Cost || !slices.Equal(again.Colors, want.Colors) {
		t.Fatalf("K=%d: reused colorer at limit %d: within %v, cost %d, err %v", spec.K, want.Cost, within, again.Cost, err)
	}
}

// TestColorMatchesReference runs the differential check over random
// graphs, table sizes up to several bitset words, and the three pin
// layouts: none, the classifier's (biased nodes pinned to colors 0 and
// 1, FirstFree 2), and arbitrary pins with an arbitrary FirstFree. One
// Colorer serves every size of a graph, as in the size search.
func TestColorMatchesReference(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(60)
		if trial%50 == 0 {
			n = 200 + r.Intn(300) // more nodes than colors at K > 64
		}
		g := randGraph(r, n, r.Intn(n*(1+r.Intn(n))/2+1))
		spec := ColoringSpec{Pinned: map[int32]int{}}
		lo := 1
		switch trial % 3 {
		case 1:
			spec.FirstFree, lo = 2, 3
			for u := int32(0); int(u) < n; u++ {
				if r.Intn(3) == 0 {
					spec.Pinned[u] = r.Intn(2)
				}
			}
		case 2:
			lo = 1 + r.Intn(12)
			spec.FirstFree = r.Intn(lo)
			for u := int32(0); int(u) < n; u++ {
				if r.Intn(4) == 0 {
					spec.Pinned[u] = r.Intn(lo)
				}
			}
		}
		c, err := g.NewColorer(spec.Pinned, spec.FirstFree)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{lo, lo + r.Intn(8), lo + r.Intn(40), 1 + r.Intn(200)} {
			if k >= lo {
				spec.K = k
				checkAgainstReference(t, g, c, spec)
			}
		}
	}
}
