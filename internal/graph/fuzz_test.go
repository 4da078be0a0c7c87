package graph

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// decodePairs turns an arbitrary byte string into a node count and a
// weighted pair list. The decoder is intentionally permissive — every
// input decodes to something — so the fuzzers explore graph shapes
// rather than parser rejections. Pairs may be out of range or
// self-loops; FromPairs is specified to discard those.
func decodePairs(data []byte) (n int, pairs []Pair) {
	if len(data) == 0 {
		return 1, nil
	}
	n = 1 + int(data[0])%64
	data = data[1:]
	for len(data) >= 5 {
		u := int32(data[0]) - 2 // small negatives probe range checks
		v := int32(data[1]) - 2
		w := uint64(binary.LittleEndian.Uint16(data[2:4]))
		if data[4]&1 == 1 {
			w *= 257 // occasionally large weights
		}
		pairs = append(pairs, Pair{U: u, V: v, W: w})
		data = data[5:]
	}
	return n, pairs
}

// refGraph is the reference model FromPairs is checked against: plain
// map-of-maps adjacency holding each edge in both endpoints' maps.
type refGraph map[int32]map[int32]uint64

// refFromPairs builds the reference for pairs over n nodes: duplicates
// summed, self-loops, zero weights and out-of-range pairs skipped, and
// edges whose sum wrapped to zero removed.
func refFromPairs(n int, pairs []Pair) refGraph {
	ref := refGraph{}
	add := func(u, v int32, w uint64) {
		if ref[u] == nil {
			ref[u] = map[int32]uint64{}
		}
		ref[u][v] += w
	}
	for _, p := range pairs {
		if p.U < 0 || p.V < 0 || int(p.U) >= n || int(p.V) >= n || p.U == p.V || p.W == 0 {
			continue
		}
		add(p.U, p.V, p.W)
		add(p.V, p.U, p.W)
	}
	for _, row := range ref {
		for v, w := range row {
			if w == 0 {
				delete(row, v)
			}
		}
	}
	return ref
}

// prune returns the reference with only edges of weight >= threshold.
func (ref refGraph) prune(threshold uint64) refGraph {
	out := refGraph{}
	for u, row := range ref {
		out[u] = map[int32]uint64{}
		for v, w := range row {
			if w >= threshold {
				out[u][v] = w
			}
		}
	}
	return out
}

// checkAgainstRef fails unless g has n nodes, strictly ascending
// in-range rows, symmetric weights, and exactly ref's edges.
func checkAgainstRef(t *testing.T, what string, g *Graph, n int, ref refGraph) {
	t.Helper()
	if g.N() != n {
		t.Fatalf("%s: N() = %d, want %d", what, g.N(), n)
	}
	var total uint64
	edges := 0
	for u := int32(0); int(u) < n; u++ {
		ns, ws := g.Row(u)
		if len(ns) != len(ref[u]) || g.Degree(u) != len(ns) {
			t.Fatalf("%s: row %d has %d entries, want %d", what, u, len(ns), len(ref[u]))
		}
		for i, v := range ns {
			if i > 0 && ns[i-1] >= v {
				t.Fatalf("%s: row %d not strictly ascending: %v", what, u, ns)
			}
			if v < 0 || int(v) >= n || v == u {
				t.Fatalf("%s: row %d holds neighbor %d", what, u, v)
			}
			w := ws[i]
			if want, ok := ref[u][v]; !ok || w != want {
				t.Fatalf("%s: weight(%d,%d) = %d, want %d", what, u, v, w, want)
			}
			if back := g.Weight(v, u); back != w || g.Weight(u, v) != w {
				t.Fatalf("%s: asymmetric edge %d-%d: %d vs %d", what, u, v, w, back)
			}
			if u < v {
				total += w
				edges++
			}
		}
	}
	if total != g.TotalWeight() || edges != g.NumEdges() {
		t.Fatalf("%s: TotalWeight/NumEdges = %d/%d, recount %d/%d", what, g.TotalWeight(), g.NumEdges(), total, edges)
	}
}

// FuzzFromPairs checks graph construction and threshold filtering on
// arbitrary pair lists against the map-of-maps reference model: summed
// duplicates, dropped self-loops, zero weights and out-of-range pairs,
// strictly ascending rows, and symmetric weights — for the graph itself
// and for Filter at every threshold the input's weights make distinct.
func FuzzFromPairs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 10, 0, 0, 1, 0, 5, 0, 1})
	f.Add([]byte{8, 2, 2, 1, 0, 0, 1, 9, 255, 255, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, pairs := decodePairs(data)
		g := FromPairs(n, pairs)
		ref := refFromPairs(n, pairs)
		checkAgainstRef(t, "FromPairs", g, n, ref)
		thresholds := map[uint64]bool{0: true, 1: true}
		for _, p := range pairs {
			thresholds[p.W] = true
			thresholds[p.W+1] = true
		}
		for th := range thresholds {
			checkAgainstRef(t, fmt.Sprintf("Filter(w >= %d)", th), g.Filter(func(_, _ int32, w uint64) bool { return w >= th }), n, ref.prune(th))
		}
	})
}

// FuzzMaximalCliques fuzzes the clique enumerator: on every decoded
// graph each reported set must be a maximal clique.
func FuzzMaximalCliques(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 0, 0, 1, 2, 1, 0, 0, 0, 2, 1, 0, 0})
	f.Add([]byte{12, 3, 4, 200, 0, 1, 4, 5, 1, 1, 0, 5, 3, 7, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, pairs := decodePairs(data)
		if n > 24 {
			n = 24 // keep worst-case enumeration bounded per input
		}
		g := FromPairs(n, pairs)
		res := g.MaximalCliquesObs(0, true, 1, nil)
		for _, c := range res.Cliques {
			for i := 0; i < len(c); i++ {
				for j := i + 1; j < len(c); j++ {
					if !g.HasEdge(c[i], c[j]) {
						t.Fatalf("set %v is not a clique", c)
					}
				}
			}
			for v := int32(0); int(v) < g.N() && len(c) > 1; v++ {
				extends := true
				for _, u := range c {
					if u == v || !g.HasEdge(u, v) {
						extends = false
						break
					}
				}
				if extends {
					t.Fatalf("set %v is not maximal (extends with %d)", c, v)
				}
			}
		}
	})
}

// FuzzColoring checks Color against colorReference on arbitrary
// graphs: equal Colors, a running cost equal to ConflictCost, a limit
// below the cost that stops the call, and a conflict-free coloring
// when the free colors outnumber every degree. K reaches 1024, so the
// selector's level bitsets span up to 16 words. pinRaw picks the pin
// layout: none, the classifier's (nodes pinned to colors 0 and 1,
// FirstFree 2), arbitrary pins with an arbitrary FirstFree, or a
// FirstFree alone that leaves at most 64 colors at the top of the
// table, so the probe rotation wraps across the last word boundaries.
func FuzzColoring(f *testing.F) {
	f.Add(uint16(2), uint8(0), []byte{6, 0, 1, 50, 0, 0, 1, 2, 99, 0, 0})
	f.Add(uint16(0), uint8(0), []byte{9, 4, 5, 1, 1, 1, 5, 6, 1, 0, 0})
	f.Fuzz(func(t *testing.T, kRaw uint16, pinRaw uint8, data []byte) {
		n, pairs := decodePairs(data)
		g := FromPairs(n, pairs)
		spec := ColoringSpec{K: 1 + int(kRaw)%1024}
		sel := int(pinRaw >> 2)
		switch pinRaw & 3 {
		case 1:
			spec.K = max(spec.K, 3)
			spec.FirstFree = 2
			spec.Pinned = map[int32]int{}
			for u := 0; u < n; u++ {
				if (u+sel)%3 == 0 {
					spec.Pinned[int32(u)] = u % 2
				}
			}
		case 2:
			spec.FirstFree = sel % spec.K
			spec.Pinned = map[int32]int{}
			for u := 0; u < n; u++ {
				if (u*5+sel)%4 == 0 {
					spec.Pinned[int32(u)] = (u*13 + sel) % spec.K
				}
			}
		case 3:
			spec.FirstFree = spec.K - 1 - sel%spec.K
		}
		c, err := g.NewColorer(spec.Pinned, spec.FirstFree)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, g, c, spec)
		if len(spec.Pinned) > 0 {
			return
		}
		col, err := g.Color(spec)
		if err != nil {
			t.Fatal(err)
		}
		maxDeg := 0
		for u := int32(0); int(u) < n; u++ {
			maxDeg = max(maxDeg, g.Degree(u))
		}
		if free := spec.K - spec.FirstFree; free > maxDeg && col.Cost != 0 {
			t.Fatalf("conflict cost %d despite %d free colors > max degree %d", col.Cost, free, maxDeg)
		}
	})
}
