package graph

import "fmt"

// Coloring assigns each node one of K colors. In branch allocation a
// color is a BHT entry index (paper Section 5.1): the goal is not a
// proper coloring but a minimum-conflict one — when a working set has
// more members than the table has entries, branches with the fewest
// conflicts share an entry.
type Coloring struct {
	// K is the number of colors (BHT entries available to the
	// allocator).
	K int
	// Colors[u] is node u's color in [0, K).
	Colors []int
}

// ColoringSpec configures Color.
type ColoringSpec struct {
	// K is the number of available colors; must be >= 1.
	K int
	// Pinned maps node ids to fixed colors in [0, K). The classifier
	// pins highly biased branches to reserved entries (Section 5.2).
	Pinned map[int32]int
	// FirstFree is the lowest color unpinned nodes may take. Setting it
	// to 2 with biased branches pinned to colors 0 and 1 keeps the
	// reserved entries "separated from others", as Section 5.2
	// specifies. Zero means all colors are available.
	FirstFree int
}

// Color computes a minimum-conflict coloring of g following the
// register-allocation recipe the paper adapts (Section 5.1):
//
//  1. Simplify: repeatedly remove a node with fewer than K uncolored,
//     unpinned neighbors (such a node can always be colored
//     conflict-free later). Removal order: lowest current degree first.
//  2. When no node has degree < K, remove the node with the smallest
//     total incident conflict weight (the "optimistic spill" candidate —
//     in branch allocation it is not spilled, it just risks sharing).
//  3. Select: reinsert nodes in reverse order; give each the
//     lowest-numbered color unused by its neighbors, or if none is
//     free, the color minimizing summed interleave weight to
//     same-colored neighbors.
//
// The returned Coloring always assigns every node a color.
func (g *Graph) Color(spec ColoringSpec) (Coloring, error) {
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

	// Pinned nodes never enter the simplify worklist; pinned pressure is
	// applied at select time via occupied colors.
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

	// Simplify with a degree-bucket queue: O(nodes + edges) overall,
	// which matters because the required-size search colors gcc-scale
	// graphs dozens of times.
	buckets := make([][]int32, maxDeg+1)
	for u := 0; u < n; u++ {
		if !removed[u] {
			buckets[deg[u]] = append(buckets[deg[u]], int32(u))
		}
	}
	pop := func() int32 {
		// Lowest-degree node below K first (guaranteed conflict-free);
		// stale bucket entries (degree since decreased or node already
		// removed) are skipped lazily.
		for d := 0; d < spec.K && d <= maxDeg; d++ {
			for len(buckets[d]) > 0 {
				u := buckets[d][len(buckets[d])-1]
				buckets[d] = buckets[d][:len(buckets[d])-1]
				if !removed[u] && deg[u] == d {
					return u
				}
			}
		}
		// High-pressure case: evict the node with the smallest total
		// conflict weight (cheapest to share an entry).
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

	// Apply pins before selection so reinserted nodes see them.
	for u, c := range spec.Pinned {
		colors[u] = c
	}

	// Select phase: reverse removal order. Among the colors free of
	// graph conflicts, take the least-loaded entry: the pruned graph
	// only records interleavings above threshold, and spreading
	// assignments across the whole table keeps the incidental
	// (sub-threshold) aliasing of a packed table from re-creating the
	// interference the allocation exists to remove. Entry load uses a
	// deterministic round-robin tie-break.
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
		// Start the scan at a rotating probe point so equal-load
		// choices distribute around the table instead of clustering at
		// FirstFree.
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
			// Every allowed color conflicts; take the cheapest (the
			// paper's "branches with the fewest conflicts ... map to
			// the same location").
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

	return Coloring{K: spec.K, Colors: colors}, nil
}

// ConflictCost returns the summed weight of edges whose endpoints share
// a color under colors (color -1 = uncolored, never conflicting). This
// is the table-contention metric used to size the BHT (Table 3/4).
func (g *Graph) ConflictCost(colors []int) uint64 {
	var total uint64
	for u := 0; u < g.N(); u++ {
		cu := colors[u]
		if cu < 0 {
			continue
		}
		ns, ws := g.Row(int32(u))
		for i, v := range ns {
			if int32(u) < v && colors[v] == cu {
				total += ws[i]
			}
		}
	}
	return total
}

// ValidateColors checks that colors has one entry per node and values in
// [-1, K).
func ValidateColors(g *Graph, colors []int, k int) error {
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
