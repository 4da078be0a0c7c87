package analysis

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
)

// The Corrupt* helpers each seed one representative invariant violation
// into an artifact (a copy, for the immutable conflict graph), returning
// a description of what they broke. They exist for negative testing:
// the verifier unit tests and the CLIs' -corrupt flags use them to prove
// the -check path actually fails when an artifact is bad. They are never
// called from the pipeline itself.

// CorruptGraph returns a copy of g with a sub-threshold edge added
// between the first two nodes with no existing edge, violating the
// pruning invariant. g itself is left unchanged.
func CorruptGraph(g *graph.Graph, threshold uint64) (*graph.Graph, string, error) {
	if threshold <= 1 {
		// Graphs drop zero-weight edges, so there is no representable
		// sub-threshold edge below threshold 1.
		return nil, "", fmt.Errorf("analysis: cannot corrupt below threshold %d", threshold)
	}
	for u := int32(0); int(u) < g.N(); u++ {
		for v := u + 1; int(v) < g.N(); v++ {
			if g.HasEdge(u, v) {
				continue
			}
			pairs := []graph.Pair{{U: u, V: v, W: threshold - 1}}
			for a := int32(0); int(a) < g.N(); a++ {
				ns, ws := g.Row(a)
				for i, b := range ns {
					if a < b {
						pairs = append(pairs, graph.Pair{U: a, V: b, W: ws[i]})
					}
				}
			}
			return graph.FromPairs(g.N(), pairs), fmt.Sprintf("added edge {%d,%d} with weight %d below threshold %d",
				u, v, threshold-1, threshold), nil
		}
	}
	return nil, "", fmt.Errorf("analysis: graph too dense to corrupt (every pair connected)")
}

// CorruptWorkingSets duplicates the first member of the first non-empty
// working set, violating the strictly-ascending membership invariant.
func CorruptWorkingSets(res *core.AnalysisResult) (string, error) {
	for i := range res.Sets {
		ws := &res.Sets[i]
		if len(ws.Branches) == 0 {
			continue
		}
		id := ws.Branches[0]
		ws.Branches = append([]int32{id}, ws.Branches...)
		ws.ExecWeight += res.Profile.Exec[id]
		return fmt.Sprintf("duplicated branch %d in working set %d", id, i), nil
	}
	return "", fmt.Errorf("analysis: no working set to corrupt")
}

// CorruptAllocation moves the lowest allocated pc to an entry one past
// the end of the table, violating the index-range invariant. The
// corrupted map replaces a.Map, so predictors read the bad entry too.
func CorruptAllocation(a *core.Allocation) (string, error) {
	m := a.Map
	pcs := m.PCs()
	if len(pcs) == 0 {
		return "", fmt.Errorf("analysis: no allocated branch to corrupt")
	}
	low := slices.Min(pcs)
	entries := make([]int, len(pcs))
	for i, pc := range pcs {
		entries[i] = m.EntryFor(pc)
		if pc == low {
			entries[i] = m.TableSize
		}
	}
	a.Map = core.NewAllocationMap(m.TableSize, pcs, entries, m.ReservedTaken, m.ReservedNotTaken)
	return fmt.Sprintf("moved pc %#x to out-of-range entry %d", low, m.TableSize), nil
}
