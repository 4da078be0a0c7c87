// Package profile implements the first two steps of the paper's branch
// working set analysis (Section 4.1): identifying execution interleaving
// between conditional branches from time-stamped profile runs, and
// summarizing it as pairwise interleave counts — the edge weights of the
// branch conflict graph.
//
// The paper's formulation time-stamps every branch with the instruction
// count and, on each dynamic instance of branch A, scans for branches
// whose time stamp exceeds A's previous one. That scan is equivalent to
// reading the branches above A in a recency (move-to-front) stack:
// exactly the distinct branches executed since A last executed. The
// Profiler uses the stack form, whose cost per dynamic branch is the
// reuse distance instead of the static branch count; NaiveProfiler keeps
// the literal time-stamp scan for cross-validation.
package profile

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/isa"
)

// PairKey packs an unordered id pair into a map key. The smaller id
// occupies the high word so keys sort by first member.
func PairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// UnpackPair returns the ids packed by PairKey, smaller first.
func UnpackPair(k uint64) (int32, int32) {
	return int32(uint32(k >> 32)), int32(uint32(k))
}

// Profile is the summarized result of one or more profiling runs: the
// per-branch execution statistics and the pairwise interleave counts
// from which the conflict graph is built.
type Profile struct {
	// Benchmark and InputSets record provenance; InputSets has one
	// entry per merged run.
	Benchmark string
	InputSets []string
	// Instructions is the total instruction count across runs.
	Instructions uint64
	// PCs maps dense branch ids to static branch byte addresses.
	PCs []uint64
	// Exec[id] and Taken[id] count dynamic executions and taken
	// outcomes per static branch.
	Exec  []uint64
	Taken []uint64
	// Pairs holds each interleaving pair once with its count. It is
	// immutable, so the graphs BuildGraph memoizes never go stale.
	Pairs PairList

	graphMu sync.Mutex
	graphs  map[uint64]*graph.Graph // BuildGraph's memo, by threshold
}

// NumBranches returns the number of distinct static branches profiled.
func (p *Profile) NumBranches() int { return len(p.PCs) }

// Release drops the profile's pair list and memoized graphs so a
// transient profile's memory can be collected while its owner lives on.
// Call it only once the analysis is complete; the profile must not be
// used afterwards.
func (p *Profile) Release() {
	p.graphMu.Lock()
	p.graphs = nil
	p.graphMu.Unlock()
	p.Pairs = PairList{}
}

// DynamicBranches returns the total dynamic branch count.
func (p *Profile) DynamicBranches() uint64 {
	var total uint64
	for _, e := range p.Exec {
		total += e
	}
	return total
}

// TakenRate returns branch id's taken fraction.
func (p *Profile) TakenRate(id int32) float64 {
	if p.Exec[id] == 0 {
		return 0
	}
	return float64(p.Taken[id]) / float64(p.Exec[id])
}

// BuildGraph returns the branch conflict graph over dense ids, keeping
// only pairs whose interleave count is at least threshold (the paper's
// pruning step; threshold 100 in Section 4.2). The graph is built once
// per threshold and shared by every later call — graphs are immutable —
// so working-set analysis, allocation at every table size, and the
// size search all read one build. Safe for concurrent use.
func (p *Profile) BuildGraph(threshold uint64) *graph.Graph {
	p.graphMu.Lock()
	defer p.graphMu.Unlock()
	if g, ok := p.graphs[threshold]; ok {
		return g
	}
	g := p.Pairs.Graph(p.NumBranches(), threshold)
	if p.graphs == nil {
		p.graphs = make(map[uint64]*graph.Graph)
	}
	p.graphs[threshold] = g
	return g
}

// PairList is an immutable flat list of distinct interleaving pairs:
// keys[i] is a PairKey and counts[i] its interleave count. Profiler
// extraction builds one directly, row by row in ascending smaller id,
// so its Range order is deterministic; PairCounts.List freezes an
// accumulated table in that table's slot order. The zero value is the
// empty list.
type PairList struct {
	keys   []uint64
	counts []uint64
}

// Len returns the number of distinct pairs.
func (l PairList) Len() int { return len(l.keys) }

// Range calls f for every pair, in list order, until f returns false.
func (l PairList) Range(f func(key, count uint64) bool) {
	for i, k := range l.keys {
		if !f(k, l.counts[i]) {
			return
		}
	}
}

// Graph builds the conflict graph over ids [0, n) from the list,
// keeping only pairs whose count is at least threshold. The list holds
// each pair once, so pruning the counts before construction is the
// same as filtering the full graph, without building it.
func (l PairList) Graph(n int, threshold uint64) *graph.Graph {
	kept := 0
	for _, w := range l.counts {
		if w >= threshold {
			kept++
		}
	}
	pairs := make([]graph.Pair, 0, kept)
	for i, w := range l.counts {
		if w >= threshold {
			a, b := UnpackPair(l.keys[i])
			pairs = append(pairs, graph.Pair{U: a, V: b, W: w})
		}
	}
	return graph.FromPairs(n, pairs)
}

// Merge combines profiles of the same benchmark gathered from different
// input sets into one cumulative profile — the paper's remedy for
// profile/input mismatch (Section 5.2): "the branch conflict graphs of
// several profiles from different input data can be merged until the
// resulting graph indicates that most part of the program has been
// exercised."
func Merge(profiles ...*Profile) (*Profile, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("profile: merge of zero profiles")
	}
	out := &Profile{Benchmark: profiles[0].Benchmark}
	pairs := NewPairCounts(0)
	// Dense ids differ across runs; remap through PCs.
	var ix isa.PCIndex
	for _, p := range profiles {
		if p.Benchmark != out.Benchmark {
			return nil, fmt.Errorf("profile: merging different benchmarks %q and %q", out.Benchmark, p.Benchmark)
		}
		out.InputSets = append(out.InputSets, p.InputSets...)
		out.Instructions += p.Instructions
		remap := make([]int32, len(p.PCs))
		for id, pc := range p.PCs {
			remap[id] = ix.Intern(pc)
			if ix.Len() > len(out.PCs) {
				out.PCs = append(out.PCs, pc)
				out.Exec = append(out.Exec, 0)
				out.Taken = append(out.Taken, 0)
			}
		}
		for id := range p.PCs {
			out.Exec[remap[id]] += p.Exec[id]
			out.Taken[remap[id]] += p.Taken[id]
		}
		p.Pairs.Range(func(k, w uint64) bool {
			a, b := UnpackPair(k)
			pairs.Add(PairKey(remap[a], remap[b]), w)
			return true
		})
	}
	out.Pairs = pairs.List()
	return out, nil
}

// SortedPairs returns the interleave pairs ordered by descending count
// (ties by key), for reports.
func (p *Profile) SortedPairs() []PairCount {
	out := make([]PairCount, 0, p.Pairs.Len())
	p.Pairs.Range(func(k, w uint64) bool {
		a, b := UnpackPair(k)
		out = append(out, PairCount{A: a, B: b, Count: w})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// PairCount is one interleaving pair with its count.
type PairCount struct {
	A, B  int32
	Count uint64
}
