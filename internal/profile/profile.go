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
	"slices"
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
	// PCs maps dense branch ids to static branch byte addresses.
	PCs []uint64
	// Exec[id] and Taken[id] count dynamic executions and taken
	// outcomes per static branch.
	Exec  []uint64
	Taken []uint64
	// Pairs holds each interleaving pair once with its count, in rows
	// of ascending smaller id. It is immutable, so the graphs
	// BuildGraph memoizes never go stale.
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
// keys[i] is a PairKey and counts[i] its interleave count. It is the one
// pair-count representation outside the Profiler's per-branch counters:
// Profiler extraction builds one directly, and every caller that sums
// duplicate pairs (Merge, static estimates, the naive reference) builds
// one with NewPairList. Both lay the list out in rows of ascending
// smaller id, so its Range order depends only on its input. The zero
// value is the empty list.
type PairList struct {
	keys   []uint64
	counts []uint64
}

// NewPairList sums pairs over ids [0, n) into an exactly sized list
// that holds each pair once. pairs may repeat a pair, in either
// orientation; the pair's count is the sum of its entries. The list
// runs in rows of ascending smaller id and, within a row, partners in
// order of first appearance. Construction counting-sorts the entries by
// smaller id and sums each row through a dense per-partner index, with
// no hashing and no comparison sort.
func NewPairList(n int, pairs []PairCount) PairList {
	off := make([]int, n+1)
	for _, p := range pairs {
		off[min(p.A, p.B)+1]++
	}
	for a := 0; a < n; a++ {
		off[a+1] += off[a]
	}
	// Bucket the entries by row, in input order within a row.
	at := slices.Clone(off[:n])
	keys := make([]uint64, len(pairs))
	counts := make([]uint64, len(pairs))
	for _, p := range pairs {
		a := min(p.A, p.B)
		keys[at[a]], counts[at[a]] = PairKey(p.A, p.B), p.Count
		at[a]++
	}
	// Sum each row into its partners' first entries, compacting the
	// buckets in place: while a row is summed, slot[b] is where partner
	// b's sum sits, and -1 outside its row.
	slot := at
	for b := range slot {
		slot[b] = -1
	}
	out := 0
	for a := 0; a < n; a++ {
		row := out
		for i := off[a]; i < off[a+1]; i++ {
			b := uint32(keys[i])
			if j := slot[b]; j >= 0 {
				counts[j] += counts[i]
				continue
			}
			slot[b] = out
			keys[out], counts[out] = keys[i], counts[i]
			out++
		}
		for _, k := range keys[row:out] {
			slot[uint32(k)] = -1
		}
	}
	if out < len(keys) {
		keys = append(make([]uint64, 0, out), keys[:out]...)
		counts = append(make([]uint64, 0, out), counts[:out]...)
	}
	return PairList{keys: keys, counts: counts}
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
// exercised." An input set may appear once: merging it twice would
// double its counts and push sub-threshold pairs over the pruning
// threshold. Profiles that record no input set merge unchecked.
func Merge(profiles ...*Profile) (*Profile, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("profile: merge of zero profiles")
	}
	out := &Profile{Benchmark: profiles[0].Benchmark}
	n := 0
	for _, p := range profiles {
		n += p.Pairs.Len()
	}
	pairs := make([]PairCount, 0, n)
	// Dense ids differ across runs; remap through PCs.
	var ix isa.PCIndex
	for _, p := range profiles {
		if p.Benchmark != out.Benchmark {
			return nil, fmt.Errorf("profile: merging different benchmarks %q and %q", out.Benchmark, p.Benchmark)
		}
		for _, in := range p.InputSets {
			if slices.Contains(out.InputSets, in) {
				return nil, fmt.Errorf("profile: input set %q appears twice in the merge", in)
			}
			out.InputSets = append(out.InputSets, in)
		}
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
			pairs = append(pairs, PairCount{A: remap[a], B: remap[b], Count: w})
			return true
		})
	}
	out.Pairs = NewPairList(len(out.PCs), pairs)
	return out, nil
}

// PairCount is one interleaving pair with its count.
type PairCount struct {
	A, B  int32
	Count uint64
}
