// Package graph implements the weighted undirected graph machinery
// behind the branch conflict graph (paper Section 4.1, Figure 2).
//
// Nodes are dense integer ids assigned by the caller (package core maps
// static branch PCs to ids). Edge weights are interleave counts. The
// package provides the operations the paper's analysis needs: threshold
// pruning, working-set extraction (maximal cliques and a greedy clique
// partition), and Chaitin-style graph coloring with conflict
// minimization instead of spilling (Section 5.1).
package graph

import (
	"fmt"
	"slices"
)

// Graph is an immutable weighted undirected graph over nodes 0..N()-1,
// stored as compressed sparse rows. Row u lists u's neighbors in
// strictly ascending id order with the matching edge weights; every
// edge appears in both endpoints' rows with the same nonzero weight, and
// no row holds its own node. Construct with FromPairs; derive subgraphs
// with Filter.
type Graph struct {
	off []int // row u is nbr[off[u]:off[u+1]], len N()+1
	nbr []int32
	wt  []uint64
}

// Pair is one weighted undirected edge input to FromPairs.
type Pair struct {
	U, V int32
	W    uint64
}

// FromPairs builds a graph over n nodes from a weighted pair list,
// summing duplicate pairs (in either orientation). Self-loops (a branch
// does not conflict with itself), zero weights and pairs with an
// endpoint outside [0, n) are dropped, as is a pair whose summed weight
// wraps to zero: edge presence is Weight > 0. The pair list is arbitrary
// untrusted input (fuzzers feed it directly).
func FromPairs(n int, pairs []Pair) *Graph {
	valid := func(p Pair) bool {
		return p.W != 0 && p.U != p.V && p.U >= 0 && p.V >= 0 && int(p.U) < n && int(p.V) < n
	}
	off := make([]int, n+1)
	for _, p := range pairs {
		if valid(p) {
			off[p.U+1]++
			off[p.V+1]++
		}
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	// Bucket each valid pair's index under both endpoints.
	at := slices.Clone(off[:n])
	idx := make([]int32, off[n])
	for i, p := range pairs {
		if valid(p) {
			idx[at[p.U]] = int32(i)
			at[p.U]++
			idx[at[p.V]] = int32(i)
			at[p.V]++
		}
	}
	// Walking the buckets in ascending u and appending u to each
	// partner's row lays every row out in ascending id order (a counting
	// sort); duplicate pairs land next to each other.
	copy(at, off[:n])
	nbr := make([]int32, off[n])
	wt := make([]uint64, off[n])
	for u := int32(0); int(u) < n; u++ {
		for _, i := range idx[off[u]:off[u+1]] {
			p := pairs[i]
			v := p.U
			if v == u {
				v = p.V
			}
			nbr[at[v]], wt[at[v]] = u, p.W
			at[v]++
		}
	}
	// Merge runs of one neighbor into a single summed entry in place.
	end, w := 0, 0
	for u := 0; u < n; u++ {
		i := end
		end = off[u+1]
		off[u] = w
		for i < end {
			v, s := nbr[i], wt[i]
			for i++; i < end && nbr[i] == v; i++ {
				s += wt[i]
			}
			if s != 0 {
				nbr[w], wt[w] = v, s
				w++
			}
		}
	}
	off[n] = w
	return &Graph{off: off, nbr: nbr[:w:w], wt: wt[:w:w]}
}

// Filter returns the subgraph of g keeping exactly the edges for which
// keep reports true, weights unchanged. keep is called once per edge
// endpoint, always as keep(u, v, w) with u < v, so it must be a pure
// function of its arguments. Classification drops same-class biased
// conflicts this way (Section 5.2).
func (g *Graph) Filter(keep func(u, v int32, w uint64) bool) *Graph {
	n := g.N()
	kept := make([]bool, len(g.nbr))
	off := make([]int, n+1)
	for u := int32(0); int(u) < n; u++ {
		off[u+1] = off[u]
		for i := g.off[u]; i < g.off[u+1]; i++ {
			a, b := u, g.nbr[i]
			if a > b {
				a, b = b, a
			}
			if keep(a, b, g.wt[i]) {
				kept[i] = true
				off[u+1]++
			}
		}
	}
	out := &Graph{off: off, nbr: make([]int32, 0, off[n]), wt: make([]uint64, 0, off[n])}
	for i, k := range kept {
		if k {
			out.nbr = append(out.nbr, g.nbr[i])
			out.wt = append(out.wt, g.wt[i])
		}
	}
	return out
}

// N returns the node count.
func (g *Graph) N() int { return len(g.off) - 1 }

// Row returns u's neighbors in ascending id order and the matching edge
// weights. The slices alias the graph and must not be modified.
func (g *Graph) Row(u int32) ([]int32, []uint64) {
	lo, hi := g.off[u], g.off[u+1]
	return g.nbr[lo:hi:hi], g.wt[lo:hi:hi]
}

// Weight returns the weight of edge {u, v}, or 0 if absent or if either
// id lies outside [0, N()).
func (g *Graph) Weight(u, v int32) uint64 {
	if u < 0 || v < 0 || int(u) >= g.N() || int(v) >= g.N() {
		return 0
	}
	ns, ws := g.Row(u)
	if i, ok := slices.BinarySearch(ns, v); ok {
		return ws[i]
	}
	return 0
}

// HasEdge reports whether {u, v} is present.
func (g *Graph) HasEdge(u, v int32) bool { return g.Weight(u, v) > 0 }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int32) int { return g.off[u+1] - g.off[u] }

// NumEdges returns the number of distinct undirected edges.
func (g *Graph) NumEdges() int { return len(g.nbr) / 2 }

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() uint64 {
	var total uint64
	for u := int32(0); int(u) < g.N(); u++ {
		ns, ws := g.Row(u)
		for i, v := range ns {
			if u < v {
				total += ws[i]
			}
		}
	}
	return total
}

// Components returns the connected components as sorted node slices,
// ordered by their smallest member. Isolated nodes form singleton
// components.
func (g *Graph) Components() [][]int32 {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]int32
	stack := make([]int32, 0, 64)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		seen[start] = true
		stack = append(stack[:0], int32(start))
		comp := []int32{}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			ns, _ := g.Row(u)
			for _, v := range ns {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes=%d edges=%d weight=%d}", g.N(), g.NumEdges(), g.TotalWeight())
}
