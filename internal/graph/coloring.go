package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

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
	// Cost is ConflictCost(Colors), summed while the coloring is built.
	Cost uint64
}

// Colorer computes minimum-conflict colorings of one graph following
// the register-allocation recipe the paper adapts (Section 5.1):
//
//  1. Simplify: repeatedly remove a node with fewer than K uncolored,
//     unpinned neighbors (such a node can always be colored
//     conflict-free later). Removal order: lowest current degree first.
//  2. When no node has degree < K, remove the node with the smallest
//     total incident conflict weight, lowest id on ties (the
//     "optimistic spill" candidate — in branch allocation it is not
//     spilled, it just risks sharing).
//  3. Select: reinsert nodes in reverse order; give each the
//     least-loaded color unused by its neighbors, or if none is free,
//     the color minimizing summed interleave weight to same-colored
//     neighbors.
//
// Pinned nodes keep fixed colors: the classifier pins highly biased
// branches to reserved entries (Section 5.2). Unpinned nodes take
// colors from firstFree up; with biased branches pinned to colors 0 and
// 1, firstFree 2 keeps the reserved entries "separated from others", as
// Section 5.2 specifies.
//
// A Colorer colors under its fixed pins at any number of table sizes.
// It holds the setup that does not depend on K (the pins, each node's
// degree, the spill order and the cost of same-colored pinned pairs)
// and scratch that every Color call reuses, so a size search pays for
// both once: O(n log n + m) to prepare, then O(n + m + K + n·K/64) per
// coloring. A Colorer is not safe for concurrent use.
type Colorer struct {
	g         *Graph
	firstFree int
	pinOf     []int32 // node's pinned color, -1 when unpinned
	maxPin    int     // largest pinned color, -1 without pins
	pinCost   uint64  // weight of edges joining two nodes pinned to one color
	deg0      []int32 // unpinned neighbors of each unpinned node
	maxDeg    int32
	unpinned  int
	// spill lists the unpinned nodes with neighbors by ascending (total
	// incident weight, id). Weights do not change during simplify, so
	// the spill pick is always the first node of spill not yet removed.
	spill []int32

	// Scratch, overwritten by each Color call.
	colors  []int
	deg     []int32
	removed []bool
	stack   []int32
	// Degree buckets as intrusive lists: head[d] starts the list of
	// remaining nodes of degree d, latest arrival first, linked by next
	// and prev; -1 ends a list.
	head, next, prev []int32
	sel              selector
}

// NewColorer prepares g for coloring with pinned (node id to fixed
// color) and firstFree, the lowest color unpinned nodes may take; zero
// makes every color available.
func (g *Graph) NewColorer(pinned map[int32]int, firstFree int) (*Colorer, error) {
	if firstFree < 0 {
		return nil, fmt.Errorf("graph: FirstFree %d is negative", firstFree)
	}
	n := g.N()
	c := &Colorer{g: g, firstFree: firstFree, maxPin: -1, pinOf: make([]int32, n)}
	for u := range c.pinOf {
		c.pinOf[u] = -1
	}
	for u, col := range pinned {
		if col < 0 || col > math.MaxInt32 {
			return nil, fmt.Errorf("graph: pinned color %d for node %d is out of range", col, u)
		}
		if int(u) < 0 || int(u) >= n {
			return nil, fmt.Errorf("graph: pinned node %d outside graph", u)
		}
		c.pinOf[u] = int32(col)
	}

	weight := make([]uint64, n)
	c.deg0 = make([]int32, n)
	for u := int32(0); int(u) < n; u++ {
		ns, ws := g.Row(u)
		if col := c.pinOf[u]; col >= 0 {
			c.maxPin = max(c.maxPin, int(col))
			for i, v := range ns {
				if u < v && c.pinOf[v] == col {
					c.pinCost += ws[i]
				}
			}
			continue
		}
		var deg int32
		for i, v := range ns {
			if c.pinOf[v] < 0 {
				deg++
			}
			weight[u] += ws[i]
		}
		c.deg0[u] = deg
		c.maxDeg = max(c.maxDeg, deg)
		c.unpinned++
		// A spilled node has degree >= K >= 1, so isolated nodes never
		// are.
		if deg > 0 {
			c.spill = append(c.spill, u)
		}
	}
	slices.SortFunc(c.spill, func(a, b int32) int {
		if weight[a] != weight[b] {
			return cmp.Compare(weight[a], weight[b])
		}
		return cmp.Compare(a, b)
	})

	c.colors = make([]int, n)
	c.deg = make([]int32, n)
	c.removed = make([]bool, n)
	c.stack = make([]int32, 0, c.unpinned)
	c.head = make([]int32, c.maxDeg+1)
	c.next = make([]int32, n)
	c.prev = make([]int32, n)
	return c, nil
}

// Color colors the graph with k colors, as Colorer describes, and
// always assigns every node a color. It stops as soon as the running conflict cost exceeds limit and then
// reports within false with a partial coloring whose Cost is only known
// to exceed limit; math.MaxUint64 never stops. The returned Colors is
// the Colorer's buffer, which the next call overwrites.
//
// The running cost is a sum of edge weights in uint64; interleave
// counts cannot make it wrap, and the limit assumes it does not.
func (c *Colorer) Color(k int, limit uint64) (col Coloring, within bool, err error) {
	if k < 1 {
		return Coloring{}, false, fmt.Errorf("graph: coloring needs K >= 1, got %d", k)
	}
	if c.firstFree >= k {
		return Coloring{}, false, fmt.Errorf("graph: FirstFree %d outside [0,%d)", c.firstFree, k)
	}
	if c.maxPin >= k {
		return Coloring{}, false, fmt.Errorf("graph: pinned color %d outside [0,%d)", c.maxPin, k)
	}
	c.simplify(k)
	cost, within := c.selectColors(k, limit)
	return Coloring{K: k, Colors: c.colors, Cost: cost}, within, nil
}

// simplify fills c.stack with the unpinned nodes in removal order.
//
// Pinned nodes never enter the worklist; their pressure is applied at
// select time. Each pop takes the latest arrival in the lowest
// nonempty degree bucket below K (the bucket lists start in id order,
// so the highest id comes first). A removal lowers a degree by at most
// one, so after a pop at degree d every remaining node has degree
// >= d-1, and after a spill (every remaining degree >= K) they have
// >= K-1: the next scan starts there instead of at bucket 0.
func (c *Colorer) simplify(k int) {
	copy(c.deg, c.deg0)
	for d := range c.head {
		c.head[d] = -1
	}
	for u, col := range c.pinOf {
		c.removed[u] = col >= 0
		if col < 0 {
			c.push(int32(u))
		}
	}
	c.stack = c.stack[:0]
	top := min(int32(k-1), c.maxDeg)
	start, next := int32(0), 0
	for len(c.stack) < c.unpinned {
		u := int32(-1)
		for d := start; d <= top; d++ {
			if u = c.head[d]; u >= 0 {
				start = max(d-1, 0)
				break
			}
		}
		if u < 0 {
			// Every remaining node has degree >= K: take the cheapest
			// to share an entry.
			for c.removed[c.spill[next]] {
				next++
			}
			u, start = c.spill[next], int32(k-1)
		}
		c.unlink(u)
		c.removed[u] = true
		c.stack = append(c.stack, u)
		ns, _ := c.g.Row(u)
		for _, v := range ns {
			if !c.removed[v] {
				c.unlink(v)
				c.deg[v]--
				c.push(v)
			}
		}
	}
}

// push adds u at the front of its degree's bucket.
func (c *Colorer) push(u int32) {
	d := c.deg[u]
	h := c.head[d]
	c.next[u], c.prev[u] = h, -1
	if h >= 0 {
		c.prev[h] = u
	}
	c.head[d] = u
}

// unlink removes u from its degree's bucket.
func (c *Colorer) unlink(u int32) {
	nx, pv := c.next[u], c.prev[u]
	if pv >= 0 {
		c.next[pv] = nx
	} else {
		c.head[c.deg[u]] = nx
	}
	if nx >= 0 {
		c.prev[nx] = pv
	}
}

// selectColors colors the pins and then c.stack in reverse, returning
// the running conflict cost and whether it stayed within limit.
//
// Among the colors free of graph conflicts it takes the least-loaded
// entry: the pruned graph only records interleavings above threshold,
// and spreading assignments across the whole table keeps the incidental
// (sub-threshold) aliasing of a packed table from re-creating the
// interference the allocation exists to remove. Equal loads go to the
// first color at or after a rotating probe point, so equal-load choices
// distribute around the table instead of clustering at FirstFree.
func (c *Colorer) selectColors(k int, limit uint64) (uint64, bool) {
	ff := c.firstFree
	s := &c.sel
	s.reset(k, ff)
	colors := c.colors
	for u, col := range c.pinOf {
		colors[u] = int(col)
		if int(col) >= ff {
			s.raise(col)
		}
	}
	cost := c.pinCost
	if cost > limit {
		return cost, false
	}
	next := int32(ff)
	for i := len(c.stack) - 1; i >= 0; i-- {
		u := c.stack[i]
		blocked := 0
		ns, ws := c.g.Row(u)
		for j, v := range ns {
			col := colors[v]
			if col < 0 {
				continue
			}
			if !s.used.has(int32(col)) {
				s.used.set(int32(col))
				s.touched = append(s.touched, int32(col))
				if col >= ff {
					s.levels[s.load[col]].blocked++
					blocked++
				}
			}
			s.conflictW[col] += ws[j]
		}
		var chosen int32
		if blocked < k-ff {
			chosen = s.leastLoadedFree(next)
		} else {
			// Every allowed color conflicts; take the cheapest (the
			// paper's "branches with the fewest conflicts ... map to
			// the same location"). Here deg >= K-FirstFree, so the
			// scan costs no more than reading the row.
			chosen = int32(ff)
			for col := ff + 1; col < k; col++ {
				if s.conflictW[col] < s.conflictW[chosen] {
					chosen = int32(col)
				}
			}
		}
		cost += s.conflictW[chosen]
		for _, col := range s.touched {
			s.used.clear(col)
			s.conflictW[col] = 0
			if int(col) >= ff {
				s.levels[s.load[col]].blocked = 0
			}
		}
		s.touched = s.touched[:0]
		s.raise(chosen)
		colors[u] = int(chosen)
		if next = chosen + 1; int(next) == k {
			next = int32(ff)
		}
		if cost > limit {
			return cost, false
		}
	}
	return cost, true
}

// selector tracks, for the colors in [FirstFree, K), how many nodes
// hold each one (its load), grouped into load levels. Each nonempty
// level keeps a bitset of its colors, and the nonempty levels form a
// list in ascending load order.
//
// Between nodes, used, conflictW and every level's blocked count are
// zero; a node's neighbors set them and the node clears exactly what
// it touched.
type selector struct {
	used      bitset   // colors of the current node's neighbors, over [0, K)
	conflictW []uint64 // weight from the current node to each color
	touched   []int32  // colors set in used
	load      []int32  // load of each color in [FirstFree, K)
	levels    []level  // indexed by load
	head      int32    // lowest nonempty level
	words     int      // bitset words per level
	bits      []uint64 // level bitsets, words apiece
	free      []int32  // bitset slots of emptied levels, all zero
}

type level struct {
	size    int32 // colors at this load
	blocked int32 // of those, colors the current node's neighbors hold
	// prev and next link the nonempty levels, -1 at the ends.
	prev, next int32
	slot       int32 // bitset slot in bits, -1 when empty
}

// reset puts every color in [ff, k) at load 0.
func (s *selector) reset(k, ff int) {
	s.words = (k + 63) / 64
	if len(s.conflictW) < k {
		s.conflictW = make([]uint64, k)
		s.load = make([]int32, k)
		s.used = newBitset(k)
	}
	clear(s.load[:k])
	s.bits, s.free = s.bits[:0], s.free[:0]
	s.levels = append(s.levels[:0], level{size: int32(k - ff), prev: -1, next: -1, slot: s.newSlot()})
	s.head = 0
	b := s.slotBits(0)
	for col := ff; col < k; col++ {
		b.set(int32(col))
	}
}

func (s *selector) slotBits(slot int32) bitset {
	at := int(slot) * s.words
	return s.bits[at : at+s.words]
}

func (s *selector) newSlot() int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot
	}
	at := len(s.bits)
	s.bits = slices.Grow(s.bits, s.words)[:at+s.words]
	clear(s.bits[at:])
	return int32(at / s.words)
}

// raise moves col from its load level to the next one.
func (s *selector) raise(col int32) {
	from := s.load[col]
	to := from + 1
	s.load[col] = to
	if int(to) == len(s.levels) {
		s.levels = append(s.levels, level{prev: -1, next: -1, slot: -1})
	}
	if s.levels[to].size == 0 {
		nx := s.levels[from].next
		s.levels[to] = level{prev: from, next: nx, slot: s.newSlot()}
		s.levels[from].next = to
		if nx >= 0 {
			s.levels[nx].prev = to
		}
	}
	s.slotBits(s.levels[from].slot).clear(col)
	s.slotBits(s.levels[to].slot).set(col)
	s.levels[to].size++
	if s.levels[from].size--; s.levels[from].size > 0 {
		return
	}
	lv := s.levels[from]
	if lv.prev >= 0 {
		s.levels[lv.prev].next = lv.next
	} else {
		s.head = lv.next
	}
	s.levels[lv.next].prev = lv.prev // lv.next is to, or above it
	s.free = append(s.free, lv.slot)
	s.levels[from] = level{prev: -1, next: -1, slot: -1}
}

// leastLoadedFree returns the free color of least load, the first one
// at or after next in rotation order over [FirstFree, K) on ties. Some
// level must hold a color that the current node's neighbors do not.
// It skips levels whose every color is blocked, at most one per
// distinct neighbor color, then scans one level's bitset: O(K/64).
func (s *selector) leastLoadedFree(next int32) int32 {
	l := s.head
	for s.levels[l].blocked == s.levels[l].size {
		l = s.levels[l].next
	}
	b := s.slotBits(s.levels[l].slot)
	w0 := int(next >> 6)
	if m := b[w0] &^ s.used[w0] &^ (1<<(uint(next)&63) - 1); m != 0 {
		return int32(w0<<6 + bits.TrailingZeros64(m))
	}
	for w := w0 + 1; w < len(b); w++ {
		if m := b[w] &^ s.used[w]; m != 0 {
			return int32(w<<6 + bits.TrailingZeros64(m))
		}
	}
	// Wrap around; bits below FirstFree are never set in a level.
	for w := 0; w <= w0; w++ {
		if m := b[w] &^ s.used[w]; m != 0 {
			return int32(w<<6 + bits.TrailingZeros64(m))
		}
	}
	panic("graph: no free color in a level with unblocked colors")
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
