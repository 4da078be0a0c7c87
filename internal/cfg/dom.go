package cfg

// Dominator trees, per function, by the iterative Cooper-Harvey-
// Kennedy algorithm ("A Simple, Fast Dominance Algorithm"). Chosen
// over Lengauer-Tarjan deliberately: guest functions here are small
// (hundreds of blocks at most), the iterative form is a few dozen
// lines with no auxiliary forest, and its worst case is still
// near-linear on the reducible CFGs the builder emits. DESIGN.md §13
// records the trade-off.

// DomTree is the dominator tree of one function. Block identity is
// the function-local index into Func.Blocks (postorder bookkeeping
// stays internal); use IDom/Dominates with global block IDs.
type DomTree struct {
	fn *Func
	// idom[local] is the local index of the immediate dominator;
	// the entry's idom is itself.
	idom []int
	// local maps global block ID -> function-local index (-1 when the
	// block is not in the function).
	local map[int]int
	// depth[local] is the distance from the entry in the dom tree.
	depth []int
}

// Dominates reports whether block a dominates block b (reflexively).
// Both must belong to the tree's function.
func (d *DomTree) Dominates(a, b int) bool {
	la, ok := d.local[a]
	if !ok {
		return false
	}
	lb, ok := d.local[b]
	if !ok {
		return false
	}
	// Walk b up the tree until its depth matches a's.
	for d.depth[lb] > d.depth[la] {
		lb = d.idom[lb]
	}
	return la == lb
}

// Dominators computes the dominator tree of fn within g.
func (g *Graph) Dominators(fn *Func) *DomTree {
	// Function-local postorder from the entry block. Func.Blocks is
	// exactly the reachable set, so every listed block is visited.
	local := make(map[int]int, len(fn.Blocks))
	for i, b := range fn.Blocks {
		local[b] = i
	}
	post := make([]int, 0, len(fn.Blocks)) // local indices in postorder
	postIdx := make([]int, len(fn.Blocks)) // local index -> postorder number
	visited := make([]bool, len(fn.Blocks))

	// Iterative DFS with an explicit successor cursor so postorder
	// matches the recursive definition.
	type frame struct{ b, succ int }
	stack := []frame{{local[fn.EntryBlock], 0}}
	visited[local[fn.EntryBlock]] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := g.Blocks[fn.Blocks[f.b]].Succs
		advanced := false
		for f.succ < len(succs) {
			s := succs[f.succ]
			f.succ++
			ls, ok := local[s]
			if !ok || visited[ls] {
				continue // successor owned by another function, or seen
			}
			visited[ls] = true
			stack = append(stack, frame{ls, 0})
			advanced = true
			break
		}
		if !advanced && f.succ >= len(succs) {
			postIdx[f.b] = len(post)
			post = append(post, f.b)
			stack = stack[:len(stack)-1]
		}
	}

	// Local predecessor lists, restricted to the function.
	preds := make([][]int, len(fn.Blocks))
	for _, b := range fn.Blocks {
		lb := local[b]
		for _, s := range g.Blocks[b].Succs {
			if ls, ok := local[s]; ok {
				preds[ls] = append(preds[ls], lb)
			}
		}
	}

	const undef = -1
	idom := make([]int, len(fn.Blocks))
	for i := range idom {
		idom[i] = undef
	}
	entry := local[fn.EntryBlock]
	idom[entry] = entry

	intersect := func(a, b int) int {
		for a != b {
			for postIdx[a] < postIdx[b] {
				a = idom[a]
			}
			for postIdx[b] < postIdx[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		// Reverse postorder, skipping the entry.
		for i := len(post) - 1; i >= 0; i-- {
			b := post[i]
			if b == entry {
				continue
			}
			newIdom := undef
			for _, p := range preds[b] {
				if idom[p] == undef {
					continue
				}
				if newIdom == undef {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != undef && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}

	depth := make([]int, len(fn.Blocks))
	// Depths follow the tree top-down; reverse postorder guarantees a
	// block's idom is processed first.
	for i := len(post) - 1; i >= 0; i-- {
		b := post[i]
		if b != entry {
			depth[b] = depth[idom[b]] + 1
		}
	}
	return &DomTree{fn: fn, idom: idom, local: local, depth: depth}
}
