// Package dataflow is a generic worklist dataflow framework over the
// basic-block CFGs of package cfg: facts flow forward from a function's
// entry along CFG edges, over any lattice, iterated to a fixpoint with
// optional per-edge refinement and widening. Package progcheck
// instantiates it with the register-interval lattice (constant/interval
// propagation, memory bounds, statically-resolved branches) and with
// may-defined register sets (uninitialized-register reads); the framework
// itself knows nothing about any particular analysis.
//
// Conventions: a Problem's Top is the neutral element of Meet — the
// initial fact of every non-boundary block, and (for may-analyses with
// an explicit reachability bit, like the interval lattice) the
// "unreachable" fact. Facts flow block-to-block; per-instruction facts
// are recovered by replaying a block's transfer one instruction at a
// time from its In fact, which the concrete analyses expose.
package dataflow

import (
	"slices"

	"repro/internal/cfg"
)

// Problem defines one forward dataflow analysis over a single function.
// F is the fact attached to each block boundary.
type Problem[F any] interface {
	// Boundary is the fact at the function entry.
	Boundary() F
	// Top is the neutral element of Meet: the initial fact everywhere
	// else, absorbed without effect when met with any other fact.
	Top() F
	// Meet combines facts where control-flow paths join.
	Meet(a, b F) F
	// Equal reports fact equality; the fixpoint iteration stops when a
	// round of transfers changes no fact.
	Equal(a, b F) bool
	// Transfer applies block b's effect, mapping its In fact to its Out
	// fact.
	Transfer(b *cfg.Block, f F) F
}

// EdgeRefiner optionally refines the fact flowing along one CFG edge —
// the hook that makes conditional-branch outcomes visible: on the
// taken edge of `bltz r`, r is negative; on the fallthrough, r >= 0.
// Returning Top marks the edge infeasible (nothing flows).
type EdgeRefiner[F any] interface {
	// TransferEdge maps b's Out fact as it crosses the edge
	// b.Succs[succIdx].
	TransferEdge(b *cfg.Block, succIdx int, f F) F
}

// Widener optionally accelerates convergence on lattices with long
// chains (intervals over int64): after a block has been visited
// widenAfter times, the new fact is widened against the previous one
// instead of replacing it.
type Widener[F any] interface {
	// Widen returns a fact at least as large as next that the lattice
	// reaches from prev in a bounded number of widenings.
	Widen(prev, next F) F
}

// widenAfter is the visit count past which Widen kicks in. Small
// enough to bound work on deep loop nests, large enough to let short
// chains (constants, [0,1] flags) converge exactly first.
const widenAfter = 8

// Result holds the solved facts. Storage is function-local — a program
// with many functions would otherwise pay |funcs| × |global blocks|
// fact slots — and facts are read through InAt/OutAt by global block
// ID. Blocks outside the solved function yield the zero value of F,
// which every Problem in this package makes coincide with Top.
type Result[F any] struct {
	// in and out are the facts at each block's entry and exit, indexed
	// function-locally.
	in, out []F
	// local maps global block ID to the function-local index, -1 for
	// blocks outside the solved function.
	local []int32
}

// InAt returns the fact at the entry of global block ID bi.
func (r *Result[F]) InAt(bi int) F {
	if li := r.local[bi]; li >= 0 {
		return r.in[li]
	}
	var zero F
	return zero
}

// edge is one fact-carrying CFG edge seen from the block whose meet it
// feeds: from is the local index of the predecessor whose Out fact is
// read, and succIdx the edge's index in its successor list (for
// refinement).
type edge struct {
	from, succIdx int32
}

// solver carries the preallocated fixpoint state so the inner loop
// allocates nothing. All indices are function-local.
type solver[F any] struct {
	p       Problem[F]
	refiner EdgeRefiner[F]
	widener Widener[F]
	blocks  []*cfg.Block // the function's blocks, local order
	// into[b] lists the edges whose facts meet at b.
	into [][]edge
	// deps[b] lists the successors to requeue when b's Out fact changes.
	deps     [][]int32
	res      *Result[F]
	boundary []bool // blocks where Boundary() joins the meet
	visits   []int32
	// queue is a ring buffer of local block indices awaiting
	// (re)processing.
	queue    []int32
	qhead    int
	qtail    int
	qlen     int
	onQueue  []bool
	boundFct F
	top      F
}

// Solve runs p over function fn of g to fixpoint and returns the
// per-block facts. The CFG must come from cfg.Build on a validated
// program.
func Solve[F any](g *cfg.Graph, fn *cfg.Func, p Problem[F]) *Result[F] {
	m := len(fn.Blocks)
	local := make([]int32, len(g.Blocks))
	for i := range local {
		local[i] = -1
	}
	blocks := make([]*cfg.Block, m)
	for li, bi := range fn.Blocks {
		local[bi] = int32(li)
		blocks[li] = g.Blocks[bi]
	}
	s := &solver[F]{
		p:        p,
		blocks:   blocks,
		into:     make([][]edge, m),
		deps:     make([][]int32, m),
		res:      &Result[F]{in: make([]F, m), out: make([]F, m), local: local},
		boundary: make([]bool, m),
		visits:   make([]int32, m),
		queue:    make([]int32, m+1),
		onQueue:  make([]bool, m),
		boundFct: p.Boundary(),
		top:      p.Top(),
	}
	s.refiner, _ = p.(EdgeRefiner[F])
	s.widener, _ = p.(Widener[F])
	for i := 0; i < m; i++ {
		s.res.in[i] = s.top
		s.res.out[i] = s.top
	}

	// Wire the meet-edge and dependent lists, restricted to
	// intra-function edges (a successor owned by another function —
	// overlapping code — carries no fact).
	for li, b := range blocks {
		for si, succ := range b.Succs {
			ls := local[succ]
			if ls < 0 {
				continue
			}
			s.into[ls] = append(s.into[ls], edge{int32(li), int32(si)})
			s.deps[li] = append(s.deps[li], ls)
		}
	}
	s.boundary[local[fn.EntryBlock]] = true

	// Seed the worklist with every block in reverse postorder, so facts
	// reach loop bodies on the first sweep. Every block is queued once
	// up front, so a transfer whose output happens to equal the initial
	// Top still gets its dependents processed.
	for _, li := range reachOrder(s, local[fn.EntryBlock]) {
		s.push(li)
	}
	s.run()
	return s.res
}

// reachOrder returns local block indices in reverse postorder from the
// entry, with any blocks the entry DFS misses appended from their own
// DFS roots.
func reachOrder[F any](s *solver[F], entry int32) []int32 {
	seen := make([]bool, len(s.blocks))
	post := make([]int32, 0, len(s.blocks))
	var dfs func(int32)
	dfs = func(li int32) {
		seen[li] = true
		for _, d := range s.deps[li] {
			if !seen[d] {
				dfs(d)
			}
		}
		post = append(post, li)
	}
	dfs(entry)
	for li := range s.blocks {
		if !seen[li] {
			dfs(int32(li))
		}
	}
	slices.Reverse(post)
	return post
}

// run is the fixpoint loop: pop a block, meet the facts flowing into
// it, transfer, and requeue dependents when the outflow changed. This
// is the dataflow solver's inner loop; with B blocks, E edges, and a
// lattice of height H it executes O((B+E)·H) meets and transfers per
// analysis — the static-analysis analogue of the VM dispatch loop, run
// once per analyzed program.
//
//reprolint:hotpath dataflow worklist fixpoint
func (s *solver[F]) run() {
	for s.qlen > 0 {
		bi := s.pop()
		b := s.blocks[bi]

		in := s.top
		if s.boundary[bi] {
			in = s.p.Meet(in, s.boundFct)
		}
		for _, e := range s.into[bi] {
			f := s.res.out[e.from]
			if s.refiner != nil {
				f = s.refiner.TransferEdge(s.blocks[e.from], int(e.succIdx), f)
			}
			in = s.p.Meet(in, f)
		}

		s.visits[bi]++
		if s.widener != nil && s.visits[bi] > widenAfter {
			in = s.widener.Widen(s.res.in[bi], in)
		}
		s.res.in[bi] = in
		prevOut := s.res.out[bi]
		s.res.out[bi] = s.p.Transfer(b, in)
		if s.p.Equal(s.res.out[bi], prevOut) {
			continue
		}
		for _, d := range s.deps[bi] {
			s.push(d)
		}
	}
}

func (s *solver[F]) push(bi int32) {
	if s.onQueue[bi] {
		return
	}
	s.onQueue[bi] = true
	s.queue[s.qtail] = bi
	s.qtail++
	if s.qtail == len(s.queue) {
		s.qtail = 0
	}
	s.qlen++
}

func (s *solver[F]) pop() int32 {
	bi := s.queue[s.qhead]
	s.qhead++
	if s.qhead == len(s.queue) {
		s.qhead = 0
	}
	s.qlen--
	s.onQueue[bi] = false
	return bi
}
