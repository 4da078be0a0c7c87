package workload

// This file adds the graph-workload family: seeded graph generators
// (uniform sparse, power-law/skewed-degree, grid) whose graphs are
// compiled into ISA programs running real traversal kernels — BFS
// frontier expansion, connected-components label propagation, and
// degree-threshold triangle filtering. Each kernel comes in two
// variants sharing one loop skeleton: a branchy one whose inner
// decisions are data-dependent conditional branches, and a
// branch-avoiding contrast that replaces those decisions with
// arithmetic predication (Slt-computed 0/1 masks selected with Mul),
// following the Green et al. branch-avoiding recipe. The variants are
// algorithmically identical — the differential tests read the results
// (levels, labels, triangle counts) back from VM memory and compare
// them against each other and a Go reference — so any accuracy gap
// between them is attributable purely to branch behavior.
//
// Everything is deterministic: the graph is drawn from rng seeded by
// GraphSpec.Seed, the CSR adjacency is canonicalized (sorted, deduped),
// and the emitted program contains no OpRand, so one spec always builds
// one byte-identical program and one branch stream.

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/program"
	"repro/internal/rng"
	"repro/internal/vm"
)

// Graph generator kinds.
const (
	GraphUniform  = "uniform"  // uniform random sparse graph
	GraphPowerLaw = "powerlaw" // skewed-degree graph (Zipf-weighted endpoints)
	GraphGrid     = "grid"     // 2-D lattice with one diagonal per cell
)

// Graph traversal kernels.
const (
	KernelBFS = "bfs" // level-synchronous BFS frontier expansion
	KernelCC  = "cc"  // connected components by min-label propagation
	KernelTri = "tri" // degree-threshold triangle counting
)

// maxGraphNodes bounds generated graphs so that fuzzed specs cannot
// demand gigabyte adjacency matrices (the triangle kernel materializes
// an n×n matrix in VM memory).
const maxGraphNodes = 1 << 10

// bfsInfinity marks unvisited nodes; it exceeds any reachable level.
const bfsInfinity = 1 << 20

// GraphSpec describes one graph benchmark: a generated graph plus a
// traversal kernel in one of its two variants.
type GraphSpec struct {
	// Name identifies the benchmark (e.g. "bfs-uniform-ba").
	Name string
	// Kind is the generator (GraphUniform, GraphPowerLaw, GraphGrid).
	Kind string
	// Kernel is the traversal kernel (KernelBFS, KernelCC, KernelTri).
	Kernel string
	// Avoiding selects the branch-avoiding (predicated) variant.
	Avoiding bool
	// Nodes is the node count; grid graphs require a perfect square.
	Nodes int
	// Degree is the target average degree (ignored by grid).
	Degree int
	// Threshold is the triangle kernel's minimum degree filter.
	Threshold int
	// Seed seeds the graph draw.
	Seed uint64
	// Repeat is how many times the kernel runs at scale 1.0; results
	// are identical across repetitions (each re-initializes its state),
	// repetition only extends the branch stream.
	Repeat int
}

// Validate checks the spec's parameters.
func (g GraphSpec) Validate() error {
	switch g.Kind {
	case GraphUniform, GraphPowerLaw, GraphGrid:
	default:
		return fmt.Errorf("workload: graph %q: unknown kind %q", g.Name, g.Kind)
	}
	switch g.Kernel {
	case KernelBFS, KernelCC, KernelTri:
	default:
		return fmt.Errorf("workload: graph %q: unknown kernel %q", g.Name, g.Kernel)
	}
	if g.Nodes < 2 || g.Nodes > maxGraphNodes {
		return fmt.Errorf("workload: graph %q: nodes %d out of range [2,%d]", g.Name, g.Nodes, maxGraphNodes)
	}
	if g.Kind == GraphGrid {
		side := isqrt(g.Nodes)
		if side*side != g.Nodes || side < 2 {
			return fmt.Errorf("workload: graph %q: grid needs a perfect-square node count >= 4, got %d", g.Name, g.Nodes)
		}
	} else if g.Degree < 1 || g.Degree >= g.Nodes {
		return fmt.Errorf("workload: graph %q: degree %d out of range [1,%d)", g.Name, g.Degree, g.Nodes)
	}
	if g.Threshold < 0 {
		return fmt.Errorf("workload: graph %q: negative threshold %d", g.Name, g.Threshold)
	}
	if g.Repeat < 1 {
		return fmt.Errorf("workload: graph %q: repeat %d < 1", g.Name, g.Repeat)
	}
	return nil
}

// Variant names the spec's variant for reports.
func (g GraphSpec) Variant() string {
	if g.Avoiding {
		return "avoiding"
	}
	return "branchy"
}

// PairName is the benchmark name without the variant suffix; the
// branchy and branch-avoiding twins of one kernel×generator share it.
func (g GraphSpec) PairName() string {
	return g.Kernel + "-" + g.Kind
}

// graphSpecs is the registry: every kernel over every generator, in
// both variants. The branch-avoiding twin of each pair carries the
// "-ba" suffix and differs only in its Avoiding flag, so differential
// tests can derive one from the other.
var graphSpecs = buildGraphRegistry()

func buildGraphRegistry() []GraphSpec {
	base := []GraphSpec{
		{Kind: GraphUniform, Nodes: 96, Degree: 6, Seed: 11},
		{Kind: GraphPowerLaw, Nodes: 96, Degree: 6, Seed: 12},
		{Kind: GraphGrid, Nodes: 100, Seed: 13},
	}
	kernels := []struct {
		kernel    string
		threshold int
		repeat    int
	}{
		{KernelBFS, 0, 4},
		{KernelCC, 0, 3},
		{KernelTri, 4, 2},
	}
	var specs []GraphSpec
	for _, k := range kernels {
		for _, b := range base {
			for _, avoiding := range []bool{false, true} {
				g := b
				g.Kernel = k.kernel
				g.Threshold = k.threshold
				g.Repeat = k.repeat
				g.Avoiding = avoiding
				g.Name = g.PairName()
				if avoiding {
					g.Name += "-ba"
				}
				specs = append(specs, g)
			}
		}
	}
	return specs
}

// Graphs returns the graph benchmark registry in fixed order:
// kernel-major, generator-minor, branchy before branch-avoiding.
func Graphs() []GraphSpec {
	out := make([]GraphSpec, len(graphSpecs))
	copy(out, graphSpecs)
	return out
}

// GraphNames returns the registry's benchmark names in order.
func GraphNames() []string {
	names := make([]string, len(graphSpecs))
	for i, g := range graphSpecs {
		names[i] = g.Name
	}
	return names
}

// GraphPairNames returns the kernel×generator pair names in registry
// order ("bfs-uniform", ...), one per branchy/avoiding twin pair.
func GraphPairNames() []string {
	var names []string
	for _, g := range graphSpecs {
		if !g.Avoiding {
			names = append(names, g.PairName())
		}
	}
	return names
}

// GraphByName looks a graph benchmark up by name.
func GraphByName(name string) (GraphSpec, error) {
	for _, g := range graphSpecs {
		if g.Name == name {
			return g, nil
		}
	}
	return GraphSpec{}, fmt.Errorf("workload: unknown graph benchmark %q (have %v)", name, GraphNames())
}

// --- graph generation ---

// csrGraph is an undirected graph in canonical CSR form: adjacency
// lists sorted ascending, no self-loops, no duplicate edges, every
// edge present in both directions.
type csrGraph struct {
	n   int
	deg []int32 // n entries
	off []int32 // n+1 entries, off[n] == len(adj)
	adj []int32
}

// isqrt returns the integer square root of n.
func isqrt(n int) int {
	if n < 0 {
		return 0
	}
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// buildGraph draws the spec's graph. The draw is a pure function of
// (Kind, Nodes, Degree, Seed): undirected edges are collected with a
// membership set (never iterated), then canonicalized into sorted CSR,
// so the result is independent of draw order.
func buildGraph(g GraphSpec) csrGraph {
	n := g.Nodes
	type edge struct{ u, v int32 }
	var edges []edge
	seen := make(map[int64]struct{})
	addEdge := func(u, v int) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		key := int64(u)*int64(n) + int64(v)
		if _, ok := seen[key]; ok {
			return false
		}
		seen[key] = struct{}{}
		edges = append(edges, edge{int32(u), int32(v)})
		return true
	}

	switch g.Kind {
	case GraphGrid:
		// side×side lattice: right, down, and one down-right diagonal
		// per cell, so the lattice contains triangles for the triangle
		// kernel while keeping grid-regular control flow.
		side := isqrt(n)
		at := func(r, c int) int { return r*side + c }
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				if c+1 < side {
					addEdge(at(r, c), at(r, c+1))
				}
				if r+1 < side {
					addEdge(at(r, c), at(r+1, c))
				}
				if r+1 < side && c+1 < side {
					addEdge(at(r, c), at(r+1, c+1))
				}
			}
		}
	default:
		r := rng.New(g.Seed)
		target := n * g.Degree / 2
		if target < 1 {
			target = 1
		}
		var zipf *rng.Zipf
		var perm []int
		if g.Kind == GraphPowerLaw {
			zipf = rng.NewZipf(r, n, 1.1)
			perm = r.Perm(n)
		}
		// Rejected draws (self-loops, duplicates) still advance the rng,
		// so the attempt cap guarantees termination on dense parameter
		// corners without changing any accepted edge.
		for attempts := 0; len(edges) < target && attempts < 16*target+64; attempts++ {
			var u, v int
			if g.Kind == GraphPowerLaw {
				u = perm[zipf.Next()]
				v = perm[r.Intn(n)]
			} else {
				u = r.Intn(n)
				v = r.Intn(n)
			}
			addEdge(u, v)
		}
	}

	c := csrGraph{n: n, deg: make([]int32, n), off: make([]int32, n+1)}
	for _, e := range edges {
		c.deg[e.u]++
		c.deg[e.v]++
	}
	for i := 0; i < n; i++ {
		c.off[i+1] = c.off[i] + c.deg[i]
	}
	c.adj = make([]int32, c.off[n])
	next := make([]int32, n)
	copy(next, c.off[:n])
	for _, e := range edges {
		c.adj[next[e.u]] = e.v
		next[e.u]++
		c.adj[next[e.v]] = e.u
		next[e.v]++
	}
	for i := 0; i < n; i++ {
		lo, hi := c.off[i], c.off[i+1]
		seg := c.adj[lo:hi]
		sort.Slice(seg, func(a, b int) bool { return seg[a] < seg[b] })
	}
	return c
}

// --- code generation ---

// Register plan for the generated kernels. R0 stays zero, R29 is the
// stack pointer and R31 the link register; everything the kernels use
// lives below those.
const (
	gN    isa.Reg = 1  // node count
	gINF  isa.Reg = 2  // BFS infinity sentinel
	gI    isa.Reg = 3  // init loop counter
	gCur  isa.Reg = 4  // BFS current level / triangle degree threshold
	gChg  isa.Reg = 5  // convergence flag
	gU    isa.Reg = 6  // outer node
	gA    isa.Reg = 7  // res[u] or deg[u]
	gE    isa.Reg = 8  // edge cursor of u
	gEEnd isa.Reg = 9  // edge end of u
	gV    isa.Reg = 10 // neighbor
	gB    isa.Reg = 11 // res[v] or deg[v]
	gS    isa.Reg = 12 // predicate scratch
	gT    isa.Reg = 13 // value scratch
	gAddr isa.Reg = 14 // computed address
	gOne  isa.Reg = 15 // constant 1
	gAct  isa.Reg = 16 // predication mask (outer)
	gCnt  isa.Reg = 17 // triangle count
	gF    isa.Reg = 18 // edge cursor of v
	gFEnd isa.Reg = 19 // edge end of v
	gW    isa.Reg = 20 // second neighbor
	gC    isa.Reg = 21 // deg[w] scratch
	gCv   isa.Reg = 22 // predication mask (middle)
	gRep  isa.Reg = 25 // repetition counter
	gTmp  isa.Reg = 26 // data-init scratch
)

// graphEmitter compiles one spec's graph and kernel into a program.
// Memory layout, in 8-byte words from address 0:
//
//	res    [0, n)        kernel result: BFS levels / CC labels; res[0]
//	                     holds the triangle count for KernelTri
//	deg    [n, 2n)       node degrees (triangle kernel only)
//	off    ...           CSR row offsets, n+1 words
//	adj    ...           CSR adjacency, off[n] words
//	adjmat ...           n×n adjacency matrix (triangle kernel only),
//	                     built in-program from the CSR
type graphEmitter struct {
	b  *program.Builder
	g  GraphSpec
	cs csrGraph

	resBase, degBase, offBase, adjBase, matBase int32
}

func newGraphEmitter(g GraphSpec) *graphEmitter {
	e := &graphEmitter{b: program.NewBuilder(g.Name), g: g, cs: buildGraph(g)}
	n := int32(e.cs.n)
	e.resBase = 0
	cursor := n
	if g.Kernel == KernelTri {
		e.degBase = cursor
		cursor += n
	}
	e.offBase = cursor
	cursor += n + 1
	e.adjBase = cursor
	cursor += int32(len(e.cs.adj))
	if g.Kernel == KernelTri {
		e.matBase = cursor
		cursor += n * n
	}
	e.b.ReserveMem(int(cursor) + 64)
	return e
}

// emitData materializes the CSR (and degrees, for the triangle kernel)
// into data memory. The VM zeroes memory at Run entry, so this runs
// once, before the repetition loop; kernels treat it as read-only.
func (e *graphEmitter) emitData() {
	b := e.b
	store := func(base int32, i int, v int32) {
		b.LoadImm(gTmp, v)
		b.Store(gTmp, isa.RZero, base+int32(i))
	}
	if e.g.Kernel == KernelTri {
		for i, d := range e.cs.deg {
			store(e.degBase, i, d)
		}
	}
	for i, o := range e.cs.off {
		store(e.offBase, i, o)
	}
	for i, a := range e.cs.adj {
		store(e.adjBase, i, a)
	}
}

// emitNodeLoop emits `for u = 0; u < n; u++ { body }` with the loop
// branch at the bottom (taken-biased, like compiled countable loops).
func (e *graphEmitter) emitNodeLoop(counter isa.Reg, body func()) {
	b := e.b
	b.LoadImm(counter, 0)
	top := b.Here()
	body()
	b.AddI(counter, counter, 1)
	b.Slt(gS, counter, gN)
	b.Bne(gS, isa.RZero, top)
}

// emitEdgeLoop emits iteration over u's CSR adjacency segment:
// cursor/end registers are loaded from off[u]/off[u+1], and body runs
// once per neighbor with the neighbor id in neighbor.
func (e *graphEmitter) emitEdgeLoop(node, cursor, end, neighbor isa.Reg, body func()) {
	b := e.b
	b.Load(cursor, node, e.offBase)
	b.Load(end, node, e.offBase+1)
	done := b.NewLabel()
	b.Slt(gS, cursor, end)
	b.Beq(gS, isa.RZero, done)
	top := b.Here()
	b.Load(neighbor, cursor, e.adjBase)
	body()
	b.AddI(cursor, cursor, 1)
	b.Slt(gS, cursor, end)
	b.Bne(gS, isa.RZero, top)
	b.Bind(done)
}

// emitEq sets dst to 1 if a == bReg else 0, clobbering gS and gT.
func (e *graphEmitter) emitEq(dst, a, bReg isa.Reg) {
	b := e.b
	b.Sub(gS, a, bReg)
	b.Slt(gT, gS, isa.RZero) // diff < 0
	b.Slt(gS, isa.RZero, gS) // diff > 0
	b.Or(gS, gS, gT)
	b.XorI(dst, gS, 1)
}

// emitBFS emits level-synchronous BFS from node 0. Both variants share
// the identical round/node/edge loop skeleton; they differ only in how
// the two data-dependent decisions — "is u on the frontier" and "is v
// unvisited" — are realized: conditional branches (branchy) or Slt
// masks folded into a predicated store (avoiding).
func (e *graphEmitter) emitBFS() {
	b := e.b
	// init: level[i] = INF, level[0] = 0, cur = 0
	b.LoadImm(gI, 0)
	top := b.Here()
	b.Store(gINF, gI, e.resBase)
	b.AddI(gI, gI, 1)
	b.Slt(gS, gI, gN)
	b.Bne(gS, isa.RZero, top)
	b.Store(isa.RZero, isa.RZero, e.resBase)
	b.LoadImm(gCur, 0)

	roundTop := b.Here()
	b.LoadImm(gChg, 0)
	e.emitNodeLoop(gU, func() {
		b.Load(gA, gU, e.resBase) // lu = level[u]
		if !e.g.Avoiding {
			skipU := b.NewLabel()
			b.Sub(gS, gA, gCur)
			b.Bne(gS, isa.RZero, skipU) // u not on frontier
			e.emitEdgeLoop(gU, gE, gEEnd, gV, func() {
				skipE := b.NewLabel()
				b.Load(gB, gV, e.resBase) // lv = level[v]
				b.Sub(gS, gB, gINF)
				b.Bne(gS, isa.RZero, skipE) // v already visited
				b.AddI(gT, gCur, 1)
				b.Store(gT, gV, e.resBase)
				b.LoadImm(gChg, 1)
				b.Bind(skipE)
			})
			b.Bind(skipU)
			return
		}
		e.emitEq(gAct, gA, gCur) // act = (lu == cur)
		e.emitEdgeLoop(gU, gE, gEEnd, gV, func() {
			b.Load(gB, gV, e.resBase) // lv = level[v]
			b.Slt(gS, gB, gINF)
			b.XorI(gS, gS, 1) // unvisited = !(lv < INF)
			b.And(gS, gS, gAct)
			// level[v] = lv + mask * (cur+1 - lv): the store always
			// executes; the mask selects between old and new value.
			b.AddI(gT, gCur, 1)
			b.Sub(gT, gT, gB)
			b.Mul(gT, gT, gS)
			b.Add(gT, gB, gT)
			b.Store(gT, gV, e.resBase)
			b.Or(gChg, gChg, gS)
		})
	})
	b.AddI(gCur, gCur, 1)
	b.Bne(gChg, isa.RZero, roundTop)
}

// emitCC emits connected components by min-label propagation: each
// round scans every edge endpoint and pulls the smaller label, until a
// round changes nothing. The branchy variant guards the store with a
// comparison branch; the avoiding variant computes min() by mask
// arithmetic and always stores.
func (e *graphEmitter) emitCC() {
	b := e.b
	// init: label[i] = i
	b.LoadImm(gI, 0)
	top := b.Here()
	b.Store(gI, gI, e.resBase)
	b.AddI(gI, gI, 1)
	b.Slt(gS, gI, gN)
	b.Bne(gS, isa.RZero, top)

	roundTop := b.Here()
	b.LoadImm(gChg, 0)
	e.emitNodeLoop(gU, func() {
		e.emitEdgeLoop(gU, gE, gEEnd, gV, func() {
			b.Load(gA, gU, e.resBase) // lu, reloaded: earlier edges may have lowered it
			b.Load(gB, gV, e.resBase) // lv
			if !e.g.Avoiding {
				skipE := b.NewLabel()
				b.Slt(gS, gB, gA)
				b.Beq(gS, isa.RZero, skipE) // lv >= lu: keep
				b.Store(gB, gU, e.resBase)
				b.LoadImm(gChg, 1)
				b.Bind(skipE)
				return
			}
			b.Slt(gS, gB, gA) // mask = lv < lu
			// label[u] = lu + mask*(lv - lu) = min(lu, lv)
			b.Sub(gT, gB, gA)
			b.Mul(gT, gT, gS)
			b.Add(gT, gA, gT)
			b.Store(gT, gU, e.resBase)
			b.Or(gChg, gChg, gS)
		})
	})
	b.Bne(gChg, isa.RZero, roundTop)
}

// emitTriMat builds the n×n adjacency matrix from the CSR in-program,
// once, before the repetition loop (it is read-only afterwards).
func (e *graphEmitter) emitTriMat() {
	b := e.b
	b.LoadImm(gOne, 1)
	e.emitNodeLoop(gU, func() {
		e.emitEdgeLoop(gU, gE, gEEnd, gV, func() {
			b.Mul(gAddr, gU, gN)
			b.Add(gAddr, gAddr, gV)
			b.Store(gOne, gAddr, e.matBase)
		})
	})
}

// emitTri counts triangles u<v<w whose three corners all meet the
// degree threshold, enumerating ordered wedges through the CSR and
// closing them against the adjacency matrix. The branchy variant
// prunes with a chain of five data-dependent branches per wedge; the
// avoiding variant multiplies the same five indicators into the count.
func (e *graphEmitter) emitTri() {
	b := e.b
	b.LoadImm(gCnt, 0)
	b.LoadImm(gCur, int32(e.g.Threshold))
	e.emitNodeLoop(gU, func() {
		b.Load(gA, gU, e.degBase)
		if !e.g.Avoiding {
			skipU := b.NewLabel()
			b.Slt(gS, gA, gCur)
			b.Bne(gS, isa.RZero, skipU) // deg[u] < T
			e.emitEdgeLoop(gU, gE, gEEnd, gV, func() {
				skipE := b.NewLabel()
				b.Slt(gS, gU, gV)
				b.Beq(gS, isa.RZero, skipE) // need u < v
				b.Load(gB, gV, e.degBase)
				b.Slt(gS, gB, gCur)
				b.Bne(gS, isa.RZero, skipE) // deg[v] < T
				e.emitEdgeLoop(gV, gF, gFEnd, gW, func() {
					skipF := b.NewLabel()
					b.Slt(gS, gV, gW)
					b.Beq(gS, isa.RZero, skipF) // need v < w
					b.Load(gC, gW, e.degBase)
					b.Slt(gS, gC, gCur)
					b.Bne(gS, isa.RZero, skipF) // deg[w] < T
					b.Mul(gAddr, gU, gN)
					b.Add(gAddr, gAddr, gW)
					b.Load(gT, gAddr, e.matBase)
					b.Beq(gT, isa.RZero, skipF) // (u,w) not an edge
					b.AddI(gCnt, gCnt, 1)
					b.Bind(skipF)
				})
				b.Bind(skipE)
			})
			b.Bind(skipU)
			return
		}
		b.Slt(gS, gA, gCur)
		b.XorI(gAct, gS, 1) // deg[u] >= T
		e.emitEdgeLoop(gU, gE, gEEnd, gV, func() {
			b.Slt(gCv, gU, gV) // u < v
			b.And(gCv, gCv, gAct)
			b.Load(gB, gV, e.degBase)
			b.Slt(gS, gB, gCur)
			b.XorI(gS, gS, 1)
			b.And(gCv, gCv, gS) // wedge-base mask
			e.emitEdgeLoop(gV, gF, gFEnd, gW, func() {
				b.Slt(gT, gV, gW) // v < w
				b.And(gT, gT, gCv)
				b.Load(gC, gW, e.degBase)
				b.Slt(gS, gC, gCur)
				b.XorI(gS, gS, 1)
				b.And(gT, gT, gS)
				b.Mul(gAddr, gU, gN)
				b.Add(gAddr, gAddr, gW)
				b.Load(gS, gAddr, e.matBase)
				b.Mul(gS, gS, gT) // closes iff (u,w) edge and all filters pass
				b.Add(gCnt, gCnt, gS)
			})
		})
	})
	b.Store(gCnt, isa.RZero, e.resBase)
}

// Build compiles the spec into a validated program. The same spec and
// scale always produce the identical byte sequence. Scale multiplies
// the kernel repetition count (minimum one).
func (g GraphSpec) Build(scale float64) (*program.Program, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := checkScale(scale); err != nil {
		return nil, err
	}
	e := newGraphEmitter(g)
	b := e.b

	b.LoadImm(gN, int32(e.cs.n))
	b.LoadImm(gINF, bfsInfinity)
	e.emitData()
	if g.Kernel == KernelTri {
		e.emitTriMat()
	}

	b.LoadImm(gRep, int32(g.ScaledRepeat(scale)))
	repTop := b.Here()
	switch g.Kernel {
	case KernelBFS:
		e.emitBFS()
	case KernelCC:
		e.emitCC()
	case KernelTri:
		e.emitTri()
	}
	b.AddI(gRep, gRep, -1)
	b.Bne(gRep, isa.RZero, repTop)
	b.Halt()
	return b.Build()
}

// ScaledRepeat returns the kernel repetition count at scale (0 means
// 1.0; the result is at least 1).
func (g GraphSpec) ScaledRepeat(scale float64) int {
	if scale == 0 {
		scale = 1
	}
	reps := int(float64(g.Repeat)*scale + 0.5)
	if reps < 1 {
		reps = 1
	}
	return reps
}

// graphMaxInstructions caps graph runs defensively: every kernel
// terminates (BFS and CC converge in at most n rounds, the triangle
// scan is a finite nest), so a run hitting the cap indicates a codegen
// bug, which tests detect via Stats.Halted.
const graphMaxInstructions = 1 << 28

// RunInto builds and executes the graph benchmark at scale, streaming
// branch events to sink, and returns the finished machine (for result
// readback via Result) along with execution statistics.
func (g GraphSpec) RunInto(scale float64, sink vm.BranchSink, metrics *obs.VMMetrics) (*vm.Machine, vm.Stats, error) {
	p, err := g.Build(scale)
	if err != nil {
		return nil, vm.Stats{}, err
	}
	m, err := vm.New(p)
	if err != nil {
		return nil, vm.Stats{}, err
	}
	stats, err := m.Run(vm.Config{
		MaxInstructions: graphMaxInstructions,
		Sink:            sink,
		Metrics:         metrics,
	})
	if err != nil {
		return nil, stats, fmt.Errorf("workload: running graph %s: %w", g.Name, err)
	}
	if !stats.Halted {
		return nil, stats, fmt.Errorf("workload: graph %s hit the %d-instruction cap without halting", g.Name, graphMaxInstructions)
	}
	return m, stats, nil
}

// Result reads the kernel's algorithmic result back from a finished
// machine's memory: BFS levels or CC labels (one word per node), or a
// single-element slice holding the triangle count.
func (g GraphSpec) Result(m *vm.Machine) []int64 {
	mem := m.Mem()
	if g.Kernel == KernelTri {
		return []int64{mem[0]}
	}
	out := make([]int64, g.Nodes)
	copy(out, mem[:g.Nodes])
	return out
}

// Reference computes the kernel's result in Go over the identical
// generated graph — the oracle the differential tests (and -check)
// compare both ISA variants against.
func (g GraphSpec) Reference() []int64 {
	cs := buildGraph(g)
	n := cs.n
	switch g.Kernel {
	case KernelBFS:
		level := make([]int64, n)
		for i := range level {
			level[i] = bfsInfinity
		}
		level[0] = 0
		for cur := int64(0); ; cur++ {
			changed := false
			for u := 0; u < n; u++ {
				if level[u] != cur {
					continue
				}
				for _, v := range cs.adj[cs.off[u]:cs.off[u+1]] {
					if level[v] == bfsInfinity {
						level[v] = cur + 1
						changed = true
					}
				}
			}
			if !changed {
				return level
			}
		}
	case KernelCC:
		label := make([]int64, n)
		for i := range label {
			label[i] = int64(i)
		}
		for {
			changed := false
			for u := 0; u < n; u++ {
				for _, v := range cs.adj[cs.off[u]:cs.off[u+1]] {
					if label[v] < label[u] {
						label[u] = label[v]
						changed = true
					}
				}
			}
			if !changed {
				return label
			}
		}
	case KernelTri:
		has := make(map[int64]bool)
		for u := 0; u < n; u++ {
			for _, v := range cs.adj[cs.off[u]:cs.off[u+1]] {
				has[int64(u)*int64(n)+int64(v)] = true
			}
		}
		t := int64(g.Threshold)
		var count int64
		for u := 0; u < n; u++ {
			if int64(cs.deg[u]) < t {
				continue
			}
			for _, v := range cs.adj[cs.off[u]:cs.off[u+1]] {
				if int(v) <= u || int64(cs.deg[v]) < t {
					continue
				}
				for _, w := range cs.adj[cs.off[v]:cs.off[v+1]] {
					if w <= v || int64(cs.deg[w]) < t {
						continue
					}
					if has[int64(u)*int64(n)+int64(w)] {
						count++
					}
				}
			}
		}
		return []int64{count}
	}
	return nil
}
