// Package staticws estimates branch working sets at compile time: it
// walks the loop forest of a guest program (package cfg) and emits a
// *static* conflict graph — no profile run, no trace. The paper's
// Section 5 pitches compiler-controlled branch allocation but derives
// every conflict graph from dynamic profiles; this package answers the
// question that leaves open: how close does profile-free allocation
// get?
//
// The structural model: two conditional branches conflict iff they
// share an innermost containing loop — loop iteration is what makes
// branches interleave, and straight-line code executes each branch
// once between iterations of the enclosing loop. Loops are resolved
// interprocedurally: a call inside a loop pulls the callee's
// loop-free branches into that loop's body, exactly as inlining
// would. Edge weights follow a coreDefault^depth model (the pruning
// threshold raised to the loop depth), so a depth-1 shared loop lands
// exactly at the pruning threshold and deeper nests dominate, mirroring
// how dynamic interleave counts scale with trip counts.
//
// The result is packaged as a pseudo profile.Profile whose node set is
// exactly Program.CondBranchPCs(), so the existing graph/core/coloring
// machinery — and the PR 1 artifact verifiers — run on it unchanged.
package staticws

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/progcheck"
	"repro/internal/program"
)

// depthCap bounds the exponential weight model so uint64 arithmetic
// cannot overflow: DefaultThreshold^9 = 10^18 < 2^63. Guest nests
// deeper than 9 saturate, which only flattens weights that are already
// far above every pruning threshold in use.
const depthCap = 9

// Weight returns the structural conflict weight for a shared loop at
// the given interprocedural nesting depth: DefaultThreshold^depth.
// Depth 1 therefore lands exactly on the default pruning threshold and
// survives BuildGraph; depth 0 (no shared loop) contributes nothing.
func Weight(depth int) uint64 {
	if depth <= 0 {
		return 0
	}
	if depth > depthCap {
		depth = depthCap
	}
	w := uint64(1)
	for i := 0; i < depth; i++ {
		w *= core.DefaultThreshold
	}
	return w
}

// Bias is the static bias classification of one branch from its
// condition idiom.
type Bias uint8

const (
	// BiasUnknown means no idiom matched; the branch is estimated mixed.
	BiasUnknown Bias = iota
	// BiasTaken marks loop-closing induction-variable compares: a
	// backward branch to a containing loop's header testing a register
	// the loop itself increments or decrements. Such branches are taken
	// every iteration but the last.
	BiasTaken
	// BiasNotTaken marks loop-exit branches: a conditional branch
	// inside a loop whose taken target leaves the loop body. They fire
	// once per many iterations.
	BiasNotTaken
)

func (b Bias) String() string {
	switch b {
	case BiasTaken:
		return "biased-taken"
	case BiasNotTaken:
		return "biased-not-taken"
	}
	return "unknown"
}

// Estimate is the static working-set estimate of one program.
type Estimate struct {
	Prog   *program.Program
	CFG    *cfg.Graph
	Forest *cfg.Forest
	// Profile is the static pseudo-profile: PCs is exactly
	// Prog.CondBranchPCs(), Exec/Taken carry the structural execution
	// and bias estimates, and Pairs holds the static conflict weights.
	// It feeds core.Analyze and core.Allocate unchanged.
	Profile *profile.Profile
	// Depth[id] is the estimated interprocedural loop depth of each
	// branch (0 = never inside a loop).
	Depth []int
	// Bias[id] is the per-branch idiom classification.
	Bias []Bias
	// PrunedResolved and PrunedDead count the branch sites excluded
	// from the conflict graph because verifier facts proved their
	// direction constant or their code unreachable.
	PrunedResolved, PrunedDead int
}

// LoopBranches returns how many branches sit inside at least one loop.
func (e *Estimate) LoopBranches() int {
	n := 0
	for _, d := range e.Depth {
		if d > 0 {
			n++
		}
	}
	return n
}

// MaxDepth returns the deepest estimated loop depth.
func (e *Estimate) MaxDepth() int {
	m := 0
	for _, d := range e.Depth {
		if d > m {
			m = d
		}
	}
	return m
}

// BiasCounts returns the branch counts per static bias class.
func (e *Estimate) BiasCounts() (unknown, taken, notTaken int) {
	for _, b := range e.Bias {
		switch b {
		case BiasTaken:
			taken++
		case BiasNotTaken:
			notTaken++
		default:
			unknown++
		}
	}
	return
}

// funcSummary is the loop-free view of one function as seen from a
// call site outside any of its loops: the branches that execute at the
// caller's loop depth and the loop roots that nest one level deeper.
// Calls from loop-free blocks are flattened transitively, as inlining
// would.
type funcSummary struct {
	freeBranches []int32
	rootLoops    []int
}

// analyzer carries the walk state.
type analyzer struct {
	g      *cfg.Graph
	forest *cfg.Forest
	// idOf maps a branch instruction index to its dense profile id.
	idOf map[int]int32
	// callee maps a call instruction index to the callee function ID.
	callee map[int]int

	summaries map[int]*funcSummary
	onStack   map[int]bool // recursion guard for summaries

	// callsAt[loopID] are call-site instruction indices whose innermost
	// containing loop is that loop; callsFree[fnID] are the function's
	// call sites outside every loop.
	callsAt   map[int][]int
	callsFree map[int][]int

	// ctxDepth[fnID] memoizes the interprocedural depth of a function's
	// loop-free code; ctxOnStack guards recursion.
	ctxDepth   map[int]int
	ctxOnStack map[int]bool

	// members[loopID] memoizes the full interprocedural member set.
	members map[int][]int32

	// pruned[id] marks profile ids excluded from conflict emission
	// because verifier facts proved the branch resolved or dead.
	pruned []bool
}

// Analyze computes the static working-set estimate of p. A non-nil
// facts, the verifier's proven facts for p (progcheck.Check), prunes
// resolved and dead branches from the conflict graph: they emit no
// pairs and so claim no counter, because a branch the compiler already
// knows the direction of needs no two-bit counter and cannot contend
// for one. Resolved branches report their proven direction as bias,
// and dead branches report zero executions. The profile node set is
// unchanged — still exactly p.CondBranchPCs() — so every downstream
// consumer and artifact verifier runs on the result as-is.
func Analyze(p *program.Program, facts *progcheck.Facts) (*Estimate, error) {
	g, err := cfg.Build(p)
	if err != nil {
		return nil, err
	}
	forest := g.LoopForest()

	pcs := p.CondBranchPCs()
	idOf := make(map[int]int32, len(pcs))
	for id, pc := range pcs {
		idOf[isa.IndexOf(pc)] = int32(id)
	}

	a := &analyzer{
		g: g, forest: forest, idOf: idOf,
		callee:    make(map[int]int),
		summaries: make(map[int]*funcSummary),
		onStack:   make(map[int]bool),
		callsAt:   make(map[int][]int),
		callsFree: make(map[int][]int),
		ctxDepth:  make(map[int]int), ctxOnStack: make(map[int]bool),
		members: make(map[int][]int32),
		pruned:  make([]bool, len(pcs)),
	}
	if facts != nil {
		for id, pc := range pcs {
			i := isa.IndexOf(pc)
			a.pruned[id] = facts.ResolvedKnown[i] || facts.Unreachable[i]
		}
	}
	for _, c := range g.Calls {
		a.callee[c.Inst] = c.Callee
		if l := forest.InnermostAt(c.Block); l != nil {
			a.callsAt[l.ID] = append(a.callsAt[l.ID], c.Inst)
		} else {
			a.callsFree[c.Caller] = append(a.callsFree[c.Caller], c.Inst)
		}
	}

	prof := &profile.Profile{
		Benchmark: p.Name,
		InputSets: []string{"static"},
		PCs:       pcs,
		Exec:      make([]uint64, len(pcs)),
		Taken:     make([]uint64, len(pcs)),
	}
	var pairs []profile.PairCount
	est := &Estimate{
		Prog: p, CFG: g, Forest: forest, Profile: prof,
		Depth: make([]int, len(pcs)),
		Bias:  make([]Bias, len(pcs)),
	}

	// Per-loop conflict emission: the members of each loop, partitioned
	// into units — every direct branch is its own unit, every child
	// subtree is one unit. Pairs in distinct units share this loop as
	// their innermost common loop and conflict at its depth; pairs
	// within one child subtree conflict deeper and are charged there.
	for _, l := range forest.Loops {
		depth := a.effDepth(l)
		w := Weight(depth)
		units := make([][]int32, 0, 8)
		for _, b := range a.directBranches(l) {
			if d := est.Depth[b]; depth > d {
				est.Depth[b] = depth
			}
			prof.Exec[b] += Weight(depth)
			// Pruned branches keep their execution estimate but join no
			// unit: with no counter to claim, they cannot conflict.
			if !a.pruned[b] {
				units = append(units, []int32{b})
			}
		}
		for _, child := range a.childLoops(l) {
			units = append(units, a.loopMembers(child))
		}
		for i := 0; i < len(units); i++ {
			for j := i + 1; j < len(units); j++ {
				for _, x := range units[i] {
					for _, y := range units[j] {
						pairs = append(pairs, profile.PairCount{A: x, B: y, Count: w})
					}
				}
			}
		}
	}
	prof.Pairs = profile.NewPairList(len(pcs), pairs)

	// Branches the loop walk never reached execute (at most) once per
	// program: straight-line code and dead code. The estimate uses 2,
	// not 1, so an unknown-bias branch's half-taken estimate below stays
	// representable in integer counts (Taken = 1 of 2, rate 0.5) and
	// classifies mixed rather than collapsing to rate 0.
	for id := range prof.Exec {
		if prof.Exec[id] == 0 && est.Depth[id] == 0 {
			prof.Exec[id] = 2
		}
	}

	a.classifyBiases(est)
	for id, b := range est.Bias {
		switch b {
		case BiasTaken:
			prof.Taken[id] = prof.Exec[id]
		case BiasNotTaken:
			prof.Taken[id] = 0
		default:
			prof.Taken[id] = prof.Exec[id] / 2
		}
	}
	if facts != nil {
		// Proven directions beat idiom guesses, and proven-dead branches
		// execute exactly never. Applied after the Exec fallback above so
		// dead branches stay at zero.
		for id, pc := range pcs {
			i := isa.IndexOf(pc)
			if facts.ResolvedKnown[i] {
				est.PrunedResolved++
				if facts.ResolvedTaken[i] {
					est.Bias[id] = BiasTaken
					prof.Taken[id] = prof.Exec[id]
				} else {
					est.Bias[id] = BiasNotTaken
					prof.Taken[id] = 0
				}
			}
			if facts.Unreachable[i] {
				est.PrunedDead++
				prof.Exec[id] = 0
				prof.Taken[id] = 0
			}
		}
	}
	var insts uint64
	for _, e := range prof.Exec {
		insts += e
	}
	// The time base is an estimate too: scale branch executions by the
	// program's overall instructions-per-branch ratio.
	if nb := len(pcs); nb > 0 {
		insts *= uint64(len(p.Code)) / uint64(nb)
	}
	prof.Instructions = insts
	return est, nil
}

// summary computes (and memoizes) the loop-free view of a function.
// Recursive call cycles stop expanding: a recursive function's
// contribution is counted once, matching a compiler's conservative
// treatment.
func (a *analyzer) summary(fnID int) *funcSummary {
	if s, ok := a.summaries[fnID]; ok {
		return s
	}
	if a.onStack[fnID] {
		return &funcSummary{}
	}
	a.onStack[fnID] = true
	defer delete(a.onStack, fnID)

	s := &funcSummary{}
	fn := a.g.Funcs[fnID]
	for _, bi := range fn.Blocks {
		if a.forest.InnermostAt(bi) != nil {
			continue
		}
		b := a.g.Blocks[bi]
		for i := b.Start; i < b.End; i++ {
			if id, ok := a.idOf[i]; ok {
				s.freeBranches = append(s.freeBranches, id)
			}
		}
	}
	for _, l := range a.forest.Loops {
		if l.Fn == fnID && l.Parent < 0 {
			s.rootLoops = append(s.rootLoops, l.ID)
		}
	}
	for _, call := range a.callsFree[fnID] {
		cs := a.summary(a.calleeOf(call))
		s.freeBranches = append(s.freeBranches, cs.freeBranches...)
		s.rootLoops = append(s.rootLoops, cs.rootLoops...)
	}
	a.summaries[fnID] = s
	return s
}

func (a *analyzer) calleeOf(inst int) int { return a.callee[inst] }

// directBranches returns the branches whose innermost containing loop
// is exactly l: branches in l's own non-nested blocks, plus the
// loop-free branches of functions called from those blocks.
func (a *analyzer) directBranches(l *cfg.Loop) []int32 {
	var out []int32
	for _, bi := range l.Blocks {
		if a.forest.InnermostAt(bi) != l {
			continue
		}
		b := a.g.Blocks[bi]
		for i := b.Start; i < b.End; i++ {
			if id, ok := a.idOf[i]; ok {
				out = append(out, id)
			}
		}
	}
	for _, call := range a.callsAt[l.ID] {
		out = append(out, a.summary(a.calleeOf(call)).freeBranches...)
	}
	return out
}

// childLoops returns the loops nested directly under l: its
// intraprocedural children plus the root loops of functions called
// from l's non-nested blocks.
func (a *analyzer) childLoops(l *cfg.Loop) []*cfg.Loop {
	var out []*cfg.Loop
	for _, c := range l.Children {
		out = append(out, a.forest.Loops[c])
	}
	for _, call := range a.callsAt[l.ID] {
		for _, r := range a.summary(a.calleeOf(call)).rootLoops {
			out = append(out, a.forest.Loops[r])
		}
	}
	return out
}

// loopMembers returns (and memoizes) every branch executing under l,
// directly or through nested loops and calls.
func (a *analyzer) loopMembers(l *cfg.Loop) []int32 {
	if m, ok := a.members[l.ID]; ok {
		return m
	}
	a.members[l.ID] = nil // cycle guard: a recursive nest contributes once
	seen := make(map[int32]bool)
	var out []int32
	add := func(ids []int32) {
		for _, id := range ids {
			if !seen[id] && !a.pruned[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	add(a.directBranches(l))
	for _, c := range a.childLoops(l) {
		add(a.loopMembers(c))
	}
	a.members[l.ID] = out
	return out
}

// effDepth returns l's interprocedural nesting depth: its depth within
// its function plus the depth of the deepest loop context its function
// is called from.
func (a *analyzer) effDepth(l *cfg.Loop) int {
	return l.Depth + a.contextDepth(l.Fn)
}

// contextDepth returns the loop depth surrounding calls to fn: the
// maximum over its call sites of the containing loop's effective depth
// (or the caller's own context for loop-free call sites). The entry
// function has depth 0. Recursion stops at the cycle, bounding the
// depth the same way the weight cap does.
func (a *analyzer) contextDepth(fnID int) int {
	if d, ok := a.ctxDepth[fnID]; ok {
		return d
	}
	if a.ctxOnStack[fnID] {
		return 0
	}
	a.ctxOnStack[fnID] = true
	defer delete(a.ctxOnStack, fnID)

	depth := 0
	for _, c := range a.g.Calls {
		if c.Callee != fnID {
			continue
		}
		var d int
		if l := a.forest.InnermostAt(c.Block); l != nil {
			d = a.effDepth(l)
		} else {
			d = a.contextDepth(c.Caller)
		}
		if d > depth {
			depth = d
		}
	}
	a.ctxDepth[fnID] = depth
	return depth
}

// classifyBiases applies the condition idioms to every branch.
func (a *analyzer) classifyBiases(est *Estimate) {
	code := est.Prog.Code
	for id, pc := range est.Profile.PCs {
		inst := isa.IndexOf(pc)
		block := a.g.BlockOf(inst)
		l := a.forest.InnermostAt(block.ID)
		if l == nil || block.Terminator() != inst {
			continue
		}
		in := code[inst]
		target := a.g.BlockOf(inst + 1 + int(in.Imm)).ID

		// Loop-closing induction compare: a taken edge back to the
		// header of a containing loop, testing a register the loop
		// updates with addi r, r, c — the canonical counted-loop latch.
		if target == l.Header && in.Op == isa.OpBne && a.inductionReg(l, in.Rs) {
			est.Bias[id] = BiasTaken
			continue
		}
		// Loop exit: the taken target leaves every containing loop
		// level at or below l.
		if !l.Contains(target) && target != l.Header {
			est.Bias[id] = BiasNotTaken
		}
	}
}

// inductionReg reports whether r is updated as an induction variable
// (addi r, r, imm) anywhere in l's body.
func (a *analyzer) inductionReg(l *cfg.Loop, r isa.Reg) bool {
	code := a.g.Prog.Code
	for _, bi := range l.Blocks {
		b := a.g.Blocks[bi]
		for i := b.Start; i < b.End; i++ {
			in := code[i]
			if in.Op == isa.OpAddI && in.Rd == r && in.Rs == r {
				return true
			}
		}
	}
	return false
}

// Describe returns a one-line structural summary for reports.
func (e *Estimate) Describe() string {
	unknown, taken, notTaken := e.BiasCounts()
	return fmt.Sprintf("static estimate: %d branches (%d in loops, max depth %d); bias: %d taken, %d not-taken, %d unknown",
		len(e.Profile.PCs), e.LoopBranches(), e.MaxDepth(), taken, notTaken, unknown)
}
