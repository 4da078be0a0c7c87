package progcheck

import "repro/internal/isa"

// BranchClass classifies one static conditional-branch site by what
// decides its direction. Loop-control branches (latch, exit, guard)
// are decided by trip counts; resolved and dead branches are decided
// statically; everything left is data-dependent — the branches the
// paper's working-set analysis is really about, and the ones the
// branch-avoiding graph variants exist to eliminate.
type BranchClass uint8

const (
	// BranchData is the residual class: direction depends on runtime
	// data and matches no structural pattern below.
	BranchData BranchClass = iota
	// BranchLatch jumps back to the header of a loop containing it.
	BranchLatch
	// BranchExit leaves its innermost loop when taken.
	BranchExit
	// BranchGuard sits outside a loop and decides whether the loop is
	// entered at all (a zero-trip guard).
	BranchGuard
	// BranchResolved is proven one-directional by the interval analysis.
	BranchResolved
	// BranchDead is proven unreachable.
	BranchDead
)

func (c BranchClass) String() string {
	switch c {
	case BranchLatch:
		return "latch"
	case BranchExit:
		return "exit"
	case BranchGuard:
		return "guard"
	case BranchResolved:
		return "resolved"
	case BranchDead:
		return "dead"
	}
	return "data"
}

// BranchSummary counts a program's static conditional-branch sites by
// class.
type BranchSummary struct {
	Sites    int
	Latch    int
	Exit     int
	Guard    int
	Resolved int
	Dead     int
	Data     int
}

// ClassifyBranches classifies every static conditional-branch site.
// The returned map is keyed by instruction index. It requires a Report
// from a program that passed validation (Graph non-nil).
func (r *Report) ClassifyBranches() map[int]BranchClass {
	out := make(map[int]BranchClass)
	code := r.Prog.Code
	for i, in := range code {
		if !in.Op.IsCondBranch() {
			continue
		}
		out[i] = r.classify(i, in)
	}
	return out
}

func (r *Report) classify(i int, in isa.Inst) BranchClass {
	if r.Facts.Unreachable[i] {
		return BranchDead
	}
	if r.Facts.ResolvedKnown[i] {
		return BranchResolved
	}
	b := r.Graph.BlockOf(i)
	tk := r.Graph.BlockOf(i + 1 + int(in.Imm)).ID

	// Latch: the taken edge is a back edge to the header of a loop the
	// branch belongs to (innermost or enclosing).
	for _, l := range r.Forest.Loops {
		if l.Header == tk && l.Contains(b.ID) {
			return BranchLatch
		}
	}
	// Exit: taken leaves the innermost containing loop.
	if l := r.Forest.InnermostAt(b.ID); l != nil && !l.Contains(tk) {
		return BranchExit
	}
	// Guard: the branch is outside a loop whose header is one of its
	// successors — it decides whether the loop runs at all.
	for _, l := range r.Forest.Loops {
		if l.Contains(b.ID) {
			continue
		}
		if l.Header == tk {
			return BranchGuard
		}
		if i+1 < len(r.Prog.Code) && l.Header == r.Graph.BlockOf(i+1).ID {
			return BranchGuard
		}
	}
	return BranchData
}

// Summary aggregates the classification counts; it is zero for a
// report with no Graph (validation failed before analysis).
func (r *Report) Summary() BranchSummary {
	var s BranchSummary
	if r.Graph == nil {
		return s
	}
	for _, c := range r.ClassifyBranches() {
		s.Sites++
		switch c {
		case BranchLatch:
			s.Latch++
		case BranchExit:
			s.Exit++
		case BranchGuard:
			s.Guard++
		case BranchResolved:
			s.Resolved++
		case BranchDead:
			s.Dead++
		default:
			s.Data++
		}
	}
	return s
}
