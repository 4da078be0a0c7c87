package dataflow

// The register-interval lattice: one [Lo,Hi] bound per architectural
// register, propagated forward with conditional-branch edge refinement
// and widening. This is the abstract domain behind progcheck's
// constant propagation, memory-bounds, and resolved-branch analyses.
//
// Soundness contract: every abstract operation over-approximates the
// VM's concrete int64 semantics. Where the concrete operation can wrap
// (add, sub, mul, shifts), the abstract one detects the possible
// overflow and returns Full rather than a saturated bound — a
// saturated [big, MaxInt64] would exclude the wrapped-around negative
// value the machine actually computes.

import (
	"fmt"
	"math"

	"repro/internal/cfg"
	"repro/internal/isa"
)

// Interval bounds a 64-bit register value: Lo <= value <= Hi. The
// endpoints are ordinary int64s — [MinInt64, MaxInt64] already covers
// every representable value, so no separate infinities are needed.
type Interval struct {
	Lo, Hi int64
}

// Full is the unconstrained interval.
var Full = Interval{math.MinInt64, math.MaxInt64}

// Const returns the singleton interval {v}.
func Const(v int64) Interval { return Interval{v, v} }

// IsConst reports whether iv pins a single value, and which.
func (iv Interval) IsConst() (int64, bool) { return iv.Lo, iv.Lo == iv.Hi }

// Empty reports an unsatisfiable constraint (Lo > Hi), produced only
// by refinement along an infeasible branch edge.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Contains reports whether v satisfies the bound.
func (iv Interval) Contains(v int64) bool { return iv.Lo <= v && v <= iv.Hi }

// Join returns the smallest interval covering both operands.
func (iv Interval) Join(o Interval) Interval {
	if o.Lo < iv.Lo {
		iv.Lo = o.Lo
	}
	if o.Hi > iv.Hi {
		iv.Hi = o.Hi
	}
	return iv
}

// Intersect returns the values both bounds admit; possibly Empty.
func (iv Interval) Intersect(o Interval) Interval {
	if o.Lo > iv.Lo {
		iv.Lo = o.Lo
	}
	if o.Hi < iv.Hi {
		iv.Hi = o.Hi
	}
	return iv
}

func (iv Interval) String() string {
	if v, ok := iv.IsConst(); ok {
		return fmt.Sprintf("[%d]", v)
	}
	if iv == Full {
		return "[⊤]"
	}
	lo, hi := "-inf", "+inf"
	if iv.Lo != math.MinInt64 {
		lo = fmt.Sprint(iv.Lo)
	}
	if iv.Hi != math.MaxInt64 {
		hi = fmt.Sprint(iv.Hi)
	}
	return fmt.Sprintf("[%s,%s]", lo, hi)
}

// addIV returns the interval of a+b under wrapping int64 addition:
// exact bounds when neither endpoint sum overflows, Full otherwise.
func addIV(a, b Interval) Interval {
	lo, okLo := addChecked(a.Lo, b.Lo)
	hi, okHi := addChecked(a.Hi, b.Hi)
	if !okLo || !okHi {
		return Full
	}
	return Interval{lo, hi}
}

func addChecked(a, b int64) (int64, bool) {
	s := a + b
	// Overflow iff operands share a sign the sum lost.
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func subIV(a, b Interval) Interval {
	lo, okLo := subChecked(a.Lo, b.Hi)
	hi, okHi := subChecked(a.Hi, b.Lo)
	if !okLo || !okHi {
		return Full
	}
	return Interval{lo, hi}
}

func subChecked(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && a > 0 && d < 0) || (b > 0 && a < 0 && d >= 0) {
		return 0, false
	}
	return d, true
}

// mulSafe bounds operand magnitude so products of endpoints cannot
// overflow: |x|,|y| <= 2^31 gives |x·y| <= 2^62 < MaxInt64.
const mulSafe = int64(1) << 31

func mulIV(a, b Interval) Interval {
	if a.Lo < -mulSafe || a.Hi > mulSafe || b.Lo < -mulSafe || b.Hi > mulSafe {
		return Full
	}
	p1, p2, p3, p4 := a.Lo*b.Lo, a.Lo*b.Hi, a.Hi*b.Lo, a.Hi*b.Hi
	lo, hi := p1, p1
	for _, p := range [3]int64{p2, p3, p4} {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	return Interval{lo, hi}
}

// andIV: x & y lies in [0, m] whenever either operand is known
// nonnegative with upper bound m — the mask clears the sign bit and
// x&y <= min(x, y) for nonnegative operands.
func andIV(a, b Interval) Interval {
	hi, known := int64(math.MaxInt64), false
	if a.Lo >= 0 {
		hi, known = a.Hi, true
	}
	if b.Lo >= 0 && (b.Hi < hi || !known) {
		hi, known = b.Hi, true
	}
	if !known {
		return Full
	}
	return Interval{0, hi}
}

func shlIV(a Interval, imm int32) Interval {
	s := uint32(imm) & 63 // the VM masks the shift count the same way
	if s == 0 {
		return a
	}
	if a.Lo >= 0 && a.Hi <= math.MaxInt64>>s {
		return Interval{a.Lo << s, a.Hi << s}
	}
	return Full
}

func shrIV(a Interval, imm int32) Interval {
	s := uint32(imm) & 63
	if s == 0 {
		return a
	}
	if a.Lo >= 0 {
		return Interval{a.Lo >> s, a.Hi >> s}
	}
	// A negative operand reinterprets as a huge unsigned value; after a
	// nonzero logical shift the result is nonnegative.
	return Interval{0, math.MaxInt64}
}

func sltIV(a, b Interval) Interval {
	switch {
	case a.Hi < b.Lo:
		return Const(1)
	case a.Lo >= b.Hi:
		return Const(0)
	}
	return Interval{0, 1}
}

// Regs is the whole-machine interval fact: one bound per register plus
// a reachability bit. Live == false is the lattice's neutral element —
// "no execution reaches here" — absorbed by Meet and preserved by
// Transfer, which is what lets refinement-proven-infeasible edges make
// whole blocks unreachable.
type Regs struct {
	Live bool
	R    [isa.NumRegs]Interval
}

// Interval returns the bound on register r.
func (rs *Regs) Interval(r isa.Reg) Interval { return rs.R[r] }

// set writes an interval, preserving the hardwired zero register.
func (rs *Regs) set(r isa.Reg, iv Interval) {
	if r != isa.RZero {
		rs.R[r] = iv
	}
}

// havoc drops every bound except the hardwired zero register — the
// effect of returning from a call, which may have clobbered anything.
func (rs *Regs) havoc() {
	for i := 1; i < isa.NumRegs; i++ {
		rs.R[i] = Full
	}
}

// ExecInst applies the abstract transfer of the instruction at index
// idx to rs in place. It models exactly the VM's register effects;
// memory is not tracked, so loads produce Full.
func ExecInst(rs *Regs, idx int, in isa.Inst) {
	switch in.Op {
	case isa.OpAdd:
		rs.set(in.Rd, addIV(rs.R[in.Rs], rs.R[in.Rt]))
	case isa.OpSub:
		rs.set(in.Rd, subIV(rs.R[in.Rs], rs.R[in.Rt]))
	case isa.OpMul:
		rs.set(in.Rd, mulIV(rs.R[in.Rs], rs.R[in.Rt]))
	case isa.OpAnd:
		rs.set(in.Rd, andIV(rs.R[in.Rs], rs.R[in.Rt]))
	case isa.OpOr, isa.OpXor:
		rs.set(in.Rd, Full)
	case isa.OpSlt:
		rs.set(in.Rd, sltIV(rs.R[in.Rs], rs.R[in.Rt]))
	case isa.OpAddI:
		rs.set(in.Rd, addIV(rs.R[in.Rs], Const(int64(in.Imm))))
	case isa.OpAndI:
		rs.set(in.Rd, andIV(rs.R[in.Rs], Const(int64(in.Imm))))
	case isa.OpOrI, isa.OpXorI:
		rs.set(in.Rd, Full)
	case isa.OpSltI:
		rs.set(in.Rd, sltIV(rs.R[in.Rs], Const(int64(in.Imm))))
	case isa.OpShlI:
		rs.set(in.Rd, shlIV(rs.R[in.Rs], in.Imm))
	case isa.OpShrI:
		rs.set(in.Rd, shrIV(rs.R[in.Rs], in.Imm))
	case isa.OpLui:
		rs.set(in.Rd, Const(int64(in.Imm)<<16))
	case isa.OpLoad, isa.OpRand:
		rs.set(in.Rd, Full)
	case isa.OpCall:
		rs.set(isa.RRA, Const(int64(idx+1)))
	}
	// Stores, branches, jumps, ret, nop, halt write no register.
}

// AddrInterval returns the bound on the effective word address of the
// load or store in under rs.
func AddrInterval(rs *Regs, in isa.Inst) Interval {
	return addIV(rs.R[in.Rs], Const(int64(in.Imm)))
}

// ResolveBranch evaluates the conditional branch in under rs:
// +1 proven always taken, -1 proven never taken, 0 unknown.
func ResolveBranch(rs *Regs, in isa.Inst) int {
	a, b := rs.R[in.Rs], rs.R[in.Rt]
	switch in.Op {
	case isa.OpBeq:
		if av, aok := a.IsConst(); aok {
			if bv, bok := b.IsConst(); bok && av == bv {
				return +1
			}
		}
		if a.Intersect(b).Empty() {
			return -1
		}
	case isa.OpBne:
		if a.Intersect(b).Empty() {
			return +1
		}
		if av, aok := a.IsConst(); aok {
			if bv, bok := b.IsConst(); bok && av == bv {
				return -1
			}
		}
	case isa.OpBltz:
		if a.Hi < 0 {
			return +1
		}
		if a.Lo >= 0 {
			return -1
		}
	case isa.OpBgez:
		if a.Lo >= 0 {
			return +1
		}
		if a.Hi < 0 {
			return -1
		}
	}
	return 0
}

// RefineBranch narrows rs with the constraint that the conditional
// branch in resolved in the given direction. An unsatisfiable
// constraint (the edge is infeasible) comes back with Live == false.
func RefineBranch(rs Regs, in isa.Inst, taken bool) Regs {
	refute := func(iv Interval) Regs {
		if iv.Empty() {
			return Regs{}
		}
		return rs
	}
	switch in.Op {
	case isa.OpBeq, isa.OpBne:
		eq := (in.Op == isa.OpBeq) == taken
		a, b := rs.R[in.Rs], rs.R[in.Rt]
		if eq {
			m := a.Intersect(b)
			if m.Empty() {
				return Regs{}
			}
			rs.set(in.Rs, m)
			rs.set(in.Rt, m)
			return rs
		}
		// Known unequal: shaving is only sound against a constant bound.
		if bv, ok := b.IsConst(); ok {
			a = shaveNE(a, bv)
			if a.Empty() {
				return Regs{}
			}
			rs.set(in.Rs, a)
		} else if av, ok := a.IsConst(); ok {
			b = shaveNE(b, av)
			if b.Empty() {
				return Regs{}
			}
			rs.set(in.Rt, b)
		}
		return rs
	case isa.OpBltz:
		if taken {
			iv := rs.R[in.Rs].Intersect(Interval{math.MinInt64, -1})
			rs.set(in.Rs, iv)
			return refute(iv)
		}
		iv := rs.R[in.Rs].Intersect(Interval{0, math.MaxInt64})
		rs.set(in.Rs, iv)
		return refute(iv)
	case isa.OpBgez:
		if taken {
			iv := rs.R[in.Rs].Intersect(Interval{0, math.MaxInt64})
			rs.set(in.Rs, iv)
			return refute(iv)
		}
		iv := rs.R[in.Rs].Intersect(Interval{math.MinInt64, -1})
		rs.set(in.Rs, iv)
		return refute(iv)
	}
	return rs
}

// shaveNE removes v from iv when v sits on an endpoint; interior holes
// are not representable.
func shaveNE(iv Interval, v int64) Interval {
	if c, ok := iv.IsConst(); ok && c == v {
		return Interval{1, 0} // empty
	}
	if iv.Lo == v {
		iv.Lo++
	} else if iv.Hi == v {
		iv.Hi--
	}
	return iv
}

// Intervals is the forward register-interval problem for one function.
type Intervals struct {
	g  *cfg.Graph
	fn *cfg.Func
	// entry is the boundary fact: for the program entry function the VM
	// contract (all registers zeroed, RSP = memSize-1); for callees,
	// unknown registers except the hardwired zero.
	entry Regs
}

// NewIntervals builds the interval problem for fn. memWords is the
// machine's actual data size (vm.MemSize), which pins RSP at entry.
func NewIntervals(g *cfg.Graph, fn *cfg.Func, memWords int) *Intervals {
	p := &Intervals{g: g, fn: fn}
	p.entry.Live = true
	if fn.Entry == 0 {
		// The VM zeroes registers and memory and points RSP at the top
		// of memory before the first instruction.
		for i := range p.entry.R {
			p.entry.R[i] = Const(0)
		}
		p.entry.R[isa.RSP] = Const(int64(memWords - 1))
	} else {
		for i := range p.entry.R {
			p.entry.R[i] = Full
		}
		p.entry.R[isa.RZero] = Const(0)
	}
	return p
}

// Boundary implements Problem.
func (p *Intervals) Boundary() Regs { return p.entry }

// Top implements Problem: the unreachable fact.
func (p *Intervals) Top() Regs { return Regs{} }

// Meet implements Problem: interval hull per register; unreachable is
// the neutral element.
func (p *Intervals) Meet(a, b Regs) Regs {
	if !a.Live {
		return b
	}
	if !b.Live {
		return a
	}
	for i := range a.R {
		a.R[i] = a.R[i].Join(b.R[i])
	}
	return a
}

// Equal implements Problem.
func (p *Intervals) Equal(a, b Regs) bool {
	if a.Live != b.Live {
		return false
	}
	if !a.Live {
		return true
	}
	return a.R == b.R
}

// Transfer implements Problem: the block's instructions in order, plus
// the call-clobber havoc when the block ends in a call.
func (p *Intervals) Transfer(b *cfg.Block, in Regs) Regs {
	if !in.Live {
		return in
	}
	code := p.g.Prog.Code
	for i := b.Start; i < b.End; i++ {
		ExecInst(&in, i, code[i])
	}
	if code[b.Terminator()].Op == isa.OpCall {
		// The fact flowing to the fallthrough successor describes the
		// state after the callee returns, which may have written any
		// register.
		in.havoc()
	}
	return in
}

// TransferEdge implements EdgeRefiner: conditional-branch outcomes
// narrow the tested registers, and contradictions kill the edge.
func (p *Intervals) TransferEdge(b *cfg.Block, succIdx int, out Regs) Regs {
	if !out.Live {
		return out
	}
	t := b.Terminator()
	in := p.g.Prog.Code[t]
	if !in.Op.IsCondBranch() {
		return out
	}
	// Successor order is fallthrough first, then taken — unless the
	// branch is the last instruction, where only the taken edge exists.
	taken := succIdx == 1 || t+1 >= len(p.g.Prog.Code)
	return RefineBranch(out, in, taken)
}

// Widen implements Widener: an endpoint still moving after widenAfter
// visits goes straight to its extreme, bounding every chain.
func (p *Intervals) Widen(prev, next Regs) Regs {
	if !prev.Live || !next.Live {
		return next
	}
	for i := range next.R {
		if next.R[i].Lo < prev.R[i].Lo {
			next.R[i].Lo = math.MinInt64
		}
		if next.R[i].Hi > prev.R[i].Hi {
			next.R[i].Hi = math.MaxInt64
		}
	}
	return next
}
