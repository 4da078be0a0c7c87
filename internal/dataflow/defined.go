package dataflow

// May-defined registers: which registers some path from the function
// entry has written by each program point. Package progcheck reads it
// inversely — a register read on no path from a write or the entry
// state is an uninitialized-register read.

import (
	"repro/internal/cfg"
	"repro/internal/isa"
)

// RegSet is a set of architectural registers; bit r is register r.
type RegSet uint32

// Has reports whether r is in s. The hardwired zero register is in
// every set: reading it is always defined.
func (s RegSet) Has(r isa.Reg) bool {
	return r == isa.RZero || s&(1<<r) != 0
}

// Define advances s past instruction in: a call defines every register
// (the callee may have written any of them), and any other register
// write defines its destination.
func Define(s RegSet, in isa.Inst) RegSet {
	if in.Op == isa.OpCall {
		return ^RegSet(0)
	}
	if r, ok := writtenReg(in); ok {
		s |= 1 << r
	}
	return s
}

// writtenReg returns the register in defines, or false for
// instructions with no register effect. Writes to the hardwired zero
// register are discarded by the machine and so define nothing.
func writtenReg(in isa.Inst) (isa.Reg, bool) {
	switch in.Op {
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSlt,
		isa.OpAddI, isa.OpAndI, isa.OpOrI, isa.OpXorI, isa.OpSltI, isa.OpShlI, isa.OpShrI,
		isa.OpLui, isa.OpLoad, isa.OpRand:
		if in.Rd == isa.RZero {
			return 0, false
		}
		return in.Rd, true
	}
	return 0, false
}

// ReadRegs appends the registers instruction in reads to buf and
// returns it. The hardwired zero register is never reported — reading
// it is always defined.
func ReadRegs(in isa.Inst, buf []isa.Reg) []isa.Reg {
	add := func(r isa.Reg) {
		if r != isa.RZero {
			buf = append(buf, r)
		}
	}
	switch in.Op {
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSlt,
		isa.OpBeq, isa.OpBne:
		add(in.Rs)
		add(in.Rt)
	case isa.OpAddI, isa.OpAndI, isa.OpOrI, isa.OpXorI, isa.OpSltI, isa.OpShlI, isa.OpShrI,
		isa.OpLoad, isa.OpBltz, isa.OpBgez, isa.OpRet:
		add(in.Rs)
	case isa.OpStore:
		add(in.Rs)
		add(in.Rt)
	}
	return buf
}

// Defined is the forward may-defined problem for one function: the
// fact is the set of registers written on some path from the entry,
// and meet is union.
type Defined struct {
	code []isa.Inst
	// entry is the boundary fact: the registers holding a defined value
	// at function entry.
	entry RegSet
}

// NewDefined builds the may-defined problem over g's program with
// entry as the set of registers defined at function entry.
func NewDefined(g *cfg.Graph, entry RegSet) *Defined {
	return &Defined{code: g.Prog.Code, entry: entry}
}

// Boundary implements Problem.
func (p *Defined) Boundary() RegSet { return p.entry }

// Top implements Problem: the empty set, union's neutral element.
func (p *Defined) Top() RegSet { return 0 }

// Meet implements Problem: set union.
func (p *Defined) Meet(a, b RegSet) RegSet { return a | b }

// Equal implements Problem.
func (p *Defined) Equal(a, b RegSet) bool { return a == b }

// Transfer implements Problem: Define over the block's instructions.
func (p *Defined) Transfer(b *cfg.Block, s RegSet) RegSet {
	for i := b.Start; i < b.End; i++ {
		s = Define(s, p.code[i])
	}
	return s
}
