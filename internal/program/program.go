// Package program represents executable programs for the simulated
// machine and provides a builder for constructing them.
//
// A Program is a flat sequence of isa.Inst. The Builder offers labels and
// forward references so generators can emit structured control flow
// (loops, if/else ladders, calls) without tracking indices by hand, and a
// Validate pass that checks every control transfer lands inside the
// program. Package workload builds its synthetic benchmark suite on top
// of this API, and examples/customworkload shows it used directly.
package program

import (
	"fmt"

	"repro/internal/isa"
)

// Program is an executable image for the vm.
type Program struct {
	// Name identifies the program in reports and traces.
	Name string
	// Code is the instruction sequence; instruction i has PC isa.PCOf(i).
	Code []isa.Inst
	// MemWords is the data memory size, in 8-byte words, the program
	// expects. The vm allocates at least this much.
	MemWords int
}

// NumCondBranches returns the number of static conditional branch sites.
func (p *Program) NumCondBranches() int {
	n := 0
	for _, in := range p.Code {
		if in.Op.IsCondBranch() {
			n++
		}
	}
	return n
}

// CondBranchPCs returns the byte PCs of all static conditional branches,
// in program order.
func (p *Program) CondBranchPCs() []uint64 {
	pcs := make([]uint64, 0, 64)
	for i, in := range p.Code {
		if in.Op.IsCondBranch() {
			pcs = append(pcs, isa.PCOf(i))
		}
	}
	return pcs
}

// Validate checks structural invariants: defined opcodes, in-range
// registers, control transfers that stay inside the program, and
// conditional branches whose taken and fallthrough targets differ.
func (p *Program) Validate() error {
	n := len(p.Code)
	if n == 0 {
		return fmt.Errorf("program %q: empty code", p.Name)
	}
	for i, in := range p.Code {
		if !in.Op.Valid() {
			return fmt.Errorf("program %q: inst %d: invalid opcode %d", p.Name, i, uint8(in.Op))
		}
		if in.Rd >= isa.NumRegs || in.Rs >= isa.NumRegs || in.Rt >= isa.NumRegs {
			return fmt.Errorf("program %q: inst %d: register out of range: %v", p.Name, i, in)
		}
		switch in.Op {
		case isa.OpBeq, isa.OpBne, isa.OpBltz, isa.OpBgez:
			t := i + 1 + int(in.Imm)
			if t < 0 || t >= n {
				return fmt.Errorf("program %q: inst %d: branch target %d out of range [0,%d)", p.Name, i, t, n)
			}
			// A conditional branch whose taken target is its own
			// fallthrough (Imm == 0) transfers control identically either
			// way: it contributes a CFG node with one real successor and
			// poisons the static conflict estimate, so it is rejected like
			// any other malformed transfer.
			if in.Imm == 0 {
				return fmt.Errorf("program %q: inst %d: degenerate conditional branch: taken target equals fallthrough", p.Name, i)
			}
		case isa.OpJump, isa.OpCall:
			t := int(in.Imm)
			if t < 0 || t >= n {
				return fmt.Errorf("program %q: inst %d: jump target %d out of range [0,%d)", p.Name, i, t, n)
			}
		}
	}
	if p.MemWords < 0 {
		return fmt.Errorf("program %q: negative MemWords %d", p.Name, p.MemWords)
	}
	return nil
}

// Label is a position in a program under construction. Labels are handed
// out by Builder.NewLabel and become concrete at Bind time; branch and
// jump instructions may reference labels before they are bound.
type Label int

// Builder constructs a Program incrementally.
type Builder struct {
	name     string
	code     []isa.Inst
	memWords int

	// labelPos[l] is the instruction index a label is bound to, or -1.
	labelPos []int
	// fixups records instructions whose Imm awaits a label binding.
	fixups []fixup
	err    error
}

type fixup struct {
	inst  int   // index of the instruction to patch
	label Label // the referenced label
	// rel is true for PC-relative patches (conditional branches) and
	// false for absolute ones (jump/call).
	rel bool
}

// NewBuilder returns a Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// Err returns the first error recorded during construction, if any.
// Builder methods are no-ops after an error, so generators can emit
// freely and check once.
func (b *Builder) Err() error { return b.err }

func (b *Builder) setErr(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("builder %q: "+format, append([]any{b.name}, args...)...)
	}
}

// ReserveMem ensures the program's data memory is at least words words.
func (b *Builder) ReserveMem(words int) {
	if words > b.memWords {
		b.memWords = words
	}
}

// NewLabel allocates an unbound label.
func (b *Builder) NewLabel() Label {
	b.labelPos = append(b.labelPos, -1)
	return Label(len(b.labelPos) - 1)
}

// Bind binds l to the current position. A label may be bound only once.
func (b *Builder) Bind(l Label) {
	if b.err != nil {
		return
	}
	if int(l) >= len(b.labelPos) {
		b.setErr("bind of unknown label %d", l)
		return
	}
	if b.labelPos[l] != -1 {
		b.setErr("label %d bound twice", l)
		return
	}
	b.labelPos[l] = len(b.code)
}

// Here returns a label bound to the current position.
func (b *Builder) Here() Label {
	l := b.NewLabel()
	b.Bind(l)
	return l
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) {
	if b.err != nil {
		return
	}
	b.code = append(b.code, in)
}

// --- ALU and data-movement conveniences ---

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.OpNop}) }

// Nops emits n no-ops; generators use them to pad basic blocks so that
// dynamic instruction counts (the analysis time base) resemble real code
// where branches are a fraction of all instructions.
func (b *Builder) Nops(n int) {
	for i := 0; i < n; i++ {
		b.Nop()
	}
}

// Add emits rd = rs + rt.
func (b *Builder) Add(rd, rs, rt isa.Reg) { b.Emit(isa.Inst{Op: isa.OpAdd, Rd: rd, Rs: rs, Rt: rt}) }

// Sub emits rd = rs - rt.
func (b *Builder) Sub(rd, rs, rt isa.Reg) { b.Emit(isa.Inst{Op: isa.OpSub, Rd: rd, Rs: rs, Rt: rt}) }

// Mul emits rd = rs * rt.
func (b *Builder) Mul(rd, rs, rt isa.Reg) { b.Emit(isa.Inst{Op: isa.OpMul, Rd: rd, Rs: rs, Rt: rt}) }

// And emits rd = rs & rt.
func (b *Builder) And(rd, rs, rt isa.Reg) { b.Emit(isa.Inst{Op: isa.OpAnd, Rd: rd, Rs: rs, Rt: rt}) }

// Or emits rd = rs | rt.
func (b *Builder) Or(rd, rs, rt isa.Reg) { b.Emit(isa.Inst{Op: isa.OpOr, Rd: rd, Rs: rs, Rt: rt}) }

// Xor emits rd = rs ^ rt.
func (b *Builder) Xor(rd, rs, rt isa.Reg) { b.Emit(isa.Inst{Op: isa.OpXor, Rd: rd, Rs: rs, Rt: rt}) }

// Slt emits rd = (rs < rt) ? 1 : 0.
func (b *Builder) Slt(rd, rs, rt isa.Reg) { b.Emit(isa.Inst{Op: isa.OpSlt, Rd: rd, Rs: rs, Rt: rt}) }

// AddI emits rd = rs + imm.
func (b *Builder) AddI(rd, rs isa.Reg, imm int32) {
	b.Emit(isa.Inst{Op: isa.OpAddI, Rd: rd, Rs: rs, Imm: imm})
}

// AndI emits rd = rs & imm.
func (b *Builder) AndI(rd, rs isa.Reg, imm int32) {
	b.Emit(isa.Inst{Op: isa.OpAndI, Rd: rd, Rs: rs, Imm: imm})
}

// OrI emits rd = rs | imm.
func (b *Builder) OrI(rd, rs isa.Reg, imm int32) {
	b.Emit(isa.Inst{Op: isa.OpOrI, Rd: rd, Rs: rs, Imm: imm})
}

// XorI emits rd = rs ^ imm.
func (b *Builder) XorI(rd, rs isa.Reg, imm int32) {
	b.Emit(isa.Inst{Op: isa.OpXorI, Rd: rd, Rs: rs, Imm: imm})
}

// SltI emits rd = (rs < imm) ? 1 : 0.
func (b *Builder) SltI(rd, rs isa.Reg, imm int32) {
	b.Emit(isa.Inst{Op: isa.OpSltI, Rd: rd, Rs: rs, Imm: imm})
}

// ShlI emits rd = rs << imm.
func (b *Builder) ShlI(rd, rs isa.Reg, imm int32) {
	b.Emit(isa.Inst{Op: isa.OpShlI, Rd: rd, Rs: rs, Imm: imm})
}

// ShrI emits rd = rs >> imm (logical).
func (b *Builder) ShrI(rd, rs isa.Reg, imm int32) {
	b.Emit(isa.Inst{Op: isa.OpShrI, Rd: rd, Rs: rs, Imm: imm})
}

// LoadImm emits instructions setting rd to the 32-bit constant v.
func (b *Builder) LoadImm(rd isa.Reg, v int32) {
	// addi rd, zero, v fits any int32 because Imm is int32.
	b.AddI(rd, isa.RZero, v)
}

// Load emits rd = mem[rs+imm].
func (b *Builder) Load(rd, rs isa.Reg, imm int32) {
	b.Emit(isa.Inst{Op: isa.OpLoad, Rd: rd, Rs: rs, Imm: imm})
}

// Store emits mem[rs+imm] = rt.
func (b *Builder) Store(rt, rs isa.Reg, imm int32) {
	b.Emit(isa.Inst{Op: isa.OpStore, Rt: rt, Rs: rs, Imm: imm})
}

// Rand emits rd = next pseudo-random value (models input data).
func (b *Builder) Rand(rd isa.Reg) { b.Emit(isa.Inst{Op: isa.OpRand, Rd: rd}) }

// --- control flow ---

func (b *Builder) emitBranch(op isa.Op, rs, rt isa.Reg, target Label) {
	if b.err != nil {
		return
	}
	idx := len(b.code)
	b.code = append(b.code, isa.Inst{Op: op, Rs: rs, Rt: rt})
	b.fixups = append(b.fixups, fixup{inst: idx, label: target, rel: true})
}

// Beq emits a branch to target if rs == rt.
func (b *Builder) Beq(rs, rt isa.Reg, target Label) { b.emitBranch(isa.OpBeq, rs, rt, target) }

// Bne emits a branch to target if rs != rt.
func (b *Builder) Bne(rs, rt isa.Reg, target Label) { b.emitBranch(isa.OpBne, rs, rt, target) }

// Bltz emits a branch to target if rs < 0.
func (b *Builder) Bltz(rs isa.Reg, target Label) { b.emitBranch(isa.OpBltz, rs, 0, target) }

// Bgez emits a branch to target if rs >= 0.
func (b *Builder) Bgez(rs isa.Reg, target Label) { b.emitBranch(isa.OpBgez, rs, 0, target) }

// Jump emits an unconditional jump to target.
func (b *Builder) Jump(target Label) {
	if b.err != nil {
		return
	}
	idx := len(b.code)
	b.code = append(b.code, isa.Inst{Op: isa.OpJump})
	b.fixups = append(b.fixups, fixup{inst: idx, label: target})
}

// Call emits a call to target; the return index is written to ra.
func (b *Builder) Call(target Label) {
	if b.err != nil {
		return
	}
	idx := len(b.code)
	b.code = append(b.code, isa.Inst{Op: isa.OpCall})
	b.fixups = append(b.fixups, fixup{inst: idx, label: target})
}

// Ret emits an indirect jump through ra.
func (b *Builder) Ret() { b.Emit(isa.Inst{Op: isa.OpRet, Rs: isa.RRA}) }

// RetVia emits an indirect jump through rs.
func (b *Builder) RetVia(rs isa.Reg) { b.Emit(isa.Inst{Op: isa.OpRet, Rs: rs}) }

// Halt emits a machine stop.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.OpHalt}) }

// Build resolves all label references and returns the finished,
// validated program.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, f := range b.fixups {
		pos := b.labelPos[f.label]
		if pos == -1 {
			return nil, fmt.Errorf("builder %q: inst %d references unbound label %d", b.name, f.inst, f.label)
		}
		if f.rel {
			b.code[f.inst].Imm = int32(pos - (f.inst + 1))
		} else {
			b.code[f.inst].Imm = int32(pos)
		}
	}
	p := &Program{Name: b.name, Code: b.code, MemWords: b.memWords}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
