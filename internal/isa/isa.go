// Package isa defines the instruction set of the simulated machine.
//
// The machine is a small load/store RISC with 32 general-purpose 64-bit
// registers. It exists to give branch-prediction experiments a realistic
// substrate: programs are sequences of instruction words at 4-byte PCs,
// conditional branches test register values computed by ordinary ALU and
// memory traffic, and the interpreter in package vm retires instructions
// one at a time, which provides the instruction-count time stamps the
// working-set analysis consumes.
//
// The ISA deliberately resembles SimpleScalar's PISA at the level the
// paper depends on: fixed-width instructions, PC-relative conditional
// branches, direct jumps and calls, and a register-indirect return.
package isa

import "fmt"

// Reg names a general-purpose register. R0 is hardwired to zero, as on
// MIPS; writes to it are discarded.
type Reg uint8

// NumRegs is the size of the architectural register file.
const NumRegs = 32

// Conventional register roles used by the program builder. They are
// conventions only; the hardware treats all registers (except R0)
// identically.
const (
	RZero Reg = 0  // always zero
	RSP   Reg = 29 // stack pointer
	RRA   Reg = 31 // return address (written by CALL)
)

func (r Reg) String() string {
	switch r {
	case RZero:
		return "zero"
	case RSP:
		return "sp"
	case RRA:
		return "ra"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Op is an operation code.
type Op uint8

// Operation codes. The set is intentionally small: enough arithmetic to
// compute interesting branch conditions, memory operations to generate
// data-dependent control flow, and the full set of control transfers.
const (
	OpNop Op = iota

	// ALU, register-register: rd = rs OP rt.
	OpAdd
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpSlt // rd = (rs < rt) ? 1 : 0, signed

	// ALU, register-immediate: rd = rs OP imm.
	OpAddI
	OpAndI
	OpOrI
	OpXorI
	OpSltI
	OpShlI
	OpShrI

	// OpLui loads imm into the upper half: rd = imm << 16.
	OpLui

	// Memory: address is rs + imm, 8-byte words.
	OpLoad  // rd = mem[rs+imm]
	OpStore // mem[rs+imm] = rt

	// OpRand writes a deterministic pseudo-random value to rd. It models
	// data-dependent values (input bytes, hash results) without needing
	// real input files; the stream is seeded per program run.
	OpRand

	// Control transfers. Branch targets are instruction-index offsets
	// relative to the next instruction, stored in imm.
	OpBeq  // branch if rs == rt
	OpBne  // branch if rs != rt
	OpBltz // branch if rs < 0
	OpBgez // branch if rs >= 0
	OpJump // unconditional direct jump to absolute instruction index imm
	OpCall // direct call: ra = return index; jump to imm
	OpRet  // indirect jump to rs (conventionally ra)

	// OpHalt stops the machine.
	OpHalt

	numOps
)

var opNames = [...]string{
	OpNop:   "nop",
	OpAdd:   "add",
	OpSub:   "sub",
	OpMul:   "mul",
	OpAnd:   "and",
	OpOr:    "or",
	OpXor:   "xor",
	OpSlt:   "slt",
	OpAddI:  "addi",
	OpAndI:  "andi",
	OpOrI:   "ori",
	OpXorI:  "xori",
	OpSltI:  "slti",
	OpShlI:  "shli",
	OpShrI:  "shri",
	OpLui:   "lui",
	OpLoad:  "ld",
	OpStore: "st",
	OpRand:  "rand",
	OpBeq:   "beq",
	OpBne:   "bne",
	OpBltz:  "bltz",
	OpBgez:  "bgez",
	OpJump:  "j",
	OpCall:  "call",
	OpRet:   "ret",
	OpHalt:  "halt",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined operation code.
func (op Op) Valid() bool { return op < numOps }

// IsCondBranch reports whether op is a conditional branch. These are the
// instructions the working-set analysis and the predictors observe.
func (op Op) IsCondBranch() bool {
	switch op {
	case OpBeq, OpBne, OpBltz, OpBgez:
		return true
	}
	return false
}

// Inst is one instruction word. Instructions occupy 4 bytes of address
// space each; the PC of instruction i is 4*i plus the program base.
type Inst struct {
	Op  Op
	Rd  Reg
	Rs  Reg
	Rt  Reg
	Imm int32
}

// String renders the instruction in an assembly-like syntax.
func (in Inst) String() string {
	switch in.Op {
	case OpNop, OpHalt:
		return in.Op.String()
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpSlt:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs, in.Rt)
	case OpAddI, OpAndI, OpOrI, OpXorI, OpSltI, OpShlI, OpShrI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs, in.Imm)
	case OpLui:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
	case OpLoad:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs)
	case OpStore:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rt, in.Imm, in.Rs)
	case OpRand:
		return fmt.Sprintf("%s %s", in.Op, in.Rd)
	case OpBeq, OpBne:
		return fmt.Sprintf("%s %s, %s, %+d", in.Op, in.Rs, in.Rt, in.Imm)
	case OpBltz, OpBgez:
		return fmt.Sprintf("%s %s, %+d", in.Op, in.Rs, in.Imm)
	case OpJump, OpCall:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	case OpRet:
		return fmt.Sprintf("%s %s", in.Op, in.Rs)
	}
	return fmt.Sprintf("%s ?", in.Op)
}

// PCBytes is the address-space footprint of one instruction. Branch
// predictors index their tables with PC>>2, matching real machines.
const PCBytes = 4

// PCOf returns the byte address of the instruction at index idx.
func PCOf(idx int) uint64 { return uint64(idx) * PCBytes }

// IndexOf returns the instruction index of byte address pc.
func IndexOf(pc uint64) int { return int(pc / PCBytes) }
