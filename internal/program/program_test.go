package program

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func mustBuild(t *testing.T, b *Builder) *Program {
	t.Helper()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func TestBuilderSimpleProgram(t *testing.T) {
	b := NewBuilder("t")
	b.LoadImm(1, 42)
	b.Halt()
	p := mustBuild(t, b)
	if len(p.Code) != 2 {
		t.Fatalf("len = %d, want 2", len(p.Code))
	}
	if p.Code[0].Op != isa.OpAddI || p.Code[0].Imm != 42 {
		t.Fatalf("LoadImm emitted %v", p.Code[0])
	}
	if p.Code[1].Op != isa.OpHalt {
		t.Fatalf("Halt emitted %v", p.Code[1])
	}
}

func TestBuilderBackwardBranch(t *testing.T) {
	b := NewBuilder("t")
	b.LoadImm(1, 3)
	top := b.Here()
	b.AddI(1, 1, -1)
	b.Bne(1, isa.RZero, top)
	b.Halt()
	p := mustBuild(t, b)
	br := p.Code[2]
	if br.Op != isa.OpBne {
		t.Fatalf("expected bne, got %v", br)
	}
	// Branch at index 2; target index 1 => offset 1 - 3 = -2.
	if br.Imm != -2 {
		t.Fatalf("backward offset = %d, want -2", br.Imm)
	}
}

func TestBuilderForwardBranch(t *testing.T) {
	b := NewBuilder("t")
	end := b.NewLabel()
	b.Beq(isa.RZero, isa.RZero, end)
	b.Nop()
	b.Nop()
	b.Bind(end)
	b.Halt()
	p := mustBuild(t, b)
	if p.Code[0].Imm != 2 {
		t.Fatalf("forward offset = %d, want 2", p.Code[0].Imm)
	}
}

func TestBuilderJumpAndCallAbsolute(t *testing.T) {
	b := NewBuilder("t")
	fn := b.NewLabel()
	b.Call(fn)
	b.Halt()
	b.Bind(fn)
	b.Ret()
	p := mustBuild(t, b)
	if p.Code[0].Op != isa.OpCall || p.Code[0].Imm != 2 {
		t.Fatalf("call = %v, want target 2", p.Code[0])
	}
}

func TestBuilderUnboundLabelFails(t *testing.T) {
	b := NewBuilder("t")
	l := b.NewLabel()
	b.Jump(l)
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "unbound label") {
		t.Fatalf("expected unbound label error, got %v", err)
	}
}

func TestBuilderDoubleBindFails(t *testing.T) {
	b := NewBuilder("t")
	l := b.NewLabel()
	b.Bind(l)
	b.Bind(l)
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "bound twice") {
		t.Fatalf("expected double-bind error, got %v", err)
	}
}

func TestBuilderErrSticks(t *testing.T) {
	b := NewBuilder("t")
	l := b.NewLabel()
	b.Bind(l)
	b.Bind(l) // first error
	b.Nop()   // should be ignored
	if b.Err() == nil {
		t.Fatal("Err() nil after double bind")
	}
	if len(b.code) != 0 {
		t.Fatalf("emits after error were not ignored: len=%d", len(b.code))
	}
}

func TestBuilderEmptyProgramFails(t *testing.T) {
	if _, err := NewBuilder("t").Build(); err == nil {
		t.Fatal("empty program built without error")
	}
}

func TestValidateBranchOutOfRange(t *testing.T) {
	p := &Program{Name: "t", Code: []isa.Inst{
		{Op: isa.OpBeq, Imm: 100},
		{Op: isa.OpHalt},
	}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "branch target") {
		t.Fatalf("expected branch range error, got %v", err)
	}
}

func TestValidateJumpOutOfRange(t *testing.T) {
	p := &Program{Name: "t", Code: []isa.Inst{
		{Op: isa.OpJump, Imm: -1},
		{Op: isa.OpHalt},
	}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "jump target") {
		t.Fatalf("expected jump range error, got %v", err)
	}
}

func TestValidateDegenerateCondBranch(t *testing.T) {
	// Imm == 0: the taken target is the fallthrough instruction, so the
	// "branch" transfers control identically either way.
	p := &Program{Name: "t", Code: []isa.Inst{
		{Op: isa.OpBne, Imm: 0},
		{Op: isa.OpHalt},
	}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "degenerate conditional branch") {
		t.Fatalf("expected degenerate-branch error, got %v", err)
	}
	// A branch with a distinct target (here: itself) stays valid.
	p.Code[0].Imm = -1
	if err := p.Validate(); err != nil {
		t.Fatalf("distinct-target branch rejected: %v", err)
	}
}

func TestValidateBadOpcode(t *testing.T) {
	p := &Program{Name: "t", Code: []isa.Inst{{Op: isa.Op(200)}}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "invalid opcode") {
		t.Fatalf("expected opcode error, got %v", err)
	}
}

func TestValidateBadRegister(t *testing.T) {
	p := &Program{Name: "t", Code: []isa.Inst{{Op: isa.OpAdd, Rd: 40}}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "register") {
		t.Fatalf("expected register error, got %v", err)
	}
}

func TestValidateNegativeMem(t *testing.T) {
	p := &Program{Name: "t", Code: []isa.Inst{{Op: isa.OpHalt}}, MemWords: -1}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "MemWords") {
		t.Fatalf("expected MemWords error, got %v", err)
	}
}

func TestCondBranchAccounting(t *testing.T) {
	b := NewBuilder("t")
	l := b.NewLabel()
	b.Beq(1, 2, l)
	b.Bne(1, 2, l)
	b.Bltz(1, l)
	b.Bgez(1, l)
	b.Nop() // keep the last branch's taken target distinct from fallthrough
	b.Bind(l)
	b.Jump(l) // not a conditional branch
	b.Halt()
	p := mustBuild(t, b)
	if n := p.NumCondBranches(); n != 4 {
		t.Fatalf("NumCondBranches = %d, want 4", n)
	}
	pcs := p.CondBranchPCs()
	if len(pcs) != 4 {
		t.Fatalf("CondBranchPCs len = %d, want 4", len(pcs))
	}
	for i, pc := range pcs {
		if pc != isa.PCOf(i) {
			t.Fatalf("pc[%d] = %d, want %d", i, pc, isa.PCOf(i))
		}
	}
}

func TestReserveMem(t *testing.T) {
	b := NewBuilder("t")
	b.ReserveMem(100)
	b.ReserveMem(50) // should not shrink
	b.Halt()
	p := mustBuild(t, b)
	if p.MemWords != 100 {
		t.Fatalf("MemWords = %d, want 100", p.MemWords)
	}
}

func TestEmittersProduceExpectedOps(t *testing.T) {
	b := NewBuilder("t")
	b.Add(1, 2, 3)
	b.Sub(1, 2, 3)
	b.Mul(1, 2, 3)
	b.And(1, 2, 3)
	b.Or(1, 2, 3)
	b.Xor(1, 2, 3)
	b.Slt(1, 2, 3)
	b.AddI(1, 2, 4)
	b.AndI(1, 2, 4)
	b.OrI(1, 2, 4)
	b.XorI(1, 2, 4)
	b.SltI(1, 2, 4)
	b.ShlI(1, 2, 4)
	b.ShrI(1, 2, 4)
	b.Load(1, 2, 4)
	b.Store(1, 2, 4)
	b.Rand(1)
	b.Halt()
	p := mustBuild(t, b)
	want := []isa.Op{
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSlt,
		isa.OpAddI, isa.OpAndI, isa.OpOrI, isa.OpXorI, isa.OpSltI, isa.OpShlI, isa.OpShrI,
		isa.OpLoad, isa.OpStore, isa.OpRand, isa.OpHalt,
	}
	for i, op := range want {
		if p.Code[i].Op != op {
			t.Errorf("inst %d = %v, want op %v", i, p.Code[i], op)
		}
	}
}

func TestNopsCount(t *testing.T) {
	b := NewBuilder("t")
	b.Nops(5)
	b.Halt()
	p := mustBuild(t, b)
	if len(p.Code) != 6 {
		t.Fatalf("len = %d, want 6", len(p.Code))
	}
}

func TestRetVia(t *testing.T) {
	b := NewBuilder("t")
	b.RetVia(7)
	b.Halt()
	p := mustBuild(t, b)
	if p.Code[0].Op != isa.OpRet || p.Code[0].Rs != 7 {
		t.Fatalf("RetVia emitted %v", p.Code[0])
	}
}

func TestBindUnknownLabelErrors(t *testing.T) {
	b := NewBuilder("t")
	b.Bind(Label(99))
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("bind of unknown label did not error")
	}
}
