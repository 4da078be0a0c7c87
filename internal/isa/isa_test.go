package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := map[Reg]string{
		RZero:  "zero",
		RSP:    "sp",
		RRA:    "ra",
		Reg(5): "r5",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", uint8(r), got, want)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpAdd.String() != "add" {
		t.Errorf("OpAdd = %q", OpAdd.String())
	}
	if OpBeq.String() != "beq" {
		t.Errorf("OpBeq = %q", OpBeq.String())
	}
	if !strings.Contains(Op(200).String(), "200") {
		t.Errorf("unknown op string %q should embed the code", Op(200).String())
	}
}

func TestOpValid(t *testing.T) {
	if !OpNop.Valid() || !OpHalt.Valid() {
		t.Error("defined ops reported invalid")
	}
	if Op(250).Valid() {
		t.Error("op 250 reported valid")
	}
}

func TestIsCondBranch(t *testing.T) {
	cond := []Op{OpBeq, OpBne, OpBltz, OpBgez}
	for _, op := range cond {
		if !op.IsCondBranch() {
			t.Errorf("%v not reported as conditional branch", op)
		}
	}
	notCond := []Op{OpNop, OpAdd, OpJump, OpCall, OpRet, OpHalt, OpLoad}
	for _, op := range notCond {
		if op.IsCondBranch() {
			t.Errorf("%v wrongly reported as conditional branch", op)
		}
	}
}

func TestPCRoundTrip(t *testing.T) {
	f := func(idx uint16) bool {
		return IndexOf(PCOf(int(idx))) == int(idx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPCAlignment(t *testing.T) {
	for i := 0; i < 100; i++ {
		if PCOf(i)%PCBytes != 0 {
			t.Fatalf("PCOf(%d) = %d not aligned", i, PCOf(i))
		}
	}
}

func TestInstStringForms(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpNop}, "nop"},
		{Inst{Op: OpHalt}, "halt"},
		{Inst{Op: OpAdd, Rd: 1, Rs: 2, Rt: 3}, "add r1, r2, r3"},
		{Inst{Op: OpAddI, Rd: 1, Rs: 2, Imm: -5}, "addi r1, r2, -5"},
		{Inst{Op: OpLui, Rd: 4, Imm: 7}, "lui r4, 7"},
		{Inst{Op: OpLoad, Rd: 1, Rs: RSP, Imm: 8}, "ld r1, 8(sp)"},
		{Inst{Op: OpStore, Rt: 1, Rs: RSP, Imm: 8}, "st r1, 8(sp)"},
		{Inst{Op: OpRand, Rd: 9}, "rand r9"},
		{Inst{Op: OpBeq, Rs: 1, Rt: 2, Imm: 3}, "beq r1, r2, +3"},
		{Inst{Op: OpBltz, Rs: 1, Imm: -2}, "bltz r1, -2"},
		{Inst{Op: OpJump, Imm: 10}, "j 10"},
		{Inst{Op: OpCall, Imm: 12}, "call 12"},
		{Inst{Op: OpRet, Rs: RRA}, "ret ra"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestAllOpsHaveNames(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("op %d missing a name", uint8(op))
		}
	}
}
