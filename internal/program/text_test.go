package program

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func parseString(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestParseMinimal(t *testing.T) {
	p := parseString(t, `
.name tiny
	addi r1, zero, 42
	halt
`)
	if p.Name != "tiny" || len(p.Code) != 2 {
		t.Fatalf("parsed %q with %d insts", p.Name, len(p.Code))
	}
	if p.Code[0].Op != isa.OpAddI || p.Code[0].Imm != 42 {
		t.Fatalf("inst 0 = %v", p.Code[0])
	}
}

func TestParseAllForms(t *testing.T) {
	p := parseString(t, `
.name forms
.mem 128
top:
	add r1, r2, r3
	sub r1, r2, r3
	mul r1, r2, r3
	and r1, r2, r3
	or r1, r2, r3
	xor r1, r2, r3
	slt r1, r2, r3
	addi r1, r2, -7
	andi r1, r2, 15
	ori r1, r2, 1
	xori r1, r2, 3
	slti r1, r2, 9
	shli r1, r2, 2
	shri r1, r2, 2
	lui r4, 7
	ld r5, 8(sp)
	st r5, -2(r6)
	rand r7
	beq r1, r2, top
	bne r1, zero, top
	bltz r1, top
	bgez r1, top
	j top
	call top
	ret ra
	nop
	halt
`)
	if p.MemWords != 128 {
		t.Fatalf("mem = %d", p.MemWords)
	}
	if len(p.Code) != 27 {
		t.Fatalf("insts = %d", len(p.Code))
	}
	if p.Code[16].Op != isa.OpStore || p.Code[16].Imm != -2 || p.Code[16].Rs != 6 {
		t.Fatalf("st parsed as %v", p.Code[16])
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseComments(t *testing.T) {
	p := parseString(t, `
; full line comment
	nop ; trailing comment
	halt # hash comment
`)
	if len(p.Code) != 2 {
		t.Fatalf("insts = %d", len(p.Code))
	}
}

func TestParseLabelWithInstOnSameLine(t *testing.T) {
	p := parseString(t, `
loop: addi r1, r1, 1
	bne r1, zero, loop
	halt
`)
	if len(p.Code) != 3 {
		t.Fatalf("insts = %d", len(p.Code))
	}
	if p.Code[1].Imm != -2 {
		t.Fatalf("branch offset %d, want -2", p.Code[1].Imm)
	}
}

func TestParseForwardReference(t *testing.T) {
	p := parseString(t, `
	j end
	nop
end:
	halt
`)
	if p.Code[0].Imm != 2 {
		t.Fatalf("jump target %d, want 2", p.Code[0].Imm)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"\tbogus r1\n\thalt\n", "unknown mnemonic"},
		{"\taddi r1, zero\n\thalt\n", "want 3 operands"},
		{"\tadd r1, r2, r99\n\thalt\n", "bad register"},
		{"\taddi r1, zero, xyz\n\thalt\n", "bad immediate"},
		{"\tld r1, 8[sp]\n\thalt\n", "bad memory operand"},
		{"\tj nowhere\n\thalt\n", "undefined label"},
		{"x:\nx:\n\thalt\n", "defined twice"},
		{".mem -5\n\thalt\n", "bad .mem"},
		{".weird\n\thalt\n", "unknown directive"},
		{"\tbeq r1, r2, a b\n\thalt\n", "bad target"},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("src %q: error %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	_, err := Parse(strings.NewReader("\tnop\n\tnop\n\tbogus\n"))
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 3 {
		t.Fatalf("line = %d, want 3", pe.Line)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	b := NewBuilder("round")
	b.ReserveMem(64)
	fn := b.NewLabel()
	end := b.NewLabel()
	b.LoadImm(1, 5)
	top := b.Here()
	b.Call(fn)
	b.AddI(1, 1, -1)
	b.Bne(1, isa.RZero, top)
	b.Jump(end)
	b.Bind(fn)
	b.Rand(2)
	b.ShrI(2, 2, 60)
	skip := b.NewLabel()
	b.Beq(2, isa.RZero, skip)
	b.Store(2, isa.RZero, 10)
	b.Bind(skip)
	b.Ret()
	b.Bind(end)
	b.Halt()
	orig, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	text := Format(orig)
	parsed, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse of formatted output: %v\n%s", err, text)
	}
	if parsed.Name != orig.Name || parsed.MemWords != orig.MemWords {
		t.Fatalf("metadata changed: %q/%d", parsed.Name, parsed.MemWords)
	}
	if len(parsed.Code) != len(orig.Code) {
		t.Fatalf("size changed: %d vs %d", len(parsed.Code), len(orig.Code))
	}
	for i := range orig.Code {
		if parsed.Code[i] != orig.Code[i] {
			t.Fatalf("inst %d changed: %v vs %v\n%s", i, parsed.Code[i], orig.Code[i], text)
		}
	}
}

func TestFormatIsStable(t *testing.T) {
	p := parseString(t, "\tnop\n\thalt\n")
	if Format(p) != Format(p) {
		t.Fatal("format not deterministic")
	}
}
