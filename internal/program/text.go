package program

// Textual assembly format for programs: Format renders a Program as
// human-readable assembly with symbolic labels, and Parse assembles that
// syntax back. The formats round-trip exactly (same instruction
// sequence), so programs can be generated, dumped, hand-edited, and
// re-analyzed — the workflow cmd/wsanalyze's -save/-trace options enable
// for traces, extended here to code.
//
// Syntax:
//
//	; comment                     (also # comment)
//	.name quicksort               directives before code
//	.mem 4096
//	L0:                           labels
//	    addi r1, zero, 42
//	    ld r2, 8(sp)
//	    beq r1, r2, L0            branch/jump/call targets are labels
//	    call L1
//	    halt

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Format renders p as parseable assembly text.
func Format(p *Program) string { //reprolint:allow testonly the printer the Parse round-trip tests invert
	// Collect every control-transfer target so it gets a label.
	targets := make(map[int]string)
	addTarget := func(idx int) {
		if _, ok := targets[idx]; !ok {
			targets[idx] = "" // named below in address order
		}
	}
	for i, in := range p.Code {
		switch {
		case in.Op.IsCondBranch():
			addTarget(i + 1 + int(in.Imm))
		case in.Op == isa.OpJump || in.Op == isa.OpCall:
			addTarget(int(in.Imm))
		}
	}
	idxs := make([]int, 0, len(targets))
	for idx := range targets {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for n, idx := range idxs {
		targets[idx] = fmt.Sprintf("L%d", n)
	}

	var b strings.Builder
	fmt.Fprintf(&b, ".name %s\n", p.Name)
	if p.MemWords > 0 {
		fmt.Fprintf(&b, ".mem %d\n", p.MemWords)
	}
	for i, in := range p.Code {
		if label, ok := targets[i]; ok {
			fmt.Fprintf(&b, "%s:\n", label)
		}
		switch {
		case in.Op.IsCondBranch():
			t := targets[i+1+int(in.Imm)]
			switch in.Op {
			case isa.OpBeq, isa.OpBne:
				fmt.Fprintf(&b, "\t%s %s, %s, %s\n", in.Op, in.Rs, in.Rt, t)
			default: // bltz, bgez
				fmt.Fprintf(&b, "\t%s %s, %s\n", in.Op, in.Rs, t)
			}
		case in.Op == isa.OpJump:
			fmt.Fprintf(&b, "\t%s %s\n", in.Op, targets[int(in.Imm)])
		case in.Op == isa.OpCall:
			fmt.Fprintf(&b, "\t%s %s\n", in.Op, targets[int(in.Imm)])
		default:
			fmt.Fprintf(&b, "\t%s\n", in.String())
		}
	}
	return b.String()
}

// ParseString assembles src; a convenience wrapper over Parse.
func ParseString(src string) (*Program, error) {
	return Parse(strings.NewReader(src))
}

// ParseError reports an assembly syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("program: parse error at line %d: %s", e.Line, e.Msg)
}

// Parse assembles the textual format back into a Program.
func Parse(r io.Reader) (*Program, error) {
	b := NewBuilder("parsed")
	labels := make(map[string]Label)
	labelOf := func(name string) Label {
		if l, ok := labels[name]; ok {
			return l
		}
		l := b.NewLabel()
		labels[name] = l
		return l
	}
	memWords := 0
	name := "parsed"
	bound := make(map[string]bool)

	sc := bufio.NewScanner(r)
	lineNo := 0
	fail := func(format string, args ...any) error {
		return &ParseError{Line: lineNo, Msg: fmt.Sprintf(format, args...)}
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}

		// Directives.
		if strings.HasPrefix(line, ".") {
			fields := strings.Fields(line)
			switch fields[0] {
			case ".name":
				if len(fields) != 2 {
					return nil, fail(".name needs one argument")
				}
				name = fields[1]
			case ".mem":
				if len(fields) != 2 {
					return nil, fail(".mem needs one argument")
				}
				n, err := strconv.Atoi(fields[1])
				if err != nil || n < 0 {
					return nil, fail("bad .mem size %q", fields[1])
				}
				memWords = n
			default:
				return nil, fail("unknown directive %s", fields[0])
			}
			continue
		}

		// Labels (possibly followed by an instruction on the same line).
		for {
			colon := strings.Index(line, ":")
			if colon < 0 {
				break
			}
			labelName := strings.TrimSpace(line[:colon])
			if labelName == "" || strings.ContainsAny(labelName, " \t,()") {
				return nil, fail("bad label %q", labelName)
			}
			if bound[labelName] {
				return nil, fail("label %q defined twice", labelName)
			}
			bound[labelName] = true
			b.Bind(labelOf(labelName))
			line = strings.TrimSpace(line[colon+1:])
		}
		if line == "" {
			continue
		}

		if err := parseInst(b, labelOf, line); err != nil {
			return nil, fail("%v", err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for labelName := range labels {
		if !bound[labelName] {
			return nil, &ParseError{Line: lineNo, Msg: fmt.Sprintf("undefined label %q", labelName)}
		}
	}
	if err := b.Err(); err != nil {
		return nil, err
	}
	b.ReserveMem(memWords)
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	p.Name = name
	return p, nil
}

// parseInst assembles one instruction line.
func parseInst(b *Builder, labelOf func(string) Label, line string) error {
	mnemonic, rest, _ := strings.Cut(line, " ")
	mnemonic = strings.TrimSpace(mnemonic)
	ops := splitOperands(rest)

	reg := func(i int) (isa.Reg, error) {
		if i >= len(ops) {
			return 0, fmt.Errorf("%s: missing operand %d", mnemonic, i+1)
		}
		return parseReg(ops[i])
	}
	imm := func(i int) (int32, error) {
		if i >= len(ops) {
			return 0, fmt.Errorf("%s: missing operand %d", mnemonic, i+1)
		}
		v, err := strconv.ParseInt(ops[i], 10, 32)
		if err != nil {
			return 0, fmt.Errorf("%s: bad immediate %q", mnemonic, ops[i])
		}
		return int32(v), nil
	}
	label := func(i int) (Label, error) {
		if i >= len(ops) {
			return 0, fmt.Errorf("%s: missing target", mnemonic)
		}
		if strings.ContainsAny(ops[i], " \t,()") || ops[i] == "" {
			return 0, fmt.Errorf("%s: bad target %q", mnemonic, ops[i])
		}
		return labelOf(ops[i]), nil
	}
	// mem parses "off(base)".
	mem := func(i int) (isa.Reg, int32, error) {
		if i >= len(ops) {
			return 0, 0, fmt.Errorf("%s: missing memory operand", mnemonic)
		}
		open := strings.Index(ops[i], "(")
		if open < 0 || !strings.HasSuffix(ops[i], ")") {
			return 0, 0, fmt.Errorf("%s: bad memory operand %q", mnemonic, ops[i])
		}
		off, err := strconv.ParseInt(strings.TrimSpace(ops[i][:open]), 10, 32)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: bad offset in %q", mnemonic, ops[i])
		}
		base, err := parseReg(ops[i][open+1 : len(ops[i])-1])
		if err != nil {
			return 0, 0, err
		}
		return base, int32(off), nil
	}
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s: want %d operands, got %d", mnemonic, n, len(ops))
		}
		return nil
	}

	type rrr func(rd, rs, rt isa.Reg)
	emitRRR := func(f rrr) error {
		if err := need(3); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs, err := reg(1)
		if err != nil {
			return err
		}
		rt, err := reg(2)
		if err != nil {
			return err
		}
		f(rd, rs, rt)
		return nil
	}
	type rri func(rd, rs isa.Reg, imm int32)
	emitRRI := func(f rri) error {
		if err := need(3); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		rs, err := reg(1)
		if err != nil {
			return err
		}
		v, err := imm(2)
		if err != nil {
			return err
		}
		f(rd, rs, v)
		return nil
	}

	switch mnemonic {
	case "nop":
		b.Nop()
	case "halt":
		b.Halt()
	case "add":
		return emitRRR(b.Add)
	case "sub":
		return emitRRR(b.Sub)
	case "mul":
		return emitRRR(b.Mul)
	case "and":
		return emitRRR(b.And)
	case "or":
		return emitRRR(b.Or)
	case "xor":
		return emitRRR(b.Xor)
	case "slt":
		return emitRRR(b.Slt)
	case "addi":
		return emitRRI(b.AddI)
	case "andi":
		return emitRRI(b.AndI)
	case "ori":
		return emitRRI(b.OrI)
	case "xori":
		return emitRRI(b.XorI)
	case "slti":
		return emitRRI(b.SltI)
	case "shli":
		return emitRRI(b.ShlI)
	case "shri":
		return emitRRI(b.ShrI)
	case "lui":
		if err := need(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		v, err := imm(1)
		if err != nil {
			return err
		}
		b.Emit(isa.Inst{Op: isa.OpLui, Rd: rd, Imm: v})
	case "ld":
		if err := need(2); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		base, off, err := mem(1)
		if err != nil {
			return err
		}
		b.Load(rd, base, off)
	case "st":
		if err := need(2); err != nil {
			return err
		}
		rt, err := reg(0)
		if err != nil {
			return err
		}
		base, off, err := mem(1)
		if err != nil {
			return err
		}
		b.Store(rt, base, off)
	case "rand":
		if err := need(1); err != nil {
			return err
		}
		rd, err := reg(0)
		if err != nil {
			return err
		}
		b.Rand(rd)
	case "beq", "bne":
		if err := need(3); err != nil {
			return err
		}
		rs, err := reg(0)
		if err != nil {
			return err
		}
		rt, err := reg(1)
		if err != nil {
			return err
		}
		t, err := label(2)
		if err != nil {
			return err
		}
		if mnemonic == "beq" {
			b.Beq(rs, rt, t)
		} else {
			b.Bne(rs, rt, t)
		}
	case "bltz", "bgez":
		if err := need(2); err != nil {
			return err
		}
		rs, err := reg(0)
		if err != nil {
			return err
		}
		t, err := label(1)
		if err != nil {
			return err
		}
		if mnemonic == "bltz" {
			b.Bltz(rs, t)
		} else {
			b.Bgez(rs, t)
		}
	case "j":
		t, err := label(0)
		if err != nil {
			return err
		}
		if err := need(1); err != nil {
			return err
		}
		b.Jump(t)
	case "call":
		t, err := label(0)
		if err != nil {
			return err
		}
		if err := need(1); err != nil {
			return err
		}
		b.Call(t)
	case "ret":
		if err := need(1); err != nil {
			return err
		}
		rs, err := reg(0)
		if err != nil {
			return err
		}
		b.RetVia(rs)
	default:
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	return nil
}

// splitOperands splits "a, b, c" into trimmed fields.
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// parseReg accepts r0..r31 and the aliases zero, sp, ra.
func parseReg(s string) (isa.Reg, error) {
	switch s {
	case "zero":
		return isa.RZero, nil
	case "sp":
		return isa.RSP, nil
	case "ra":
		return isa.RRA, nil
	}
	if strings.HasPrefix(s, "r") {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < isa.NumRegs {
			return isa.Reg(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}
