package dataflow

import (
	"math"
	"os"
	"testing"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/rng"
)

func mustCFG(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	p, err := program.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return g
}

func TestIntervalsConstantsAndRefinement(t *testing.T) {
	g := mustCFG(t, `
.name iv
	addi r1, zero, 5
	addi r2, r1, 3
	bgez r2, done
	addi r3, zero, 7
done:
	halt
`)
	fn := g.Funcs[0]
	res := Solve[Regs](g, fn, NewIntervals(g, fn, 4096))

	// After the two addis, r2 is the constant 8.
	brBlock := g.BlockOf(2)
	out := res.OutAt(brBlock.ID)
	if v, ok := out.R[2].IsConst(); !ok || v != 8 {
		t.Errorf("r2 at branch = %s, want [8]", out.R[2])
	}
	// bgez on a provably nonnegative register: the fallthrough block is
	// infeasible, the taken block live.
	if ft := res.InAt(g.BlockOf(3).ID); ft.Live {
		t.Errorf("fallthrough of always-taken bgez is live: r3=%s", ft.R[3])
	}
	if tk := res.InAt(g.BlockOf(4).ID); !tk.Live {
		t.Error("taken successor of always-taken bgez is not live")
	}
}

func TestIntervalsBranchRefinement(t *testing.T) {
	g := mustCFG(t, `
.name refine
	rand r1
	bltz r1, neg
	addi r2, r1, 0
	halt
neg:
	addi r3, r1, 0
	halt
`)
	fn := g.Funcs[0]
	res := Solve[Regs](g, fn, NewIntervals(g, fn, 4096))

	// Fallthrough: r1 >= 0 flowed into r2.
	ft := res.OutAt(g.BlockOf(2).ID)
	if ft.R[2].Lo != 0 || ft.R[2].Hi != math.MaxInt64 {
		t.Errorf("fallthrough r2 = %s, want [0,+inf]", ft.R[2])
	}
	// Taken: r1 < 0 flowed into r3.
	tk := res.OutAt(g.BlockOf(4).ID)
	if tk.R[3].Lo != math.MinInt64 || tk.R[3].Hi != -1 {
		t.Errorf("taken r3 = %s, want [-inf,-1]", tk.R[3])
	}
}

func TestIntervalsLoopWidensAndTerminates(t *testing.T) {
	g := mustCFG(t, `
.name widen
	addi r1, zero, 0
loop:
	addi r1, r1, 1
	rand r2
	bgez r2, loop
	halt
`)
	fn := g.Funcs[0]
	res := Solve[Regs](g, fn, NewIntervals(g, fn, 4096))
	// The loop increments r1 without a provable bound. Widening must
	// reach a fixpoint (this test hangs if it does not), and because the
	// machine's add wraps, the only sound bound for an unboundedly
	// incremented register is Full — after 2^63 iterations r1 goes
	// negative, so a nonnegative bound would be a soundness bug.
	in := res.InAt(g.BlockOf(3).ID)
	if !in.Live {
		t.Fatal("loop body not live")
	}
	if in.R[1] != Full {
		t.Errorf("r1 in unbounded increment loop = %s, want Full (wrapping add)", in.R[1])
	}
}

func TestDefinedDiamond(t *testing.T) {
	g := mustCFG(t, `
.name reach
	rand r4
	bltz r4, other
	addi r1, zero, 1
	j merge
other:
	addi r1, zero, 2
merge:
	add r2, r1, r3
	halt
`)
	fn := g.Funcs[0]
	// Only RSP defined at entry, as for a program entry function.
	res := Solve[RegSet](g, fn, NewDefined(g, 1<<isa.RSP))

	set := res.InAt(g.BlockOf(6).ID)
	if !set.Has(1) {
		t.Error("r1 undefined at merge despite definitions on both arms")
	}
	if set.Has(3) {
		t.Error("r3 defined at merge despite no definition anywhere")
	}
	if !set.Has(isa.RSP) {
		t.Error("RSP undefined despite entry coverage")
	}
}

// TestDefinedEntryNotKilled: a write to one register must not erase
// the entry state's coverage of every other register.
func TestDefinedEntryNotKilled(t *testing.T) {
	g := mustCFG(t, `
.name kill
	addi r5, zero, 1
	add r6, r31, r30
	halt
`)
	fn := g.Funcs[0]
	res := Solve[RegSet](g, fn, NewDefined(g, ^RegSet(0))) // callee: all registers defined at entry

	set := res.InAt(g.BlockOf(0).ID)
	set = Define(set, g.Prog.Code[0]) // defines r5
	if !set.Has(31) || !set.Has(30) {
		t.Error("entry definitions of r31/r30 lost after an unrelated write to r5")
	}
	if !set.Has(5) {
		t.Error("r5 undefined right after its own definition")
	}
}

// TestDefinedMatchesPathOracle checks the may-defined fixpoint against
// its path semantics: register r is defined before instruction i iff r
// is in the entry set, r is the zero register, or some path from the
// function entry to i writes r. The oracle finds such paths by a
// breadth-first search over (instruction, r written) states along the
// successor edges Solve uses, on every function of seeded random
// programs, the FuzzProgCheck seeds and the uninit_read fixture, under
// three entry sets each.
func TestDefinedMatchesPathOracle(t *testing.T) {
	var progs []*program.Program
	for _, src := range []string{
		// The FuzzProgCheck seeds (package progcheck).
		".name loop\n\taddi r1, zero, 8\nL0:\taddi r1, r1, -1\n\tbne r1, zero, L0\n\thalt\n",
		".name oob\n.mem 16\n\tlui r2, 1\n\taddi r1, zero, 1\n\tst r1, 0(r2)\n\taddi r3, zero, -9\n\tld r4, 0(r3)\n\thalt\n",
		".name resolved\n\taddi r1, zero, 3\n\tbeq r1, zero, L0\n\thalt\nL0:\taddi r2, zero, 1\n\thalt\n",
		".name uninit\n\tadd r3, r1, r2\n\thalt\n",
		".name call\n\taddi r1, zero, 2\n\tcall L0\n\thalt\nL0:\tadd r2, r1, r1\n\tret ra\n",
		".name rand\n\trand r1\n\tbltz r1, L0\n\taddi r2, zero, 1\nL0:\thalt\n",
	} {
		p, err := program.ParseString(src)
		if err != nil {
			t.Fatalf("parse seed: %v", err)
		}
		progs = append(progs, p)
	}
	fixture, err := os.ReadFile("../../cmd/progcheck/testdata/uninit_read.s")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.ParseString(string(fixture))
	if err != nil {
		t.Fatalf("parse uninit_read.s: %v", err)
	}
	progs = append(progs, p)
	r := rng.New(20261019)
	for len(progs) < 10_000 {
		if p := randomProgram(r); p.Validate() == nil {
			progs = append(progs, p)
		}
	}

	var checks, undefined int
	for _, p := range progs {
		g, err := cfg.Build(p)
		if err != nil {
			t.Fatalf("%s: cfg: %v", p.Name, err)
		}
		for _, fn := range g.Funcs {
			for _, entry := range []RegSet{0, 1 << isa.RSP, RegSet(r.Uint32())} {
				c, u := compareDefinedWithOracle(t, g, fn, entry)
				checks += c
				undefined += u
			}
		}
		if t.Failed() {
			return
		}
	}
	if undefined == 0 || undefined == checks {
		t.Fatalf("vacuous comparison: %d of %d checks undefined", undefined, checks)
	}
	t.Logf("%d programs, %d checks, %d undefined", len(progs), checks, undefined)
}

// compareDefinedWithOracle compares the solved fact before every
// instruction of fn reachable from its entry with the path oracle, for
// every register. It returns the number of comparisons and how many
// found the register undefined.
func compareDefinedWithOracle(t *testing.T, g *cfg.Graph, fn *cfg.Func, entry RegSet) (checks, undefined int) {
	t.Helper()
	code := g.Prog.Code
	inFn := make([]bool, len(g.Blocks))
	for _, bi := range fn.Blocks {
		inFn[bi] = true
	}
	// solved[i] is the fact before instruction i, replayed from its
	// block's In fact.
	res := Solve[RegSet](g, fn, NewDefined(g, entry))
	solved := make([]RegSet, len(code))
	for _, bi := range fn.Blocks {
		b := g.Blocks[bi]
		s := res.InAt(bi)
		for i := b.Start; i < b.End; i++ {
			solved[i] = s
			s = Define(s, code[i])
		}
	}

	for reg := isa.Reg(0); reg < isa.NumRegs; reg++ {
		// seen[i][w]: instruction i is reached from the entry on a path
		// that has (w=1) or has not (w=0) written reg.
		seen := make([][2]bool, len(code))
		seen[fn.Entry][0] = true
		queue := [][2]int{{fn.Entry, 0}}
		for len(queue) > 0 {
			i, w := queue[0][0], queue[0][1]
			queue = queue[1:]
			if r, ok := writtenReg(code[i]); code[i].Op == isa.OpCall || ok && r == reg {
				w = 1
			}
			b := g.BlockOf(i)
			next := []int{i + 1}
			if i == b.Terminator() {
				next = next[:0]
				for _, s := range b.Succs {
					if inFn[s] {
						next = append(next, g.Blocks[s].Start)
					}
				}
			}
			for _, j := range next {
				if !seen[j][w] {
					seen[j][w] = true
					queue = append(queue, [2]int{j, w})
				}
			}
		}
		for i, st := range seen {
			if !st[0] && !st[1] {
				continue // not reachable from the entry
			}
			want := entry&(1<<reg) != 0 || reg == isa.RZero || st[1]
			if got := solved[i].Has(reg); got != want {
				t.Errorf("%s: func at %d, entry %#x: r%d before inst %d: solved %v, paths say %v",
					g.Prog.Name, fn.Entry, uint32(entry), reg, i, got, want)
			}
			checks++
			if !want {
				undefined++
			}
		}
	}
	return checks, undefined
}

// randomProgram returns a program of 2 to 31 instructions mixing
// register writes and reads with every kind of control transfer, over
// a few registers so writes and reads meet; it ends in halt.
func randomProgram(r *rng.Xoshiro256) *program.Program {
	n := 2 + r.Intn(30)
	reg := func() isa.Reg {
		if r.Intn(4) == 0 {
			return isa.Reg(r.Intn(isa.NumRegs))
		}
		return isa.Reg(r.Intn(6))
	}
	code := make([]isa.Inst, n)
	for i := range code[:n-1] {
		var in isa.Inst
		switch k := r.Intn(10); {
		case k < 3:
			in = isa.Inst{Op: isa.OpAddI, Rd: reg(), Rs: reg(), Imm: int32(r.Intn(9) - 4)}
		case k < 5:
			in = isa.Inst{Op: isa.OpAdd, Rd: reg(), Rs: reg(), Rt: reg()}
		case k == 5:
			in = isa.Inst{Op: isa.OpRand, Rd: reg()}
		case k == 6:
			ops := []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBltz, isa.OpBgez}
			target := r.Intn(n)
			if target == i+1 {
				target = 0
			}
			in = isa.Inst{Op: ops[r.Intn(len(ops))], Rs: reg(), Rt: reg(), Imm: int32(target - i - 1)}
		case k == 7:
			in = isa.Inst{Op: isa.OpJump, Imm: int32(r.Intn(n))}
		case k == 8:
			in = isa.Inst{Op: isa.OpCall, Imm: int32(r.Intn(n))}
		default:
			in = isa.Inst{Op: isa.OpRet, Rs: reg()}
		}
		code[i] = in
	}
	code[n-1] = isa.Inst{Op: isa.OpHalt}
	return &program.Program{Name: "random", Code: code, MemWords: 16}
}

func TestIntervalArithmeticSoundOnOverflow(t *testing.T) {
	big := Interval{math.MaxInt64 - 1, math.MaxInt64}
	if got := addIV(big, Const(5)); got != Full {
		t.Errorf("overflowing add = %v, want Full", got)
	}
	if got := subIV(Interval{math.MinInt64, math.MinInt64 + 1}, Const(5)); got != Full {
		t.Errorf("overflowing sub = %v, want Full", got)
	}
	if got := mulIV(Interval{1 << 40, 1 << 40}, Const(1<<40)); got != Full {
		t.Errorf("overflowing mul = %v, want Full", got)
	}
	if got := shlIV(Interval{1, 1 << 40}, 40); got != Full {
		t.Errorf("overflowing shl = %v, want Full", got)
	}
	// Exact cases stay exact.
	if got := addIV(Const(3), Const(4)); got != Const(7) {
		t.Errorf("3+4 = %v", got)
	}
	if got := andIV(Full, Interval{0, 15}); (got != Interval{0, 15}) {
		t.Errorf("x & [0,15] = %v, want [0,15]", got)
	}
	if got := shrIV(Interval{-8, -1}, 1); got.Lo < 0 {
		t.Errorf("negative >> 1 = %v, want nonnegative", got)
	}
}
