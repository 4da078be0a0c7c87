package dataflow

import (
	"math"
	"testing"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/program"
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

func TestReachingDefsDiamond(t *testing.T) {
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
	d := SolveReachingDefs(g, fn, 1<<isa.RSP)

	merge := g.BlockOf(6)
	set := d.InAt(merge.ID)
	if !d.Defined(set, 1) {
		t.Error("r1 undefined at merge despite definitions on both arms")
	}
	if d.Defined(set, 3) {
		t.Error("r3 defined at merge despite no definition anywhere")
	}
	if !d.Defined(set, isa.RSP) {
		t.Error("RSP undefined despite entry coverage")
	}
}

// TestReachingDefsEntryNotKilled is the regression test for summarized
// definition sites: killing r5's definitions must not erase the entry
// site's coverage of every other register.
func TestReachingDefsEntryNotKilled(t *testing.T) {
	g := mustCFG(t, `
.name kill
	addi r5, zero, 1
	add r6, r31, r30
	halt
`)
	fn := g.Funcs[0]
	d := SolveReachingDefs(g, fn, ^uint32(0)) // callee: all registers defined at entry

	b := g.BlockOf(0)
	set := d.InAt(b.ID)
	set = d.Apply(set, 0) // defines r5, killing its earlier defs
	if !d.Defined(set, 31) || !d.Defined(set, 30) {
		t.Error("entry definitions of r31/r30 lost after an unrelated write to r5")
	}
	if !d.Defined(set, 5) {
		t.Error("r5 undefined right after its own definition")
	}
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
