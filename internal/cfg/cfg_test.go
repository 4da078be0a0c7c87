package cfg

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/workload"
)

// buildLoopCallProgram builds the reference fixture used across the
// package tests:
//
//	main:  li r1, 3
//	loop:  addi r1, r1, -1
//	       call f
//	       bne r1, zero, loop
//	       halt
//	dead:  nop
//	       j dead          ; unreachable
//	f:     rand r2
//	       bgez r2, skip
//	       nop
//	skip:  ret
func buildLoopCallProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("loopcall")
	f := b.NewLabel()
	loop := b.NewLabel()
	dead := b.NewLabel()
	skip := b.NewLabel()

	b.LoadImm(1, 3)
	b.Bind(loop)
	b.AddI(1, 1, -1)
	b.Call(f)
	b.Bne(1, isa.RZero, loop)
	b.Halt()

	b.Bind(dead)
	b.Nop()
	b.Jump(dead)

	b.Bind(f)
	b.Rand(2)
	b.Bgez(2, skip)
	b.Nop()
	b.Bind(skip)
	b.Ret()

	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildBlocksAndFunctions(t *testing.T) {
	p := buildLoopCallProgram(t)
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}

	if len(g.Funcs) != 2 {
		t.Fatalf("functions = %d, want 2 (main + f)\n%s", len(g.Funcs), g)
	}
	if g.Funcs[0].Entry != 0 {
		t.Errorf("first function entry = %d, want 0", g.Funcs[0].Entry)
	}
	if len(g.Calls) != 1 {
		t.Fatalf("call sites = %d, want 1", len(g.Calls))
	}
	c := g.Calls[0]
	if c.Caller != g.Funcs[0].ID || c.Callee != g.Funcs[1].ID {
		t.Errorf("call edge %d->%d, want main->f (%d->%d)", c.Caller, c.Callee, g.Funcs[0].ID, g.Funcs[1].ID)
	}

	// The dead block pair (nop; j dead) must be unreachable.
	dead := g.Unreachable()
	if len(dead) == 0 {
		t.Fatal("no unreachable blocks found; the dead code must be flagged")
	}
	for _, bi := range dead {
		b := g.Blocks[bi]
		for i := b.Start; i < b.End; i++ {
			if p.Code[i].Op == isa.OpCall || p.Code[i].Op == isa.OpHalt {
				t.Errorf("live instruction %d (%s) in unreachable block %d", i, p.Code[i], bi)
			}
		}
	}

	// Every instruction maps into a block that covers it.
	for i := range p.Code {
		b := g.BlockOf(i)
		if i < b.Start || i >= b.End {
			t.Fatalf("BlockOf(%d) = [%d,%d): does not cover the instruction", i, b.Start, b.End)
		}
	}

	// The conditional branch in main must have two successors:
	// fallthrough first, then the taken target at the loop header.
	for i, in := range p.Code {
		if !in.Op.IsCondBranch() {
			continue
		}
		b := g.BlockOf(i)
		if b.Terminator() != i {
			t.Errorf("branch %d is not its block's terminator", i)
		}
		if len(b.Succs) != 2 {
			t.Errorf("branch block %d has %d successors, want 2", b.ID, len(b.Succs))
		}
	}
}

func TestCallFallsThroughIntraprocedurally(t *testing.T) {
	p := buildLoopCallProgram(t)
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.Calls {
		b := g.Blocks[c.Block]
		if len(b.Succs) != 1 {
			t.Fatalf("call block %d has %d successors, want 1 (the return point)", b.ID, len(b.Succs))
		}
		ret := g.Blocks[b.Succs[0]]
		if ret.Start != c.Inst+1 {
			t.Errorf("call at %d falls through to block starting %d, want %d", c.Inst, ret.Start, c.Inst+1)
		}
		if ret.Fn != c.Caller {
			t.Errorf("return block owned by function %d, want caller %d", ret.Fn, c.Caller)
		}
	}
}

// bruteForceDominates computes dominance by its definition: a
// dominates b iff removing a from the function makes b unreachable
// from the entry.
func bruteForceDominates(g *Graph, fn *Func, a, b int) bool {
	if a == b {
		return true
	}
	if a == fn.EntryBlock {
		return true
	}
	if b == fn.EntryBlock {
		return false
	}
	inFn := make(map[int]bool, len(fn.Blocks))
	for _, x := range fn.Blocks {
		inFn[x] = true
	}
	seen := map[int]bool{a: true} // treat a as removed
	stack := []int{fn.EntryBlock}
	seen[fn.EntryBlock] = true
	if a == fn.EntryBlock {
		return true
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == b {
			return false
		}
		for _, s := range g.Blocks[x].Succs {
			if inFn[s] && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return true
}

// TestDominatorsMatchBruteForce differentially checks the iterative
// Cooper-Harvey-Kennedy implementation against the reachability
// definition of dominance, on the fixture and on generated benchmark
// programs.
func TestDominatorsMatchBruteForce(t *testing.T) {
	progs := []*program.Program{buildLoopCallProgram(t)}
	for _, name := range []string{"compress", "li"} {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := spec.Build(workload.InputRef, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, p := range progs {
		g, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, fn := range g.Funcs {
			if len(fn.Blocks) > 40 {
				continue // keep the O(B^3) brute force affordable
			}
			dom := g.Dominators(fn)
			for _, a := range fn.Blocks {
				for _, b := range fn.Blocks {
					got := dom.Dominates(a, b)
					want := bruteForceDominates(g, fn, a, b)
					if got != want {
						t.Fatalf("%s: fn entry %d: Dominates(%d,%d) = %v, brute force says %v",
							p.Name, fn.Entry, a, b, got, want)
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no function small enough to brute-force", p.Name)
		}
	}
}

func TestIDomOfLoopBody(t *testing.T) {
	p := buildLoopCallProgram(t)
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	fn := g.Funcs[0]
	dom := g.Dominators(fn)
	// The entry block dominates everything in main and is its own idom.
	if l := dom.local[fn.EntryBlock]; dom.idom[l] != l {
		t.Errorf("idom(entry) = local %d, want entry %d", dom.idom[l], l)
	}
	for _, b := range fn.Blocks {
		if !dom.Dominates(fn.EntryBlock, b) {
			t.Errorf("entry does not dominate block %d", b)
		}
	}
}
