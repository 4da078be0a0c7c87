// Package cfg builds compile-time control-flow structure for guest
// programs: basic-block CFGs over program.Program, dominator trees,
// natural loops, and loop-nesting depth. Package staticws consumes it
// to estimate branch working sets without any profile run, answering
// the question the paper's Section 5 leaves open — what a compiler can
// know about branch interleaving before the program ever executes.
//
// The analysis is function-grained, as a compiler's would be: entry
// points are instruction 0 plus every direct call target, each
// function's blocks are discovered by intraprocedural reachability
// (calls fall through to their return point; the interprocedural view
// lives in the call graph), and dominators/loops are computed per
// function with the iterative Cooper-Harvey-Kennedy algorithm.
package cfg

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/program"
)

// Block is one basic block: a maximal straight-line instruction run
// [Start, End) entered only at Start and left only at End-1.
type Block struct {
	// ID is the block's dense index in Graph.Blocks, in Start order.
	ID int
	// Start and End bound the block's instruction indices: [Start, End).
	Start, End int
	// Succs are the IDs of intraprocedural successor blocks, in a fixed
	// order: fallthrough (or jump target) first, then the branch-taken
	// target. Call instructions fall through to their return point; the
	// callee is recorded as a call edge on the graph, not a successor.
	Succs []int
	// Fn is the ID of the function owning the block, or -1 for blocks
	// unreachable from every entry point.
	Fn int
}

// Terminator returns the block's last instruction index.
func (b *Block) Terminator() int { return b.End - 1 }

// Func is one discovered function: an entry block plus every block
// intraprocedurally reachable from it.
type Func struct {
	// ID is the function's dense index in Graph.Funcs, in entry order.
	ID int
	// Entry is the instruction index of the function's entry (0 for
	// main, a call target otherwise).
	Entry int
	// EntryBlock is the ID of the entry basic block.
	EntryBlock int
	// Blocks lists the IDs of the function's blocks in Start order.
	Blocks []int
}

// CallSite is one direct call instruction.
type CallSite struct {
	// Block is the ID of the block whose terminator is the call.
	Block int
	// Inst is the call's instruction index; Inst+1 is the return point.
	Inst int
	// Caller and Callee are function IDs.
	Caller, Callee int
}

// Graph is the control-flow structure of one program.
type Graph struct {
	Prog *program.Program
	// Blocks holds every basic block, ordered by Start.
	Blocks []*Block
	// Funcs holds every discovered function, ordered by entry index.
	Funcs []*Func
	// Calls lists every direct call site, ordered by instruction index.
	Calls []CallSite
	// blockAt maps an instruction index to the ID of the block
	// containing it.
	blockAt []int
}

// BlockOf returns the block containing instruction index i.
func (g *Graph) BlockOf(i int) *Block { return g.Blocks[g.blockAt[i]] }

// Unreachable returns the IDs of blocks not reachable from any entry
// point — dead code a compiler would never allocate branches for.
func (g *Graph) Unreachable() []int {
	var dead []int
	for _, b := range g.Blocks {
		if b.Fn < 0 {
			dead = append(dead, b.ID)
		}
	}
	return dead
}

func (g *Graph) String() string {
	return fmt.Sprintf("cfg: %d blocks, %d functions, %d call sites, %d unreachable blocks",
		len(g.Blocks), len(g.Funcs), len(g.Calls), len(g.Unreachable()))
}

// branchTarget returns the taken-target instruction index of the
// conditional branch at index i.
func branchTarget(i int, in isa.Inst) int { return i + 1 + int(in.Imm) }

// Build constructs the control-flow graph of p. The program must be
// valid (see program.Validate); Build re-validates to keep the
// invariant local.
func Build(p *program.Program) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("cfg: %w", err)
	}
	n := len(p.Code)

	// Leaders: instruction 0, every transfer target, and every
	// instruction following a control transfer (the fallthrough of a
	// branch, the return point of a call, the code after a jump/ret).
	leader := make([]bool, n)
	leader[0] = true
	entries := map[int]bool{0: true}
	for i, in := range p.Code {
		switch in.Op {
		case isa.OpBeq, isa.OpBne, isa.OpBltz, isa.OpBgez:
			leader[branchTarget(i, in)] = true
			if i+1 < n {
				leader[i+1] = true
			}
		case isa.OpJump:
			leader[int(in.Imm)] = true
			if i+1 < n {
				leader[i+1] = true
			}
		case isa.OpCall:
			leader[int(in.Imm)] = true
			entries[int(in.Imm)] = true
			if i+1 < n {
				leader[i+1] = true
			}
		case isa.OpRet, isa.OpHalt:
			if i+1 < n {
				leader[i+1] = true
			}
		}
	}

	g := &Graph{Prog: p, blockAt: make([]int, n)}
	for i := 0; i < n; i++ {
		if leader[i] {
			g.Blocks = append(g.Blocks, &Block{ID: len(g.Blocks), Start: i, Fn: -1})
		}
		g.blockAt[i] = len(g.Blocks) - 1
	}
	for bi, b := range g.Blocks {
		if bi+1 < len(g.Blocks) {
			b.End = g.Blocks[bi+1].Start
		} else {
			b.End = n
		}
	}

	// Successor edges. A call's interprocedural edge is deferred until
	// functions exist; intraprocedurally it falls through.
	for _, b := range g.Blocks {
		t := b.Terminator()
		in := p.Code[t]
		switch in.Op {
		case isa.OpBeq, isa.OpBne, isa.OpBltz, isa.OpBgez:
			if t+1 < n {
				b.Succs = append(b.Succs, g.blockAt[t+1])
			}
			b.Succs = append(b.Succs, g.blockAt[branchTarget(t, in)])
		case isa.OpJump:
			b.Succs = append(b.Succs, g.blockAt[int(in.Imm)])
		case isa.OpCall:
			if t+1 < n {
				b.Succs = append(b.Succs, g.blockAt[t+1])
			}
		case isa.OpRet, isa.OpHalt:
			// No intraprocedural successor: ret leaves the function,
			// halt stops the machine.
		default:
			if t+1 < n {
				b.Succs = append(b.Succs, g.blockAt[t+1])
			}
		}
	}

	// Functions: entry 0 plus call targets, each owning the blocks
	// intraprocedurally reachable from its entry. Entry order is
	// instruction order so function IDs are deterministic. A block
	// reachable from several entries (shared tails) is owned by the
	// first-discovered function; the workload generators never share
	// code, and the ownership choice only affects attribution.
	entryList := make([]int, 0, len(entries))
	for e := range entries {
		entryList = append(entryList, e)
	}
	sort.Ints(entryList)
	for _, e := range entryList {
		fn := &Func{ID: len(g.Funcs), Entry: e, EntryBlock: g.blockAt[e]}
		stack := []int{g.blockAt[e]}
		for len(stack) > 0 {
			bi := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			b := g.Blocks[bi]
			if b.Fn >= 0 {
				continue
			}
			b.Fn = fn.ID
			fn.Blocks = append(fn.Blocks, bi)
			for _, s := range b.Succs {
				if g.Blocks[s].Fn < 0 {
					stack = append(stack, s)
				}
			}
		}
		if len(fn.Blocks) == 0 {
			// Entry block already claimed by an earlier function
			// (overlapping code); skip the degenerate function.
			continue
		}
		sort.Ints(fn.Blocks)
		g.Funcs = append(g.Funcs, fn)
	}

	// Call sites, now that callees resolve to functions.
	funcAt := make(map[int]int, len(g.Funcs))
	for _, fn := range g.Funcs {
		funcAt[fn.Entry] = fn.ID
	}
	for i, in := range p.Code {
		if in.Op != isa.OpCall {
			continue
		}
		caller := g.Blocks[g.blockAt[i]].Fn
		callee, ok := funcAt[int(in.Imm)]
		if !ok {
			// The callee entry was swallowed by an overlapping function;
			// attribute the call to the owning function instead.
			callee = g.Blocks[g.blockAt[int(in.Imm)]].Fn
		}
		if caller < 0 || callee < 0 {
			continue // call inside dead code
		}
		g.Calls = append(g.Calls, CallSite{
			Block: g.blockAt[i], Inst: i, Caller: caller, Callee: callee,
		})
	}
	return g, nil
}
