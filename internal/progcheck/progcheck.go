package progcheck

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/vm"
)

// Report is the result of verifying one program: the control-flow
// structure the analyses ran over, every finding in stable order, and
// the machine-checkable Facts that back the proven subset.
type Report struct {
	Prog *program.Program
	// Graph and Forest are nil when validation failed before any
	// analysis could run.
	Graph  *cfg.Graph
	Forest *cfg.Forest
	// Findings is sorted by SortFindings order.
	Findings []Finding
	// Facts holds the proven per-instruction facts; nil when validation
	// failed.
	Facts *Facts
}

// checker carries the per-program analysis state while findings are
// collected.
type checker struct {
	prog    *program.Program
	g       *cfg.Graph
	memSize int
	// ivals[fid] is the solved interval analysis of function fid, nil
	// for functions never called from live code.
	ivals []*dataflow.Result[dataflow.Regs]
	// defined[fid] is the solved may-defined analysis of function fid.
	defined []*dataflow.Result[dataflow.RegSet]
	// funcLive[fid] is true when fid is the entry function or is called
	// from an interval-reachable block of a live function.
	funcLive []bool
	facts    *Facts
	findings []Finding
}

// Gate is the command-line tools' verification gate: it checks p,
// prints each error finding and then a one-line summary to w, and
// rejects p if any finding is an error. Run the progcheck command for
// the full warn/info listing.
func Gate(w io.Writer, p *program.Program) (*Report, error) {
	r := Check(p)
	errs := 0
	for _, f := range r.Findings {
		if f.Severity == SevError {
			fmt.Fprintf(w, "progcheck: %s\n", f)
			errs++
		}
	}
	if errs > 0 {
		return nil, fmt.Errorf("progcheck: %d error findings; program rejected", errs)
	}
	sum := r.Summary()
	fmt.Fprintf(w, "progcheck: ok (%d findings; %d branch sites: %d resolved, %d dead, %d data-dependent)\n",
		len(r.Findings), sum.Sites, sum.Resolved, sum.Dead, sum.Data)
	return r, nil
}

// SummaryLine is the one-line verdict on the program checked as name:
// its finding counts by severity and its branch-site classification.
func (r *Report) SummaryLine(name string) string {
	counts := map[Severity]int{}
	for _, f := range r.Findings {
		counts[f.Severity]++
	}
	s := r.Summary()
	return fmt.Sprintf("%s: %d findings (%d error, %d warn, %d info); %d branch sites: %d latch, %d exit, %d guard, %d resolved, %d dead, %d data-dependent",
		name, len(r.Findings), counts[SevError], counts[SevWarn], counts[SevInfo],
		s.Sites, s.Latch, s.Exit, s.Guard, s.Resolved, s.Dead, s.Data)
}

// Check verifies p: validation, then interval and may-defined register
// dataflow over every live function, then the oob / unreachable /
// resolved / uninit passes. It always returns a Report; a program that
// fails program.Validate gets a single error finding and no Facts.
func Check(p *program.Program) *Report {
	r := &Report{Prog: p}
	if err := p.Validate(); err != nil {
		r.Findings = []Finding{{
			Inst: -1, Pass: "validate", Severity: SevError,
			Msg: err.Error(),
		}}
		return r
	}
	g, err := cfg.Build(p)
	if err != nil {
		// Unreachable after Validate, but keep the failure shape uniform.
		r.Findings = []Finding{{
			Inst: -1, Pass: "validate", Severity: SevError,
			Msg: err.Error(),
		}}
		return r
	}
	r.Graph = g
	r.Forest = g.LoopForest()

	c := &checker{
		prog:     p,
		g:        g,
		memSize:  vm.MemSize(p),
		ivals:    make([]*dataflow.Result[dataflow.Regs], len(g.Funcs)),
		defined:  make([]*dataflow.Result[dataflow.RegSet], len(g.Funcs)),
		funcLive: make([]bool, len(g.Funcs)),
		facts:    newFacts(len(p.Code), vm.MemSize(p)),
	}
	c.solve()
	c.walk()
	SortFindings(c.findings)
	r.Findings = c.findings
	r.Facts = c.facts
	return r
}

// solve runs the dataflow analyses over every live function,
// discovering function liveness interprocedurally: the entry function
// is live, and a callee is live when some live function calls it from
// a block the interval analysis proves reachable.
func (c *checker) solve() {
	var queue []int
	for _, fn := range c.g.Funcs {
		if fn.Entry == 0 {
			c.funcLive[fn.ID] = true
			queue = append(queue, fn.ID)
		}
	}
	for len(queue) > 0 {
		fid := queue[0]
		queue = queue[1:]
		fn := c.g.Funcs[fid]
		res := dataflow.Solve[dataflow.Regs](c.g, fn, dataflow.NewIntervals(c.g, fn, c.memSize))
		c.ivals[fid] = res

		var entry dataflow.RegSet
		if fn.Entry == 0 {
			// The VM zeroes every register before the first instruction,
			// but only RSP carries a *meaningful* value at entry; treating
			// the rest as undefined flags code that silently leans on
			// incidental zero-initialization.
			entry = 1 << isa.RSP
		} else {
			// A callee legitimately receives arguments in any register.
			entry = ^dataflow.RegSet(0)
		}
		c.defined[fid] = dataflow.Solve[dataflow.RegSet](c.g, fn, dataflow.NewDefined(c.g, entry))

		for _, cs := range c.g.Calls {
			if cs.Caller != fid || c.funcLive[cs.Callee] {
				continue
			}
			if !res.InAt(cs.Block).Live {
				continue // the call site itself is proven unreachable
			}
			c.funcLive[cs.Callee] = true
			queue = append(queue, cs.Callee)
		}
	}
}

// walk emits findings and facts block by block.
func (c *checker) walk() {
	// Dead functions get one finding each, at their entry.
	for _, fn := range c.g.Funcs {
		if c.funcLive[fn.ID] {
			continue
		}
		c.add(fn.Entry, "unreachable", SevWarn,
			"dead code: function is never called from reachable code")
	}

	for _, b := range c.g.Blocks {
		switch {
		case b.Fn < 0:
			c.markUnreachable(b)
			c.add(b.Start, "unreachable", SevWarn,
				"dead code: block unreachable from any entry point")
		case !c.funcLive[b.Fn]:
			c.markUnreachable(b) // covered by the per-function finding
		case !c.ivals[b.Fn].InAt(b.ID).Live:
			c.markUnreachable(b)
			c.add(b.Start, "unreachable", SevWarn,
				"dead code: every path into this block is contradicted by branch conditions")
		default:
			c.walkBlock(b)
		}
	}
}

// walkBlock replays the block's abstract execution instruction by
// instruction from its solved entry facts, emitting the oob, resolved,
// and uninit findings and recording the corresponding proven facts.
func (c *checker) walkBlock(b *cfg.Block) {
	regs := c.ivals[b.Fn].InAt(b.ID)
	defined := c.defined[b.Fn].InAt(b.ID)
	code := c.prog.Code
	valid := dataflow.Interval{Lo: 0, Hi: int64(c.memSize) - 1}
	var rbuf [2]isa.Reg

	for i := b.Start; i < b.End; i++ {
		in := code[i]
		for _, r := range dataflow.ReadRegs(in, rbuf[:0]) {
			if !defined.Has(r) {
				c.add(i, "uninit", SevWarn,
					fmt.Sprintf("read of r%d which no definition reaches", r))
			}
		}
		switch {
		case in.Op == isa.OpLoad || in.Op == isa.OpStore:
			addr := dataflow.AddrInterval(&regs, in)
			c.facts.BoundsKnown[i] = true
			c.facts.Bounds[i] = addr
			if addr.Intersect(valid).Empty() {
				kind := "load"
				if in.Op == isa.OpStore {
					kind = "store"
				}
				c.add(i, "oob", SevError,
					fmt.Sprintf("%s address %s is provably outside memory [0,%d)", kind, addr, c.memSize))
			}
		case in.Op.IsCondBranch():
			switch dataflow.ResolveBranch(&regs, in) {
			case +1:
				c.facts.ResolvedKnown[i] = true
				c.facts.ResolvedTaken[i] = true
				c.add(i, "resolved", SevInfo, "conditional branch is provably always taken")
			case -1:
				c.facts.ResolvedKnown[i] = true
				c.add(i, "resolved", SevInfo, "conditional branch is provably never taken")
			}
		}
		dataflow.ExecInst(&regs, i, in)
		defined = dataflow.Define(defined, in)
	}
}

func (c *checker) markUnreachable(b *cfg.Block) {
	for i := b.Start; i < b.End; i++ {
		c.facts.Unreachable[i] = true
	}
}

func (c *checker) add(inst int, pass string, sev Severity, msg string) {
	var pc uint64
	if inst >= 0 {
		pc = isa.PCOf(inst)
	}
	c.findings = append(c.findings, Finding{
		Inst: inst, PC: pc, Pass: pass, Severity: sev, Msg: msg,
	})
}
