package progcheck

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/vm"
)

// Facts is the machine-checkable subset of a Report: per-instruction
// claims the analysis *proved*, each of which must hold on every
// dynamic execution of the program. CrossCheck replays them against a
// live VM run; any violation is a soundness bug in the analyzer, the
// CFG builder, or the VM itself.
type Facts struct {
	// MemSize is the data-memory size (vm.MemSize) the bounds below are
	// relative to.
	MemSize int
	// Unreachable[i] claims instruction i never executes.
	Unreachable []bool
	// ResolvedKnown[i] claims conditional branch i always resolves in
	// the ResolvedTaken[i] direction.
	ResolvedKnown []bool
	ResolvedTaken []bool
	// BoundsKnown[i] claims every effective address of load/store i
	// falls inside Bounds[i] (which may be wholly outside memory — that
	// is the oob finding).
	BoundsKnown []bool
	Bounds      []dataflow.Interval
}

func newFacts(n, memSize int) *Facts {
	return &Facts{
		MemSize:       memSize,
		Unreachable:   make([]bool, n),
		ResolvedKnown: make([]bool, n),
		ResolvedTaken: make([]bool, n),
		BoundsKnown:   make([]bool, n),
		Bounds:        make([]dataflow.Interval, n),
	}
}

// oracle is the vm.Probe that checks Facts against a live execution.
type oracle struct {
	f     *Facts
	inner vm.Probe
	err   error
}

// Step implements vm.Probe.
func (o *oracle) Step(idx int) {
	if o.inner != nil {
		o.inner.Step(idx)
	}
	if o.err == nil && idx < len(o.f.Unreachable) && o.f.Unreachable[idx] {
		o.err = fmt.Errorf("crosscheck: inst %d proven unreachable but executed", idx) //reprolint:allow hotpath fires at most once, only on a soundness violation
	}
}

// MemAccess implements vm.Probe.
func (o *oracle) MemAccess(idx int, addr int64, store bool) {
	if o.inner != nil {
		o.inner.MemAccess(idx, addr, store)
	}
	if o.err == nil && idx < len(o.f.BoundsKnown) && o.f.BoundsKnown[idx] && !o.f.Bounds[idx].Contains(addr) {
		o.err = fmt.Errorf("crosscheck: inst %d accessed address %d outside proven bounds %s", //reprolint:allow hotpath fires at most once, only on a soundness violation
			idx, addr, o.f.Bounds[idx])
	}
}

// CrossCheck runs p under cfg with every proven fact armed as a
// runtime assertion: proven-unreachable instructions must not execute,
// memory accesses must land in their proven address intervals, and
// resolved branches must go their proven way. Any existing Probe or
// Sink in cfg keeps observing the run unchanged.
//
// A fact violation is returned as the error (and invalidates the run);
// otherwise the VM's own outcome is passed through, so a runtime fault
// in a program whose facts all held is still reported — fuzzed
// programs fault legitimately, and the facts must hold right up to the
// faulting instruction.
func CrossCheck(p *program.Program, f *Facts, cfg vm.Config) (vm.Stats, error) {
	o := &oracle{f: f, inner: cfg.Probe}
	cfg.Probe = o
	inner := cfg.Sink
	cfg.Sink = vm.BranchFunc(func(pc uint64, taken bool, icount uint64) {
		if inner != nil {
			inner.Branch(pc, taken, icount)
		}
		idx := isa.IndexOf(pc)
		if o.err == nil && idx < len(f.ResolvedKnown) && f.ResolvedKnown[idx] && taken != f.ResolvedTaken[idx] {
			want := "never"
			if f.ResolvedTaken[idx] {
				want = "always"
			}
			o.err = fmt.Errorf("crosscheck: branch at inst %d proven %s taken but went the other way at icount %d",
				idx, want, icount)
		}
	})
	st, runErr := vm.Run(p, cfg)
	if o.err != nil {
		return st, o.err
	}
	return st, runErr
}
