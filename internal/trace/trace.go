// Package trace models conditional-branch execution traces.
//
// A trace is the interface between the execution substrate (package vm
// running package workload programs) and everything the paper builds:
// the working-set profiler, the allocator, and the predictors all consume
// the (pc, taken, instruction-count) event stream defined here. The
// package also implements the static-branch frequency filter behind
// Table 1's "percentage of dynamic branches analyzed" and a compact
// binary on-disk format so traces can be collected once and re-analyzed.
package trace

import (
	"sort"
)

// Event is one retired conditional branch.
type Event struct {
	// PC is the byte address of the static branch instruction.
	PC uint64
	// ICount is the number of instructions retired before this one; it
	// is the paper's branch time stamp.
	ICount uint64
	// Taken is the resolved direction.
	Taken bool
}

// Trace is a recorded branch stream with its provenance.
type Trace struct {
	// Benchmark names the program that produced the trace.
	Benchmark string
	// InputSet names the input-set variant (e.g. "a", "b").
	InputSet string
	// Instructions is the total retired instruction count of the run.
	Instructions uint64
	// Events holds the branch stream in execution order.
	Events []Event
}

// Recorder accumulates events from a vm run; it implements vm.BranchSink
// by structural match (Branch method).
type Recorder struct {
	trace Trace
}

// NewRecorder returns a Recorder for the named benchmark and input set.
func NewRecorder(benchmark, inputSet string) *Recorder {
	return &Recorder{trace: Trace{Benchmark: benchmark, InputSet: inputSet}}
}

// Reserve pre-sizes the event buffer for an expected dynamic-branch
// count, eliminating append regrowth over the run. Workload specs know
// their schedule length, so the recording path can reserve exactly.
func (r *Recorder) Reserve(events int) {
	if events <= 0 || events <= cap(r.trace.Events) {
		return
	}
	grown := make([]Event, len(r.trace.Events), events)
	copy(grown, r.trace.Events)
	r.trace.Events = grown
}

// Branch records one event.
//
//reprolint:hotpath trace recording sink
func (r *Recorder) Branch(pc uint64, taken bool, icount uint64) {
	r.trace.Events = append(r.trace.Events, Event{PC: pc, ICount: icount, Taken: taken}) //reprolint:allow hotpath Reserve pre-sizes the buffer; growth only without a reservation
}

// Finish stamps the run's total instruction count and returns the trace.
// The Recorder must not be used afterwards.
func (r *Recorder) Finish(instructions uint64) *Trace {
	r.trace.Instructions = instructions
	t := r.trace
	r.trace = Trace{}
	return &t
}

// BranchStat aggregates one static branch's dynamic behaviour.
type BranchStat struct {
	PC    uint64
	Count uint64 // dynamic executions
	Taken uint64 // of which taken
}

// TakenRate returns the branch's taken fraction.
func (s BranchStat) TakenRate() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Taken) / float64(s.Count)
}

// Stats computes per-static-branch statistics, ordered by descending
// dynamic count (ties broken by PC for determinism).
func (t *Trace) Stats() []BranchStat {
	m := make(map[uint64]*BranchStat)
	for _, e := range t.Events {
		s := m[e.PC]
		if s == nil {
			s = &BranchStat{PC: e.PC}
			m[e.PC] = s
		}
		s.Count++
		if e.Taken {
			s.Taken++
		}
	}
	out := make([]BranchStat, 0, len(m))
	for _, s := range m {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// FilterResult describes the outcome of a frequency filter.
type FilterResult struct {
	// Keep is the set of retained static branch PCs. Feeding a stream
	// through NewFilterSink(Keep, sink) yields the filtered stream.
	Keep map[uint64]struct{}
	// StaticKept and StaticTotal count static branches.
	StaticKept, StaticTotal int
	// DynamicKept and DynamicTotal count dynamic branch executions.
	DynamicKept, DynamicTotal uint64
}

// Coverage returns the fraction of dynamic branches retained — the
// quantity reported in Table 1's final column.
func (f FilterResult) Coverage() float64 {
	if f.DynamicTotal == 0 {
		return 0
	}
	return float64(f.DynamicKept) / float64(f.DynamicTotal)
}

// FilterByCoverage retains the most frequently executed static branches,
// fewest first dropped, until at least the requested fraction of dynamic
// branches is covered. The paper reduces each benchmark's static branch
// population this way "based on the frequency of occurrences" to keep
// analysis time and space reasonable (Section 3, Table 1). stats are
// frequency-ordered per-branch statistics, as Trace.Stats and
// FreqCounter.Stats produce them.
func FilterByCoverage(stats []BranchStat, coverage float64) FilterResult {
	var total uint64
	for _, s := range stats {
		total += s.Count
	}
	target := uint64(coverage * float64(total))
	keep := make(map[uint64]struct{}, len(stats))
	var dynKept uint64
	for _, s := range stats {
		if dynKept >= target && len(keep) > 0 {
			break
		}
		keep[s.PC] = struct{}{}
		dynKept += s.Count
	}
	return FilterResult{
		Keep:         keep,
		StaticKept:   len(keep),
		StaticTotal:  len(stats),
		DynamicKept:  dynKept,
		DynamicTotal: total,
	}
}

// SelectByCoverage is FilterByCoverage's keep set with its covered
// dynamic count.
func SelectByCoverage(stats []BranchStat, coverage float64) (keep map[uint64]struct{}, dynKept uint64) {
	f := FilterByCoverage(stats, coverage)
	return f.Keep, f.DynamicKept
}

// Replay feeds the trace to sink in order. Any type with the
// vm.BranchSink method shape works.
func (t *Trace) Replay(sink interface {
	Branch(pc uint64, taken bool, icount uint64)
}) {
	for _, e := range t.Events {
		sink.Branch(e.PC, e.Taken, e.ICount)
	}
}
