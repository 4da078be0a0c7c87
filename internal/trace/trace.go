// Package trace holds the conditional-branch event stream and the
// operations on it that the pipeline shares.
//
// The stream is the interface between the execution substrate (package
// vm running package workload programs) and everything the paper
// builds: the working-set profiler, the allocator, and the predictors
// all consume the (pc, taken, instruction-count) events a run delivers
// to a sink. Nothing retains a whole stream: the VM is deterministic, so
// a consumer that needs the stream twice executes the program twice.
// The package implements the static-branch frequency filter behind
// Table 1's "percentage of dynamic branches analyzed" (a FreqCounter
// pass, FilterByCoverage, then a FilterSink on the second pass) and a
// bounded Ring for printing a stream's tail.
package trace

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
// frequency-ordered per-branch statistics, as FreqCounter.Stats
// produces them.
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
