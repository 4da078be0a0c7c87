package trace

// This file holds the streaming (fused single-pass) counterparts of the
// recorded-trace operations: a frequency pre-counter that computes the
// per-branch statistics FilterByCoverage takes without retaining events,
// a keep-set filter sink that narrows a live stream to the analyzed
// branches, and a bounded ring that retains only the tail of a stream
// for trace dumps. Together they let a run fan out through vm.MultiSink
// to the profiler and predictor sims with no full-trace residency.

import (
	"slices"
	"sort"

	"repro/internal/isa"
)

// Sink is the structural branch-event consumer interface (the shape of
// vm.BranchSink, declared here so the trace package stays free of a vm
// dependency).
type Sink interface {
	Branch(pc uint64, taken bool, icount uint64)
}

// FreqCounter accumulates per-static-branch execution counts from a
// live stream — the frequency pre-count pass of fused execution. Its
// memory is O(static branches), against O(dynamic branches) for a
// recorded trace. The zero value is ready to use.
type FreqCounter struct {
	ix    isa.PCIndex
	stats []BranchStat // by ix id
}

// Branch consumes one event.
//
//reprolint:hotpath frequency pre-count sink
func (f *FreqCounter) Branch(pc uint64, taken bool, icount uint64) {
	id, ok := f.ix.Lookup(pc)
	if !ok {
		id = f.add(pc)
	}
	s := &f.stats[id]
	s.Count++
	if taken {
		s.Taken++
	}
}

// add discovers a static branch.
func (f *FreqCounter) add(pc uint64) int32 {
	f.stats = append(f.stats, BranchStat{PC: pc}) //reprolint:allow hotpath first sight of a static branch, amortized over the stream
	return f.ix.Intern(pc)
}

// Stats returns the accumulated per-branch statistics ordered by
// descending dynamic count, ties by PC.
func (f *FreqCounter) Stats() []BranchStat {
	out := slices.Clone(f.stats)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// Total returns the dynamic and static branch counts seen so far.
func (f *FreqCounter) Total() (dynamic uint64, static int) {
	for _, s := range f.stats {
		dynamic += s.Count
	}
	return dynamic, len(f.stats)
}

// FilterSink forwards only the events of a keep set's branches to a
// sink. Feeding a stream through a FilterSink whose keep set came from
// FilterByCoverage delivers the frequency-filtered stream: the events
// of the retained branches, in their original order.
type FilterSink struct {
	keep isa.PCSet
	sink Sink
}

// NewFilterSink returns a FilterSink over keep; its per-event
// membership test is a bitset probe.
func NewFilterSink(keep map[uint64]struct{}, sink Sink) FilterSink {
	pcs := make([]uint64, 0, len(keep))
	for pc := range keep {
		pcs = append(pcs, pc)
	}
	slices.Sort(pcs)
	return FilterSink{keep: isa.NewPCSet(pcs), sink: sink}
}

// Branch forwards the event if its branch is retained.
//
//reprolint:hotpath stream filter sink
func (f FilterSink) Branch(pc uint64, taken bool, icount uint64) {
	if f.keep.Has(pc) {
		f.sink.Branch(pc, taken, icount)
	}
}

// Ring retains the most recent events of a stream in a fixed-size
// buffer. It is the fused-mode answer to trace dumps: where the
// recording path can save a full trace, a streaming run attaches a Ring
// and keeps only the bounded tail (e.g. for branchsim's -tail output).
type Ring struct {
	buf   []Event
	next  int
	total uint64
}

// NewRing returns a ring retaining the last n events (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, 0, n)}
}

// Branch records one event, evicting the oldest once full.
//
//reprolint:hotpath trace tail ring sink
func (r *Ring) Branch(pc uint64, taken bool, icount uint64) {
	e := Event{PC: pc, ICount: icount, Taken: taken}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e) //reprolint:allow hotpath appends only up to the fixed ring capacity, never regrows
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
}

// Total returns the number of events seen (retained or evicted).
func (r *Ring) Total() uint64 { return r.total }

// Tail returns the retained events, oldest first.
func (r *Ring) Tail() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
