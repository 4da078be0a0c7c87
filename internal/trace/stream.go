package trace

// This file holds the streaming (fused single-pass) counterparts of the
// recorded-trace operations: a frequency pre-counter that computes the
// per-branch statistics FilterByCoverage takes without retaining events,
// a keep-set filter sink that narrows a live stream to the analyzed
// branches, and a bounded ring that retains only the tail of a stream
// for trace dumps. Together they let a run fan out through vm.MultiSink
// to the profiler and predictor sims with no full-trace residency.

import "sort"

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
//
// Branch PCs are word-aligned instruction addresses, so counts live in
// a flat slice indexed by pc/4 (grown geometrically); a map covers
// unaligned or very large PCs, which no VM-generated stream produces.
type FreqCounter struct {
	dense  []BranchStat // indexed by pc/4; Count == 0 marks unseen
	counts map[uint64]*BranchStat
}

// freqMaxDenseWords bounds the dense table (1<<22 word PCs).
const freqMaxDenseWords = 1 << 22

// Branch consumes one event.
//
//reprolint:hotpath frequency pre-count sink
func (f *FreqCounter) Branch(pc uint64, taken bool, icount uint64) {
	if w := pc >> 2; pc&3 == 0 && w < uint64(len(f.dense)) {
		s := &f.dense[w]
		s.PC = pc
		s.Count++
		if taken {
			s.Taken++
		}
		return
	}
	f.branchSlow(pc, taken)
}

// branchSlow grows the dense table on first out-of-range aligned PC and
// keeps truly hostile PCs in a map.
func (f *FreqCounter) branchSlow(pc uint64, taken bool) {
	if w := pc >> 2; pc&3 == 0 && w < freqMaxDenseWords {
		n := 2 * len(f.dense)
		if n <= int(w) {
			n = int(w) + 1
		}
		if n < 1024 {
			n = 1024
		}
		grown := make([]BranchStat, n) //reprolint:allow hotpath amortized geometric growth of the dense count table
		copy(grown, f.dense)
		f.dense = grown
		f.Branch(pc, taken, 0)
		return
	}
	if f.counts == nil {
		f.counts = make(map[uint64]*BranchStat) //reprolint:allow hotpath cold fallback for unaligned or out-of-range pcs
	}
	s := f.counts[pc] //reprolint:allow hotpath cold fallback for unaligned or out-of-range pcs
	if s == nil {
		s = &BranchStat{PC: pc} //reprolint:allow hotpath cold fallback for unaligned or out-of-range pcs
		f.counts[pc] = s        //reprolint:allow hotpath cold fallback for unaligned or out-of-range pcs
	}
	s.Count++
	if taken {
		s.Taken++
	}
}

// Stats returns the accumulated per-branch statistics in the same order
// Trace.Stats produces: descending dynamic count, ties by PC.
func (f *FreqCounter) Stats() []BranchStat {
	out := make([]BranchStat, 0, len(f.counts))
	for i := range f.dense {
		if f.dense[i].Count > 0 {
			out = append(out, f.dense[i])
		}
	}
	for _, s := range f.counts {
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

// Total returns the dynamic and static branch counts seen so far.
func (f *FreqCounter) Total() (dynamic uint64, static int) {
	for i := range f.dense {
		if c := f.dense[i].Count; c > 0 {
			dynamic += c
			static++
		}
	}
	for _, s := range f.counts {
		dynamic += s.Count
		static++
	}
	return dynamic, static
}

// FilterSink forwards only events of branches in Keep to Sink. Feeding
// a stream through a FilterSink whose keep set came from
// FilterByCoverage delivers the frequency-filtered stream: the events
// of the retained branches, in their original order.
//
// Construct with NewFilterSink for the flat-bitset membership test;
// a literal FilterSink{Keep: ..., Sink: ...} still works but tests
// membership through the map on every event.
type FilterSink struct {
	Keep map[uint64]struct{}
	Sink Sink

	// keepBits is bit pc/4 of the keep set over word-aligned PCs,
	// precomputed by NewFilterSink.
	keepBits []uint64
}

// NewFilterSink returns a FilterSink whose per-event membership test is
// two word loads: keep is flattened into a bitset over word-aligned
// PCs. PCs outside the bitset's range (including unaligned ones, which
// no VM-generated stream produces) fall back to the map.
func NewFilterSink(keep map[uint64]struct{}, sink Sink) FilterSink {
	f := FilterSink{Keep: keep, Sink: sink}
	maxW := -1
	for pc := range keep {
		if w := pc >> 2; pc&3 == 0 && w < freqMaxDenseWords {
			if int(w) > maxW {
				maxW = int(w)
			}
		}
	}
	if maxW >= 0 {
		f.keepBits = make([]uint64, maxW/64+1)
		for pc := range keep {
			if w := pc >> 2; pc&3 == 0 && w < freqMaxDenseWords {
				f.keepBits[w>>6] |= 1 << (w & 63)
			}
		}
	}
	return f
}

// Branch forwards the event if its branch is retained.
//
//reprolint:hotpath stream filter sink
func (f FilterSink) Branch(pc uint64, taken bool, icount uint64) {
	if w := pc >> 2; pc&3 == 0 && w>>6 < uint64(len(f.keepBits)) {
		if f.keepBits[w>>6]>>(w&63)&1 == 1 {
			f.Sink.Branch(pc, taken, icount)
		}
		return
	}
	f.branchSlow(pc, taken, icount)
}

// branchSlow is the map-membership path for PCs outside the bitset and
// for literal-constructed sinks with no bitset at all.
func (f FilterSink) branchSlow(pc uint64, taken bool, icount uint64) {
	if _, ok := f.Keep[pc]; ok { //reprolint:allow hotpath cold fallback for literal-constructed sinks and out-of-range pcs
		f.Sink.Branch(pc, taken, icount)
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
