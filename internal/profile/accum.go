package profile

import "repro/internal/obs"

// Flat-table pair accumulation. The profiler's recency scan produces,
// per event, the executing branch id and a contiguous prefix of the
// recency list — its interleave partners. The profiler coalesces a
// branch's repeats of one prefix into a single weighted header, and
// each header is bulk-copied (one memmove, no per-key work) into a
// struct-of-arrays staging batch; a full batch is applied to the
// per-branch counters grouped by destination, so one branch's counter
// is brought into cache once per batch and takes every one of its
// increments while hot, instead of being re-fetched on every event.
// Grouping is what makes pair counting fast: ungrouped, each event
// scatters to a different branch's table and every increment pays a
// cache miss.
//
// Within one destination, the batch's increments are tallied in a dense
// per-partner array and each distinct partner's total reaches the
// counter in one add, so the hash probe is paid per distinct partner
// per batch rather than per increment.
//
// Determinism: a batch is applied grouped by destination but *stably* —
// events of one branch keep their stream order — and partners' totals
// are added in first-increment order, so each counter inserts exactly
// the sequence of new keys an unbatched per-increment loop would insert.
// Counters grow only on inserting a new key, so counter contents and
// even slot layouts are identical for every batch geometry; extraction
// walks ids in ascending order and each counter in slot order, making
// the extracted profile byte-identical by construction (DESIGN.md §15).

const (
	// stagingPartners is the staging budget: the most partner entries
	// one batch holds. Batches must be large enough that a hot branch
	// recurs many times per batch — that is the cache amortization.
	stagingPartners = 1 << 20
	// minBatchPartners is the size a profiler's first batch starts at.
	minBatchPartners = 1 << 12
	// batchRecurrence bounds a batch's growth by the stream's branch
	// count: a batch over numIDs branches holds at most numIDs² distinct
	// pairs, so at batchRecurrence × numIDs² partners each distinct pair
	// already recurs that often per batch on average, and a larger batch
	// buys no amortization, only memory. Streams over more than ~32
	// branches reach the full budget.
	batchRecurrence = 1024
)

// stagingBatch is one struct-of-arrays staging unit: header i stages
// branch ids[i]'s interleave prefix, the next lens[i] entries of
// partners, reps[i] times over (the profiler coalesces a branch's
// unchanged prefix into one weighted header).
type stagingBatch struct {
	ids      []int32
	lens     []int32
	reps     []uint32
	partners []int32
}

func newStagingBatch(partnersCap int) *stagingBatch {
	eventsCap := partnersCap / 4
	return &stagingBatch{ //reprolint:allow hotpath per-interval batch provisioning, not per event
		ids:      make([]int32, 0, eventsCap),   //reprolint:allow hotpath per-interval batch provisioning, not per event
		lens:     make([]int32, 0, eventsCap),   //reprolint:allow hotpath per-interval batch provisioning, not per event
		reps:     make([]uint32, 0, eventsCap),  //reprolint:allow hotpath per-interval batch provisioning, not per event
		partners: make([]int32, 0, partnersCap), //reprolint:allow hotpath per-interval batch provisioning, not per event
	}
}

// grow doubles the batch's capacity, up to partnersCap, keeping its
// contents.
func (b *stagingBatch) grow(partnersCap int) {
	g := newStagingBatch(min(2*cap(b.partners), partnersCap))
	b.ids = append(g.ids, b.ids...)                //reprolint:allow hotpath batch growth, at most log2(stagingPartners/minBatchPartners) times per profiler
	b.lens = append(g.lens, b.lens...)             //reprolint:allow hotpath batch growth, at most log2(stagingPartners/minBatchPartners) times per profiler
	b.reps = append(g.reps, b.reps...)             //reprolint:allow hotpath batch growth, at most log2(stagingPartners/minBatchPartners) times per profiler
	b.partners = append(g.partners, b.partners...) //reprolint:allow hotpath batch growth, at most log2(stagingPartners/minBatchPartners) times per profiler
}

// reset clears the batch for reuse, keeping its allocations.
func (b *stagingBatch) reset() {
	b.ids = b.ids[:0]
	b.lens = b.lens[:0]
	b.reps = b.reps[:0]
	b.partners = b.partners[:0]
}

// applyScratch is the workspace for grouped batch apply:
// per-destination chain heads/tails, per-event links/offsets, and the
// dense per-partner tally of one row, reused across batches.
type applyScratch struct {
	head    []int32 // per destination row; -1 when untouched
	tail    []int32
	next    []int32 // per event header
	offs    []int32
	touched []int32
	tally   []uint32 // per partner id; zero between rows
	order   []int32  // one row's distinct partners, first touch first
}

// applyBatch applies one batch to the per-branch counters, grouped
// stably by destination row (the executing branch id); every id and
// partner in the batch is below numIDs. Each row's increments are
// tallied densely by partner id in stream order, a header's partners
// reps[i] apiece,
// then every distinct partner's total is added to the row's counter
// once, in first-increment order — so new keys enter the counter in
// exactly the order per-increment adds would insert them. A tally
// never exceeds its pair's count, which the profiler keeps below 2^32
// (maxEvents). Returns the (possibly grown) counters.
func applyBatch(b *stagingBatch, numIDs int, tabs []nbrCounter, sc *applyScratch) []nbrCounter {
	n := len(b.ids)
	if n == 0 {
		return tabs
	}
	if cap(sc.next) < n {
		sc.next = make([]int32, n) //reprolint:allow hotpath scratch sized once per batch geometry, reused across batches
		sc.offs = make([]int32, n) //reprolint:allow hotpath scratch sized once per batch geometry, reused across batches
	}
	next, offs := sc.next[:n], sc.offs[:n]

	if numIDs > len(tabs) {
		tabs = growCounters(tabs, numIDs)
	}
	if len(sc.head) < numIDs {
		sc.head = make([]int32, numIDs+64) //reprolint:allow hotpath scratch grows with the static branch count, O(log) times per run
		sc.tail = make([]int32, numIDs+64) //reprolint:allow hotpath scratch grows with the static branch count, O(log) times per run
		for i := range sc.head {
			sc.head[i] = -1
		}
	}
	if len(sc.tally) < numIDs {
		sc.tally = make([]uint32, numIDs+64) //reprolint:allow hotpath scratch grows with the static branch count, O(log) times per run
		sc.order = make([]int32, numIDs+64)  //reprolint:allow hotpath scratch grows with the static branch count, O(log) times per run
	}

	// Pass 1: chain the batch's events per destination row, stably.
	sc.touched = sc.touched[:0]
	off := int32(0)
	for i, id := range b.ids {
		offs[i] = off
		off += b.lens[i]
		next[i] = -1
		if sc.head[id] < 0 {
			sc.head[id] = int32(i)
			sc.touched = append(sc.touched, id) //reprolint:allow hotpath bounded by distinct branches per batch, reused backing array
		} else {
			next[sc.tail[id]] = int32(i)
		}
		sc.tail[id] = int32(i)
	}

	// Pass 2: per destination, walk its chain tallying every increment
	// into the dense array, then add each distinct partner's total to
	// the counter once — one hash probe per partner instead of one per
	// increment.
	tally, order := sc.tally, sc.order
	for _, r := range sc.touched {
		distinct := 0
		for i := sc.head[r]; i >= 0; i = next[i] {
			rep := b.reps[i]
			for _, cur := range b.partners[offs[i] : offs[i]+b.lens[i]] {
				if tally[cur] == 0 {
					order[distinct] = cur
					distinct++
				}
				tally[cur] += rep
			}
		}
		t := &tabs[r]
		for _, cur := range order[:distinct] {
			t.addN(cur, tally[cur])
			tally[cur] = 0
		}
		sc.head[r] = -1
	}
	return tabs
}

// growCounters extends the per-branch counters geometrically.
func growCounters(tabs []nbrCounter, n int) []nbrCounter {
	size := cap(tabs)
	if size < 64 {
		size = 64
	}
	for size < n {
		size *= 2
	}
	grown := make([]nbrCounter, n, size) //reprolint:allow hotpath amortized geometric growth, O(log static-branches) times per run
	copy(grown, tabs)
	return grown
}

// pairAccum stages weighted partner prefixes and applies each full
// batch to the per-branch counters, on the goroutine that feeds the
// profiler.
type pairAccum struct {
	batchCap int // partner entries per batch
	// numIDs is the profiler's branch-id count; every staged id and
	// partner is below it, which sizes the apply scratch without
	// rescanning the batch.
	numIDs int

	// tabs[id] is branch id's counter.
	tabs    []nbrCounter
	scratch applyScratch
	cur     *stagingBatch // batch being filled

	// batches counts applied batches (optional, nil-safe).
	batches *obs.Counter
}

// emit stages branch id's partner prefix, rep times over: a bulk append
// (memmove) into the current batch, applying it when full.
// A profiler's first batch starts at minBatchPartners and doubles when
// full, up to batchCap and to batchRecurrence × numIDs², so a stream
// over few branches — a graph kernel's — never stages the whole budget.
// Oversized prefixes are chunked across batches; counts are preserved
// because apply walks increments per header and every chunk carries
// rep.
func (s *pairAccum) emit(id int32, partners []int32, rep uint32) {
	for len(partners) > 0 {
		b := s.cur
		if b == nil {
			b = newStagingBatch(min(minBatchPartners, s.batchCap))
			s.cur = b
		}
		room := cap(b.partners) - len(b.partners)
		if room == 0 || len(b.ids) == cap(b.ids) {
			if c := cap(b.partners); c < s.batchCap && c < batchRecurrence*s.numIDs*s.numIDs {
				b.grow(s.batchCap)
			} else {
				s.flush()
			}
			continue
		}
		n := len(partners)
		if n > room {
			n = room
		}
		b.ids = append(b.ids, id)                        //reprolint:allow hotpath append within fixed batch capacity; flush guarantees room
		b.lens = append(b.lens, int32(n))                //reprolint:allow hotpath append within fixed batch capacity; flush guarantees room
		b.reps = append(b.reps, rep)                     //reprolint:allow hotpath append within fixed batch capacity; flush guarantees room
		b.partners = append(b.partners, partners[:n]...) //reprolint:allow hotpath append within fixed batch capacity; flush guarantees room
		partners = partners[n:]
	}
}

// flush applies the current batch and empties it for reuse. On return
// the counters hold every increment staged so far; accumulation can
// resume afterwards.
func (s *pairAccum) flush() {
	b := s.cur
	if b == nil || len(b.ids) == 0 {
		return
	}
	s.tabs = applyBatch(b, s.numIDs, s.tabs, &s.scratch)
	b.reset()
	s.batches.Inc()
}

// tableBytes reports the counters' footprint.
func (s *pairAccum) tableBytes() uint64 {
	var total uint64
	for i := range s.tabs {
		total += s.tabs[i].bytes()
	}
	return total
}
