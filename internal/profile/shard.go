package profile

import (
	"sync"

	"repro/internal/obs"
)

// Flat-table pair accumulation. The profiler's recency scan produces,
// per event, the executing branch id and a contiguous prefix of the
// recency list — its interleave partners. Those are bulk-copied (one
// memmove, no per-key work) into a struct-of-arrays staging batch; a
// full batch is applied to the per-branch counters grouped by
// destination, so one branch's counter is brought into cache once per
// batch and takes every one of its increments while hot, instead of
// being re-fetched on every event. Grouping is what makes pair counting
// fast: ungrouped, each event scatters to a different branch's table
// and every increment pays a cache miss.
//
// Sharded mode (P > 1) partitions the counters by executing branch id:
// worker w owns ids ≡ w (mod P) and applies the batches the producer
// routes to it. No lock, channel, or map is touched per increment —
// hand-off is per batch. Serial mode (P = 1) is the same engine with
// the apply running synchronously in the producer.
//
// Within one destination, the batch's increments are tallied in a dense
// per-partner array and each distinct partner's total reaches the
// counter in one add, so the hash probe is paid per distinct partner
// per batch rather than per increment.
//
// Determinism: a batch is applied grouped by destination but *stably* —
// events of one branch keep their stream order — and partners' totals
// are added in first-increment order, so each counter inserts exactly
// the sequence of new keys an unbatched serial loop would insert.
// Counters grow only on inserting a new key, so counter contents and
// even slot layouts are identical for every shard count P and every
// batch geometry; extraction walks ids in ascending order and each
// counter in slot order, making the extracted profile byte-identical by
// construction (DESIGN.md §15).

const (
	// stagingPartners is the total partner-staging budget (entries
	// across all workers' circulating batches). Batches must be large
	// enough that a hot branch recurs many times per batch — that is
	// the cache amortization — but the budget, not the shard count,
	// bounds staging memory: per-worker batches shrink as P grows.
	stagingPartners = 1 << 20
	// shardFreeDepth is how many spare batches cycle per worker beyond
	// the one the producer fills. Two gives double buffering: the
	// producer fills one while the worker drains another, and blocks
	// (bounded memory) if the worker falls behind.
	shardFreeDepth = 2
	// minBatchPartners is the smallest batch: the floor of a sharded
	// batch, and the size a producer's first batch starts at.
	minBatchPartners = 1 << 12
	// batchRecurrence bounds a batch's growth by the stream's branch
	// count: a batch over numIDs branches holds at most numIDs² distinct
	// pairs, so at batchRecurrence × numIDs² partners each distinct pair
	// already recurs that often per batch on average, and a larger batch
	// buys no amortization, only memory. Streams over more than ~32
	// branches reach the full budget, with the flush points of a batch
	// allocated at full size.
	batchRecurrence = 1024
)

// shardBatch is one struct-of-arrays staging unit: event i executed
// branch ids[i] and its interleave partners are the next lens[i]
// entries of partners. Every id and partner is below numIDs, the
// producer's branch-id count when the batch was handed off.
type shardBatch struct {
	ids      []int32
	lens     []int32
	partners []int32
	numIDs   int
}

func newShardBatch(partnersCap int) *shardBatch {
	eventsCap := partnersCap / 4
	return &shardBatch{ //reprolint:allow hotpath per-interval batch provisioning, not per event
		ids:      make([]int32, 0, eventsCap),   //reprolint:allow hotpath per-interval batch provisioning, not per event
		lens:     make([]int32, 0, eventsCap),   //reprolint:allow hotpath per-interval batch provisioning, not per event
		partners: make([]int32, 0, partnersCap), //reprolint:allow hotpath per-interval batch provisioning, not per event
	}
}

// grow doubles the batch's capacity, up to partnersCap, keeping its
// contents.
func (b *shardBatch) grow(partnersCap int) {
	g := newShardBatch(min(2*cap(b.partners), partnersCap))
	b.ids = append(g.ids, b.ids...)                //reprolint:allow hotpath batch growth, at most log2(stagingPartners/minBatchPartners) times per profiler
	b.lens = append(g.lens, b.lens...)             //reprolint:allow hotpath batch growth, at most log2(stagingPartners/minBatchPartners) times per profiler
	b.partners = append(g.partners, b.partners...) //reprolint:allow hotpath batch growth, at most log2(stagingPartners/minBatchPartners) times per profiler
}

// reset clears the batch for reuse, keeping its allocations.
func (b *shardBatch) reset() {
	b.ids = b.ids[:0]
	b.lens = b.lens[:0]
	b.partners = b.partners[:0]
}

// applyScratch is the per-worker workspace for grouped batch apply:
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

// applyBatch applies one batch to a counter partition, grouped stably
// by destination row (id/p). Each row's increments are tallied densely
// by partner id in stream order, then every distinct partner's total is
// added to the row's counter once, in first-increment order — so new
// keys enter the counter in exactly the order per-increment adds would
// insert them. Returns the (possibly grown) partition.
func applyBatch(b *shardBatch, tabs []nbrCounter, sc *applyScratch, p int) []nbrCounter {
	n := len(b.ids)
	if n == 0 {
		return tabs
	}
	if cap(sc.next) < n {
		sc.next = make([]int32, n) //reprolint:allow hotpath scratch sized once per batch geometry, reused across batches
		sc.offs = make([]int32, n) //reprolint:allow hotpath scratch sized once per batch geometry, reused across batches
	}
	next, offs := sc.next[:n], sc.offs[:n]

	rows := (b.numIDs + p - 1) / p
	if rows > len(tabs) {
		tabs = growPartition(tabs, rows)
	}
	if len(sc.head) < rows {
		sc.head = make([]int32, rows+64) //reprolint:allow hotpath scratch grows with the static branch count, O(log) times per run
		sc.tail = make([]int32, rows+64) //reprolint:allow hotpath scratch grows with the static branch count, O(log) times per run
		for i := range sc.head {
			sc.head[i] = -1
		}
	}
	if len(sc.tally) < b.numIDs {
		sc.tally = make([]uint32, b.numIDs+64) //reprolint:allow hotpath scratch grows with the static branch count, O(log) times per run
		sc.order = make([]int32, b.numIDs+64)  //reprolint:allow hotpath scratch grows with the static branch count, O(log) times per run
	}

	// Pass 1: chain the batch's events per destination row, stably.
	sc.touched = sc.touched[:0]
	off := int32(0)
	for i, id := range b.ids {
		offs[i] = off
		off += b.lens[i]
		next[i] = -1
		r := int32(uint32(id)) / int32(p)
		if sc.head[r] < 0 {
			sc.head[r] = int32(i)
			sc.touched = append(sc.touched, r) //reprolint:allow hotpath bounded by distinct branches per batch, reused backing array
		} else {
			next[sc.tail[r]] = int32(i)
		}
		sc.tail[r] = int32(i)
	}

	// Pass 2: per destination, walk its chain tallying every increment
	// into the dense array, then add each distinct partner's total to
	// the counter once — one hash probe per partner instead of one per
	// increment.
	tally, order := sc.tally, sc.order
	for _, r := range sc.touched {
		distinct := 0
		for i := sc.head[r]; i >= 0; i = next[i] {
			for _, cur := range b.partners[offs[i] : offs[i]+b.lens[i]] {
				if tally[cur] == 0 {
					order[distinct] = cur
					distinct++
				}
				tally[cur]++
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

// growPartition extends a counter partition geometrically.
func growPartition(tabs []nbrCounter, n int) []nbrCounter {
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

// pairShards is the accumulation engine for both modes. With p == 1
// everything runs in the producer. With p > 1, workers run only while
// events are flowing: drain stops them and establishes a happens-before
// edge, after which the partitioned counters are safe to read from the
// caller's goroutine; the next emit restarts them.
type pairShards struct {
	p        int
	batchCap int // partner entries per batch
	// numIDs is the producer's branch-id count; every staged id and
	// partner is below it. flush stamps it on each batch, which sizes
	// the apply scratch without rescanning the batch.
	numIDs int

	// tabs[w][id/p] is branch id's counter, owned by worker w = id%p.
	// Only worker w writes its partition while running; the producer
	// reads all partitions after drain.
	tabs    [][]nbrCounter
	scratch []*applyScratch

	cur     []*shardBatch      // batch being filled per worker, producer-owned
	chs     []chan *shardBatch // full batches to workers
	free    []chan *shardBatch // drained batches back to the producer
	wg      sync.WaitGroup
	running bool

	// Optional observability (nil-safe): batches counts handed-off
	// batches; queueMax tracks the high-water worker-channel depth, the
	// back-pressure signal for tuning the staging budget.
	batches  *obs.Counter
	queueMax *obs.Gauge
}

func newPairShards(n int) *pairShards {
	batchCap := stagingPartners
	if n > 1 {
		// Fixed total staging budget: per-worker batches shrink as P
		// grows, and so do per-worker partitions — the amortization
		// ratio (increments per cached counter) is P-independent.
		batchCap = stagingPartners / (n * (shardFreeDepth + 1))
		if batchCap < minBatchPartners {
			batchCap = minBatchPartners
		}
	}
	s := &pairShards{
		p:        n,
		batchCap: batchCap,
		tabs:     make([][]nbrCounter, n),
		scratch:  make([]*applyScratch, n),
		cur:      make([]*shardBatch, n),
		chs:      make([]chan *shardBatch, n),
		free:     make([]chan *shardBatch, n),
	}
	for w := range s.scratch {
		s.scratch[w] = &applyScratch{}
	}
	return s
}

// start launches the workers and provisions the batch cycle. Runs once
// per accumulation interval (on the first flush, again after a drain),
// never per event.
func (s *pairShards) start() {
	for w := 0; w < s.p; w++ {
		s.chs[w] = make(chan *shardBatch, shardFreeDepth)    //reprolint:allow hotpath per-interval worker startup, not per event
		s.free[w] = make(chan *shardBatch, shardFreeDepth+1) //reprolint:allow hotpath per-interval worker startup, not per event
		for i := 0; i < shardFreeDepth; i++ {
			s.free[w] <- newShardBatch(s.batchCap) //reprolint:allow hotpath per-interval worker startup, not per event
		}
	}
	s.wg.Add(s.p)
	for w := 0; w < s.p; w++ {
		go s.worker(w) //reprolint:allow hotpath per-interval worker startup, not per event
	}
	s.running = true
}

// worker applies batches to its own counter partition. The partition
// slice is grown worker-locally and published back to s.tabs[w] before
// wg.Done, which happens-before the post-drain reads.
func (s *pairShards) worker(w int) {
	tabs := s.tabs[w]
	sc := s.scratch[w]
	for b := range s.chs[w] { //reprolint:allow hotpath batch hand-off, amortized over thousands of increments
		tabs = applyBatch(b, tabs, sc, s.p)
		b.reset()
		s.free[w] <- b //reprolint:allow hotpath batch recycling, amortized over thousands of increments
	}
	s.tabs[w] = tabs
	s.wg.Done()
}

// emit stages one event's partner prefix for the owning worker: a bulk
// append (memmove) into the worker's current batch, flushing when full.
// A producer's first batch starts at minBatchPartners and doubles when
// full, up to batchCap and to batchRecurrence × numIDs², so a stream
// over few branches — a graph kernel's — never stages the whole budget.
// Oversized prefixes are chunked across batches; counts are preserved
// because apply walks increments per header.
func (s *pairShards) emit(id int32, partners []int32) {
	w := int(uint32(id)) % s.p
	for len(partners) > 0 {
		b := s.cur[w]
		if b == nil {
			b = newShardBatch(min(minBatchPartners, s.batchCap))
			s.cur[w] = b
		}
		room := cap(b.partners) - len(b.partners)
		if room == 0 || len(b.ids) == cap(b.ids) {
			if c := cap(b.partners); c < s.batchCap && c < batchRecurrence*s.numIDs*s.numIDs {
				b.grow(s.batchCap)
			} else {
				s.flush(w)
			}
			continue
		}
		n := len(partners)
		if n > room {
			n = room
		}
		b.ids = append(b.ids, id)                        //reprolint:allow hotpath append within fixed batch capacity; flush guarantees room
		b.lens = append(b.lens, int32(n))                //reprolint:allow hotpath append within fixed batch capacity; flush guarantees room
		b.partners = append(b.partners, partners[:n]...) //reprolint:allow hotpath append within fixed batch capacity; flush guarantees room
		partners = partners[n:]
	}
}

// flush hands worker w's current batch over (serially: applies it in
// place), taking a recycled batch and blocking — bounded memory — if
// the worker is behind.
func (s *pairShards) flush(w int) {
	b := s.cur[w]
	if b == nil || len(b.ids) == 0 {
		return
	}
	b.numIDs = s.numIDs
	if s.p == 1 {
		s.tabs[0] = applyBatch(b, s.tabs[0], s.scratch[0], 1)
		b.reset()
		s.batches.Inc()
		return
	}
	if !s.running {
		s.start()
	}
	s.queueMax.SetMax(int64(len(s.chs[w]) + 1))
	s.chs[w] <- b //reprolint:allow hotpath batch hand-off, amortized over thousands of increments
	s.batches.Inc()
	s.cur[w] = <-s.free[w] //reprolint:allow hotpath batch recycling, amortized over thousands of increments
}

// drain flushes every staged batch and stops the workers. On return the
// partitioned counters hold every increment issued so far and may be
// read from the calling goroutine; accumulation can resume afterwards
// (the next flush restarts the workers).
//
//reprolint:hotpath shard pipeline drain barrier
func (s *pairShards) drain() {
	for w := 0; w < s.p; w++ {
		s.flush(w)
	}
	if !s.running {
		return
	}
	for w := 0; w < s.p; w++ {
		s.cur[w] = nil
		close(s.chs[w])
	}
	s.wg.Wait()
	for w := 0; w < s.p; w++ {
		s.chs[w], s.free[w] = nil, nil
	}
	s.running = false
}

// tableBytes reports the partitioned counters' footprint — the
// accumulator memory common to both modes.
func (s *pairShards) tableBytes() uint64 {
	var total uint64
	for w := range s.tabs {
		for i := range s.tabs[w] {
			total += s.tabs[w][i].bytes()
		}
	}
	return total
}
