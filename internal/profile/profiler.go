package profile

import "repro/internal/obs"

// Profiler consumes a branch event stream online and accumulates a
// Profile. It implements the vm.BranchSink shape, so it can be attached
// directly to an executing Machine or fed from a recorded trace.
//
// Algorithm: a move-to-front (recency) list of static branches. When
// branch A executes, the branches ahead of A in the list are exactly
// those whose last time stamp exceeds A's previous time stamp — the
// paper's interleave set — so each such pair's counter is incremented
// and A moves to the front. Cost per dynamic branch is A's reuse
// distance, which Table 2 shows is bounded by the (small) working set
// size in practice.
//
// The hot path is flat throughout: pc resolves to a dense id through a
// direct-indexed table (no map), the recency list is a contiguous
// []int32 scanned forward (no pointer chasing), and interleave counts
// accumulate in packed open-addressed per-branch tables (one uint64 per
// slot, no Go map). First-touch discovery and table growth are the only
// allocating paths and each runs O(static branches) times per run.
type Profiler struct {
	benchmark string
	inputSet  string
	window    int
	numShards int

	// Dense pc -> id translation. VM branch addresses are word-aligned
	// instruction indexes, so idOf is indexed by pc/4 and covers the
	// program text directly; highIDs is the fallback for unaligned or
	// far-out-of-range addresses fed by synthetic tests.
	idOf    []int32
	highIDs map[uint64]int32

	pcs   []uint64
	exec  []uint64
	taken []uint64

	// Move-to-front (recency) list, stored flat: the live list is
	// list[off:], most recent first. A branch moves to the front by a
	// forward scan (which is also the interleave-pair emission) followed
	// by a word-level memmove of the prefix; first touches prepend into
	// the spare room below off.
	list []int32
	off  int
	in   []bool

	// shards is the accumulation engine (shard.go): the scan emits each
	// event's partner prefix as one bulk copy into a staging batch, and
	// batches are applied to per-branch neighbor counters grouped by
	// destination — synchronously with one shard, by worker goroutines
	// with more. nbrOf(id) reads a branch's counter in either mode.
	// One unordered pair (a,b) accumulates partly in a's counter and
	// partly in b's; the halves are summed at extraction. The per-branch
	// split plus grouped apply keeps the increment loop's working set to
	// one branch's neighborhood (a few KB, cache-resident) instead of
	// the global pair population.
	shards *pairShards

	// metrics is the optional observability bundle; mEvents and mPairInc
	// are its hot-path counters held directly so Branch performs at most
	// two nil-checked atomic adds per event. All three may be nil.
	metrics  *obs.ProfileMetrics
	mEvents  *obs.Counter
	mPairInc *obs.Counter

	branches     uint64
	instructions uint64
}

// maxDenseWords bounds the direct-indexed pc table: addresses below
// maxDenseWords*4 (the entire generated-program space) translate with
// one load; anything above falls back to the highIDs map so adversarial
// synthetic pcs cannot balloon the table.
const maxDenseWords = 1 << 22

// nbrCounter is a small open-addressed counter from partner id to
// interleave count, packed one entry per uint64 slot: (id+1) in the
// high word, count in the low word. Slot 0 means empty (ids are
// non-negative, so id+1 is never 0). Packing halves the cache lines
// touched per increment versus parallel key/value arrays — the
// increment is the profiler's innermost operation.
type nbrCounter struct {
	slots []uint64
	n     int
}

const nbrMinCap = 8

// nbrHash mixes a branch id for slot selection: Fibonacci multiply plus
// an xor-fold so the masked low bits see the high ones.
func nbrHash(key int32) uint32 {
	h := uint32(key) * 0x9e3779b9
	return h ^ h>>15
}

// addN adds delta to the count for partner key. The load factor is
// checked only when key is new, so the slot layout depends on the
// sequence of distinct keys inserted and not on how their increments
// are grouped.
func (c *nbrCounter) addN(key int32, delta uint32) {
	if len(c.slots) == 0 {
		c.grow() //reprolint:allow hotpath first slot array, once per branch
	}
	mask := uint32(len(c.slots) - 1)
	i := nbrHash(key) & mask
	kp := uint64(uint32(key)) + 1
	for s := c.slots[i]; s != 0; s = c.slots[i] {
		if s>>32 == kp {
			c.slots[i] = s + uint64(delta)
			return
		}
		i = (i + 1) & mask
	}
	if (c.n+1)*4 > len(c.slots)*3 {
		c.grow() //reprolint:allow hotpath amortized geometric growth, O(log neighborhood) times per branch
		mask = uint32(len(c.slots) - 1)
		i = nbrHash(key) & mask
		for c.slots[i] != 0 {
			i = (i + 1) & mask
		}
	}
	c.slots[i] = kp<<32 | uint64(delta)
	c.n++
}

// grow doubles the slot array (allocating the initial one on first
// use) and rehashes. Runs O(log final-size) times per branch over a
// whole profiling run; the steady state never enters it.
func (c *nbrCounter) grow() {
	old := c.slots
	size := nbrMinCap
	if len(old) > 0 {
		size = len(old) * 2
	}
	c.slots = make([]uint64, size) //reprolint:allow hotpath amortized geometric growth, O(log neighborhood) times per branch
	mask := uint32(size - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := nbrHash(int32(uint32(s>>32)-1)) & mask
		for c.slots[i] != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = s
	}
}

// get returns the count stored for key (0 if absent).
func (c *nbrCounter) get(key int32) uint32 {
	if len(c.slots) == 0 {
		return 0
	}
	mask := uint32(len(c.slots) - 1)
	i := nbrHash(key) & mask
	kp := uint64(uint32(key)) + 1
	for {
		s := c.slots[i]
		if s>>32 == kp {
			return uint32(s)
		}
		if s == 0 {
			return 0
		}
		i = (i + 1) & mask
	}
}

// has reports whether key is stored.
func (c *nbrCounter) has(key int32) bool { return c.get(key) != 0 }

// each calls f for every (key, count) stored, in slot order. Insertion
// order is deterministic for a deterministic event stream, so slot
// order is too — extraction does not need to sort.
func (c *nbrCounter) each(f func(key int32, count uint32)) {
	for _, s := range c.slots {
		if s != 0 {
			f(int32(uint32(s>>32)-1), uint32(s))
		}
	}
}

// bytes reports the slot array's footprint.
func (c *nbrCounter) bytes() uint64 { return uint64(len(c.slots)) * 8 }

// Option configures a Profiler.
type Option func(*Profiler)

// WithWindow bounds the interleave scan depth: pairs beyond the window
// of most recently executed distinct branches are not counted. 0 (the
// default) is unbounded, matching the paper. A window is an explicit,
// reported approximation for pathological traces, never a silent one —
// callers that set it should say so in their output.
func WithWindow(depth int) Option {
	return func(p *Profiler) { p.window = depth }
}

// WithShards selects how many workers accumulate the interleave
// increments. n <= 1 keeps the serial per-branch counters — the exact
// pre-sharding code path. n > 1 partitions the counters by executing
// branch id across n worker goroutines; the merged profile is identical
// for every n because each branch's counter receives exactly the same
// increment sequence it would serially (DESIGN.md §15).
func WithShards(n int) Option {
	return func(p *Profiler) {
		if n > 1 {
			p.numShards = n
		}
	}
}

// WithMetrics attaches an observability bundle: event and pair-increment
// counters on the hot path, shard queue metrics, and merge timings. A
// nil bundle (the default) keeps every site a no-op.
func WithMetrics(m *obs.ProfileMetrics) Option {
	return func(p *Profiler) { p.metrics = m }
}

// NewProfiler returns an empty Profiler for the named benchmark run.
func NewProfiler(benchmark, inputSet string, opts ...Option) *Profiler {
	p := &Profiler{
		benchmark: benchmark,
		inputSet:  inputSet,
	}
	for _, o := range opts {
		o(p)
	}
	if p.metrics != nil {
		p.mEvents = p.metrics.Events
		p.mPairInc = p.metrics.PairIncrements
	}
	n := p.numShards
	if n < 1 {
		n = 1
	}
	p.shards = newPairShards(n)
	if p.metrics != nil {
		// Serial mode runs the same staging engine, so batch applies are
		// counted at every P; queue depth only exists with workers.
		p.shards.batches = p.metrics.ShardBatches
		p.shards.queueMax = p.metrics.ShardQueueMax
	}
	return p
}

// Reserve pre-sizes the per-branch state for n static branches, so
// first-touch discovery never reallocates mid-run. Callers that know
// the workload (harness, perfbench) reserve from Spec.StaticBranches.
func (p *Profiler) Reserve(n int) {
	if n <= cap(p.pcs) {
		return
	}
	p.pcs = append(make([]uint64, 0, n), p.pcs...)
	p.exec = append(make([]uint64, 0, n), p.exec...)
	p.taken = append(make([]uint64, 0, n), p.taken...)
	p.in = append(make([]bool, 0, n), p.in...)
	live := p.list[p.off:]
	list := make([]int32, n+len(live))
	copy(list[n:], live)
	p.list, p.off = list, n
}

// Window returns the configured scan window (0 = unbounded).
func (p *Profiler) Window() int { return p.window }

// Shards returns the configured shard count (1 = serial).
func (p *Profiler) Shards() int {
	return p.shards.p
}

// Branch consumes one dynamic branch event: first-touch discovery,
// execution counters, the recency-list interleaving scan (the
// pair-increment inner loop), and the move-to-front update.
//
//reprolint:hotpath profiler pair-increment scan
func (p *Profiler) Branch(pc uint64, taken bool, icount uint64) {
	var id int32
	if w := pc >> 2; pc&3 == 0 && w < uint64(len(p.idOf)) && p.idOf[w] >= 0 {
		id = p.idOf[w]
	} else {
		id = p.intern(pc)
	}
	p.exec[id]++
	if taken {
		p.taken[id]++
	}
	p.branches++
	p.mEvents.Inc()
	if icount >= p.instructions {
		p.instructions = icount + 1
	}

	if p.in[id] {
		// Count interleavings: every branch ahead of id in the recency
		// list ran since id's previous execution. The scan doubles as
		// the pair emission — partners live[0:emit] are exactly the
		// interleave set (clipped to the window).
		live := p.list[p.off:]
		pos := 0
		for live[pos] != id {
			pos++
		}
		emit := pos
		if p.window > 0 && p.window < emit {
			emit = p.window
		}
		if emit > 0 {
			p.shards.emit(id, live[:emit])
			p.mPairInc.Add(uint64(emit))
		}
		// Move to front: shift the prefix right one slot over id.
		copy(live[1:pos+1], live[:pos])
		live[0] = id
		return
	}

	// First touch: prepend into the spare room below off.
	p.in[id] = true
	if p.off == 0 {
		p.growFront()
	}
	p.off--
	p.list[p.off] = id
}

// intern resolves pc to a dense id, discovering the branch on first
// touch. Cold: each static branch passes through here once (plus rare
// dense-table growth), so the appends and map fallback are off the
// steady-state path; Reserve pre-sizes the buffers.
func (p *Profiler) intern(pc uint64) int32 {
	if w := pc >> 2; pc&3 == 0 && w < maxDenseWords {
		if w >= uint64(len(p.idOf)) {
			p.growDense(int(w + 1))
		}
		if id := p.idOf[w]; id >= 0 {
			return id
		}
		id := p.newID(pc)
		p.idOf[w] = id
		return id
	}
	if id, ok := p.highIDs[pc]; ok { //reprolint:allow hotpath unaligned-pc fallback, off the VM's word-aligned address space
		return id
	}
	if p.highIDs == nil {
		p.highIDs = make(map[uint64]int32) //reprolint:allow hotpath unaligned-pc fallback, allocated at most once
	}
	id := p.newID(pc)
	p.highIDs[pc] = id //reprolint:allow hotpath unaligned-pc fallback, once per out-of-range static branch
	return id
}

// growDense extends the direct-indexed pc table to cover n words,
// growing geometrically so a run performs O(log program-size) growths.
func (p *Profiler) growDense(n int) {
	size := cap(p.idOf)
	if size < 1<<10 {
		size = 1 << 10
	}
	for size < n {
		size *= 2
	}
	if size > maxDenseWords {
		size = maxDenseWords
	}
	grown := make([]int32, size) //reprolint:allow hotpath amortized geometric growth, O(log program) times per run
	copy(grown, p.idOf)
	for i := len(p.idOf); i < size; i++ {
		grown[i] = -1
	}
	p.idOf = grown
}

// newID allocates the next dense id and its per-branch state. Runs once
// per static branch; Reserve pre-sizes every buffer it appends to.
func (p *Profiler) newID(pc uint64) int32 {
	id := int32(len(p.pcs))
	p.pcs = append(p.pcs, pc)    //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	p.exec = append(p.exec, 0)   //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	p.taken = append(p.taken, 0) //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	p.in = append(p.in, false)   //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	p.shards.numIDs = len(p.pcs)
	return id
}

// growFront makes room below off for first-touch prepends, keeping the
// live list at the top of the (geometrically grown) backing array.
func (p *Profiler) growFront() {
	live := p.list[p.off:]
	size := len(p.list) * 2
	if size < 64 {
		size = 64
	}
	grown := make([]int32, size) //reprolint:allow hotpath amortized geometric growth, O(log static-branches) times per run
	p.off = size - len(live)
	copy(grown[p.off:], live)
	p.list = grown
}

// Branches returns the number of dynamic branches consumed so far.
func (p *Profiler) Branches() uint64 { return p.branches }

// TableBytes reports the memory held by the interleave accumulation
// tables (the per-branch counters, in either mode) — the profiler's
// dominant footprint, read by perfbench's profile.table_mb.
func (p *Profiler) TableBytes() uint64 {
	return p.shards.tableBytes()
}

// SetInstructions records the run's total instruction count (otherwise
// estimated from the last branch time stamp).
func (p *Profiler) SetInstructions(n uint64) { p.instructions = n }

// nbrOf returns branch id's neighbor counter in either mode. In sharded
// mode the counter lives in the owning worker's partition; callers must
// quiesce the workers first (drain). The returned counter may be empty.
func (p *Profiler) nbrOf(id int32) *nbrCounter {
	w := int(uint32(id)) % p.shards.p
	row := int(uint32(id)) / p.shards.p
	if row >= len(p.shards.tabs[w]) {
		return &emptyNbr
	}
	return &p.shards.tabs[w][row]
}

// emptyNbr backs nbrOf for branches that never emitted a pair; it must
// never be written.
var emptyNbr nbrCounter

// distinctPairs counts the exact number of distinct unordered pairs
// across the per-branch neighbor counters. One pair (a,b) may be stored
// in a's counter, in b's, or in both; summing the per-counter sizes
// would double-count the shared ones and over-allocate the extraction
// table ~2x. A pair is counted from the smaller id's counter when
// present there, and from the larger id's counter only otherwise.
func (p *Profiler) distinctPairs() int {
	p.shards.drain()
	distinct := 0
	for id := range p.pcs {
		a := int32(id)
		p.nbrOf(a).each(func(b int32, _ uint32) {
			if b > a || !p.nbrOf(b).has(a) {
				distinct++
			}
		})
	}
	return distinct
}

// Profile extracts the accumulated profile. The Profiler remains usable;
// further events continue accumulating on top.
//
// The returned profile's pair table comes from the package pool
// (exactly sized, so extraction never rehashes); callers done with a
// transient profile can hand the table back via Profile.Release.
//
// Extraction walks branch ids in ascending order and each counter in
// its (deterministic) slot order, in both modes: a branch's counter
// receives the same increment sequence serially and sharded, so the
// walk — and therefore the extracted profile — is byte-identical for
// every shard count.
func (p *Profiler) Profile() *Profile {
	done := p.metrics.StartMerge()
	// Quiesce the engine: staged batches are applied (and, sharded, the
	// workers stopped), after which the counters are complete and safe
	// to read from this goroutine.
	p.shards.drain()
	pairs := GetPairCounts(p.distinctPairs())
	for id := range p.pcs {
		a := int32(id)
		p.nbrOf(a).each(func(b int32, count uint32) {
			pairs.Add(PairKey(a, b), uint64(count))
		})
	}
	out := &Profile{
		Benchmark:    p.benchmark,
		InputSets:    []string{p.inputSet},
		Instructions: p.instructions,
		PCs:          append([]uint64(nil), p.pcs...),
		Exec:         append([]uint64(nil), p.exec...),
		Taken:        append([]uint64(nil), p.taken...),
		Pairs:        pairs,
	}
	done(pairs.Len())
	return out
}

// NaiveProfiler is the literal time-stamp formulation from the paper's
// Figure 1: every branch keeps its last time stamp; on each dynamic
// instance of branch A, every branch whose stamp exceeds A's previous
// stamp is an interleaving partner. It is O(static branches) per event
// and exists to cross-validate Profiler in tests.
type NaiveProfiler struct {
	benchmark string
	inputSet  string

	idOf    []int32
	highIDs map[uint64]int32
	pcs     []uint64
	exec    []uint64
	taken   []uint64

	stamp []uint64 // last time stamp per id
	seen  []bool   // id has executed at least once

	pairs        *PairCounts
	instructions uint64
}

// NewNaiveProfiler returns the reference profiler.
func NewNaiveProfiler(benchmark, inputSet string) *NaiveProfiler {
	return &NaiveProfiler{
		benchmark: benchmark,
		inputSet:  inputSet,
		pairs:     NewPairCounts(0),
	}
}

// Branch consumes one dynamic branch event.
func (p *NaiveProfiler) Branch(pc uint64, taken bool, icount uint64) {
	var id int32
	if w := pc >> 2; pc&3 == 0 && w < uint64(len(p.idOf)) && p.idOf[w] >= 0 {
		id = p.idOf[w]
	} else {
		id = p.intern(pc)
	}
	p.exec[id]++
	if taken {
		p.taken[id]++
	}
	if icount >= p.instructions {
		p.instructions = icount + 1
	}

	if p.seen[id] {
		prev := p.stamp[id]
		for other := range p.stamp {
			o := int32(other)
			if o == id || !p.seen[o] {
				continue
			}
			if p.stamp[o] > prev {
				p.pairs.Add(PairKey(id, o), 1)
			}
		}
	}
	p.stamp[id] = icount
	p.seen[id] = true
}

// intern mirrors Profiler.intern for the reference profiler: dense
// direct-indexed translation with a map fallback, cold per static
// branch.
func (p *NaiveProfiler) intern(pc uint64) int32 {
	newID := func() int32 {
		id := int32(len(p.pcs))
		p.pcs = append(p.pcs, pc)      //reprolint:allow hotpath first touch, once per static branch
		p.exec = append(p.exec, 0)     //reprolint:allow hotpath first touch, once per static branch
		p.taken = append(p.taken, 0)   //reprolint:allow hotpath first touch, once per static branch
		p.stamp = append(p.stamp, 0)   //reprolint:allow hotpath first touch, once per static branch
		p.seen = append(p.seen, false) //reprolint:allow hotpath first touch, once per static branch
		return id
	}
	if w := pc >> 2; pc&3 == 0 && w < maxDenseWords {
		if w >= uint64(len(p.idOf)) {
			size := cap(p.idOf)
			if size < 1<<10 {
				size = 1 << 10
			}
			for size < int(w+1) {
				size *= 2
			}
			if size > maxDenseWords {
				size = maxDenseWords
			}
			grown := make([]int32, size) //reprolint:allow hotpath amortized geometric growth, O(log program) times per run
			copy(grown, p.idOf)
			for i := len(p.idOf); i < size; i++ {
				grown[i] = -1
			}
			p.idOf = grown
		}
		if id := p.idOf[w]; id >= 0 {
			return id
		}
		id := newID()
		p.idOf[w] = id
		return id
	}
	if id, ok := p.highIDs[pc]; ok { //reprolint:allow hotpath unaligned-pc fallback, off the VM's word-aligned address space
		return id
	}
	if p.highIDs == nil {
		p.highIDs = make(map[uint64]int32) //reprolint:allow hotpath unaligned-pc fallback, allocated at most once
	}
	id := newID()
	p.highIDs[pc] = id //reprolint:allow hotpath unaligned-pc fallback, once per out-of-range static branch
	return id
}

// Profile extracts the accumulated profile.
func (p *NaiveProfiler) Profile() *Profile {
	out := &Profile{
		Benchmark:    p.benchmark,
		InputSets:    []string{p.inputSet},
		Instructions: p.instructions,
		PCs:          append([]uint64(nil), p.pcs...),
		Exec:         append([]uint64(nil), p.exec...),
		Taken:        append([]uint64(nil), p.taken...),
		Pairs:        p.pairs.Clone(),
	}
	return out
}
