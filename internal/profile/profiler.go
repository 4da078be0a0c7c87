package profile

import (
	"slices"

	"repro/internal/isa"
	"repro/internal/obs"
)

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
// The hot path is flat throughout: pc resolves to a dense id through an
// isa.PCIndex (no map for VM addresses), the recency list is a contiguous
// []int32 scanned forward (no pointer chasing), and interleave counts
// accumulate in packed open-addressed per-branch tables (one uint64 per
// slot, no Go map). First-touch discovery, table growth and re-staging
// a branch's changed partner prefix are the only allocating paths.
//
// A Profiler accepts at most maxEvents (2^32−1) events, the bound that
// keeps its 32-bit pair counts exact; Branch panics on the next one.
type Profiler struct {
	benchmark string
	inputSet  string
	window    int

	// ix translates pc to the dense id that indexes every per-branch
	// slice below.
	ix    isa.PCIndex
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

	// nbr[id] is branch id's neighbor counter: its interleave count with
	// every partner, added one emitted prefix at a time (see emit).
	// One unordered pair (a,b) accumulates partly in a's counter and
	// partly in b's; the halves are summed at extraction. Each emission
	// touches only its own branch's neighborhood (a few KB,
	// cache-resident) instead of the global pair population.
	nbr []nbrCounter

	// pend[id] coalesces branch id's repeated interleave prefixes: the
	// window-clipped prefix of its latest execution that had one, and
	// how many executions since the last emission had exactly that
	// prefix. A scene-rotation loop re-executes a branch with the same
	// partners in the same order, so its counter takes one weighted add
	// per partner per change of prefix instead of one per execution.
	pend []pendingPrefix

	// metrics is the optional observability bundle; mEvents and mPairInc
	// are its hot-path counters held directly so Branch performs at most
	// two nil-checked atomic adds per event. All three may be nil.
	metrics  *obs.ProfileMetrics
	mEvents  *obs.Counter
	mPairInc *obs.Counter

	branches     uint64
	instructions uint64
}

// pendingPrefix is one branch's coalesced, not yet emitted prefix,
// repeated rep times; partners keeps its capacity across re-stagings,
// and is empty (rep 0) before the branch's first prefix.
type pendingPrefix struct {
	partners []int32
	rep      uint32
}

// maxEvents is the most events a Profiler accepts. A counter holds a
// pair's count in the low 32 bits of its slot, and an addition past
// 2^32−1 would carry into the partner key. Branch A's counter counts
// partner B at most once per execution of A, so no count exceeds the
// event count, and a weighted add (a coalesced prefix times its
// repeats) is bounded the same way.
const maxEvents = 1<<32 - 1

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

// partner decodes an occupied slot into its partner id and count.
func partner(s uint64) (int32, uint32) { return int32(uint32(s>>32) - 1), uint32(s) }

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

// WithMetrics attaches an observability bundle: event and pair-increment
// counters on the hot path, and extraction timings. A
// nil bundle (the default) keeps every site a no-op.
func WithMetrics(m *obs.ProfileMetrics) Option {
	return func(p *Profiler) { p.metrics = m }
}

// NewProfiler returns an empty Profiler for the named benchmark run.
func NewProfiler(benchmark, inputSet string, opts ...Option) *Profiler {
	p := &Profiler{benchmark: benchmark, inputSet: inputSet}
	for _, o := range opts {
		o(p)
	}
	if p.metrics != nil {
		p.mEvents = p.metrics.Events
		p.mPairInc = p.metrics.PairIncrements
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
	p.pend = append(make([]pendingPrefix, 0, n), p.pend...)
	p.nbr = append(make([]nbrCounter, 0, n), p.nbr...)
	live := p.list[p.off:]
	list := make([]int32, n+len(live))
	copy(list[n:], live)
	p.list, p.off = list, n
}

// Window returns the configured scan window (0 = unbounded).
func (p *Profiler) Window() int { return p.window }

// Branch consumes one dynamic branch event: first-touch discovery,
// execution counters, the recency-list interleaving scan (the
// pair-increment inner loop), and the move-to-front update. It panics
// on the event past maxEvents.
//
//reprolint:hotpath profiler pair-increment scan
func (p *Profiler) Branch(pc uint64, taken bool, icount uint64) {
	if p.branches == maxEvents {
		panic("profile: Profiler accepts at most 2^32-1 events; its 32-bit pair counts could overflow")
	}
	id, ok := p.ix.Lookup(pc)
	if !ok {
		id = p.newID(pc)
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
		// list ran since id's previous execution, so partners
		// live[0:emit] are exactly the interleave set (clipped to the
		// window). A prefix equal to id's pending one only bumps its
		// repeat count; a different one emits the pending prefix first,
		// so id's counter still sees its partners in stream order.
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
			if pd := &p.pend[id]; slices.Equal(pd.partners, live[:emit]) { //reprolint:allow hotpath type-parameter instantiation for []int32, not interface boxing
				pd.rep++
			} else {
				p.emit(id, pd.partners, pd.rep)
				pd.partners = restage(pd.partners, live[:emit])
				pd.rep = 1
			}
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

// restage copies prefix over a pending prefix's buffer, reusing its
// capacity and otherwise allocating exactly. A stored prefix holds
// distinct partners its branch's counter also holds, so the buffers
// together stay within the counters' entry count.
func restage(buf, prefix []int32) []int32 {
	if cap(buf) < len(prefix) {
		buf = make([]int32, len(prefix)) //reprolint:allow hotpath exact-size buffer, when a branch's prefix outgrows its buffer or after Profile dropped it
	}
	buf = buf[:len(prefix)]
	copy(buf, prefix)
	return buf
}

// newID allocates pc's dense id and its per-branch state. Runs once
// per static branch; Reserve pre-sizes every buffer it appends to.
func (p *Profiler) newID(pc uint64) int32 {
	id := p.ix.Intern(pc)
	p.pcs = append(p.pcs, pc)                //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	p.exec = append(p.exec, 0)               //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	p.taken = append(p.taken, 0)             //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	p.in = append(p.in, false)               //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	p.pend = append(p.pend, pendingPrefix{}) //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	p.nbr = append(p.nbr, nbrCounter{})      //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	return id
}

// emit adds branch id's partner prefix, rep times over, to id's counter.
// A prefix holds distinct partners in stream order, and a counter grows
// only when it inserts a new key, so its slot layout is the one a
// per-increment loop over the uncoalesced stream would build.
func (p *Profiler) emit(id int32, partners []int32, rep uint32) {
	c := &p.nbr[id]
	for _, cur := range partners {
		c.addN(cur, rep)
	}
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
// tables (the per-branch counters) — the profiler's dominant footprint,
// read by perfbench's profile.table_mb.
func (p *Profiler) TableBytes() uint64 {
	var total uint64
	for i := range p.nbr {
		total += p.nbr[i].bytes()
	}
	return total
}

// SetInstructions records the run's total instruction count (otherwise
// estimated from the last branch time stamp).
func (p *Profiler) SetInstructions(n uint64) { p.instructions = n }

// Profile extracts the accumulated profile. The Profiler remains usable;
// further events continue accumulating on top.
//
// Every branch id's counter inserts new keys in the order a
// per-increment loop would, so the counters do not depend on how
// prefixes were coalesced, and neither does the pair list, which
// extraction reads from them in fixed id orders and each counter in
// slot order.
func (p *Profiler) Profile() *Profile {
	done := p.metrics.StartMerge()
	// Emit every pending prefix and drop its buffer, which extraction
	// would otherwise hold alive beside the counters; the counters are
	// then complete.
	for id, pd := range p.pend {
		p.emit(int32(id), pd.partners, pd.rep)
	}
	clear(p.pend)
	out := &Profile{
		Benchmark:    p.benchmark,
		InputSets:    []string{p.inputSet},
		Instructions: p.instructions,
		PCs:          append([]uint64(nil), p.pcs...),
		Exec:         append([]uint64(nil), p.exec...),
		Taken:        append([]uint64(nil), p.taken...),
		Pairs:        p.extractPairs(),
	}
	done(out.Pairs.Len())
	return out
}

// extractPairs merges each unordered pair's two counter halves into a
// flat list without hashing. Pair (a, b), a < b, may sit in a's counter
// as an upper entry (partner above its owner) and in b's as a lower
// entry; the list holds it once, in row a, with the halves summed.
//
//  1. Count each row's lower entries: counter x's entry (y, c) with
//     y < x belongs to row y.
//  2. Walk the counters in descending id order. Row x's bucket is
//     complete when counter x is reached (every higher counter has been
//     placed), so marking x's upper partners and counting the bucket
//     entries they miss yields the row's exact distinct-pair count;
//     then x's own lower entries are placed into their rows' buckets
//     (a counting sort, as graph.FromPairs does), filled from the end
//     so each bucket ends in ascending partner order.
//  3. Walk the counters in ascending id order, appending row a's upper
//     entries in slot order and then its bucket, adding a bucket entry
//     to the upper entry already appended for the same partner.
//
// The list is allocated once at its exact length, and each counter is
// read front to back: none is probed for another's key.
func (p *Profiler) extractPairs() PairList {
	n := len(p.pcs)
	start := make([]int, n+1)
	for x := range n {
		for _, s := range p.nbr[x].slots {
			if y, _ := partner(s); s != 0 && int(y) < x {
				start[y+1]++
			}
		}
	}
	for y := range n {
		start[y+1] += start[y]
	}

	// Buckets hold (x+1)<<32 | count, the counter slot encoding with the
	// owner x in place of the partner.
	lower := make([]uint64, start[n])
	at := make([]int, n)
	copy(at, start[1:])
	mark := make([]int, n) // per partner: index+1 of the row that last marked it
	distinct := 0
	for x := n - 1; x >= 0; x-- {
		slots := p.nbr[x].slots
		for _, s := range slots {
			if y, _ := partner(s); s != 0 && int(y) > x {
				mark[y] = x + 1
				distinct++
			}
		}
		for _, e := range lower[start[x]:start[x+1]] {
			if y, _ := partner(e); mark[y] != x+1 {
				distinct++
			}
		}
		for _, s := range slots {
			if y, c := partner(s); s != 0 && int(y) < x {
				at[y]--
				lower[at[y]] = uint64(x+1)<<32 | uint64(c)
			}
		}
	}

	keys := make([]uint64, 0, distinct)
	counts := make([]uint64, 0, distinct)
	where := mark // per partner: its index in the list, valid when >= the row's first index
	for i := range where {
		where[i] = -1
	}
	for a := range n {
		row := len(keys)
		for _, s := range p.nbr[a].slots {
			if y, c := partner(s); s != 0 && int(y) > a {
				where[y] = len(keys)
				keys = append(keys, PairKey(int32(a), y))
				counts = append(counts, uint64(c))
			}
		}
		for _, e := range lower[start[a]:start[a+1]] {
			y, c := partner(e)
			if i := where[y]; i >= row {
				counts[i] += uint64(c)
				continue
			}
			keys = append(keys, PairKey(int32(a), y))
			counts = append(counts, uint64(c))
		}
	}
	return PairList{keys: keys, counts: counts}
}

// NaiveProfiler is the literal time-stamp formulation from the paper's
// Figure 1: every branch keeps its last time stamp; on each dynamic
// instance of branch A, every branch whose stamp exceeds A's previous
// stamp is an interleaving partner. It is O(static branches) per event
// and exists to cross-validate Profiler in tests.
type NaiveProfiler struct {
	benchmark string
	inputSet  string

	ix    isa.PCIndex
	pcs   []uint64
	exec  []uint64
	taken []uint64

	stamp []uint64 // last time stamp per id
	seen  []bool   // id has executed at least once

	pairs        map[uint64]uint64 // PairKey → interleave count
	instructions uint64
}

// NewNaiveProfiler returns the reference profiler.
func NewNaiveProfiler(benchmark, inputSet string) *NaiveProfiler {
	return &NaiveProfiler{
		benchmark: benchmark,
		inputSet:  inputSet,
		pairs:     make(map[uint64]uint64),
	}
}

// Branch consumes one dynamic branch event.
func (p *NaiveProfiler) Branch(pc uint64, taken bool, icount uint64) {
	id, ok := p.ix.Lookup(pc)
	if !ok {
		id = p.newID(pc)
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
				p.pairs[PairKey(id, o)]++ //reprolint:allow hotpath reference profiler, O(static branches) per event by design
			}
		}
	}
	p.stamp[id] = icount
	p.seen[id] = true
}

// newID allocates pc's dense id and its per-branch state, once per
// static branch.
func (p *NaiveProfiler) newID(pc uint64) int32 {
	p.pcs = append(p.pcs, pc)      //reprolint:allow hotpath first touch, once per static branch
	p.exec = append(p.exec, 0)     //reprolint:allow hotpath first touch, once per static branch
	p.taken = append(p.taken, 0)   //reprolint:allow hotpath first touch, once per static branch
	p.stamp = append(p.stamp, 0)   //reprolint:allow hotpath first touch, once per static branch
	p.seen = append(p.seen, false) //reprolint:allow hotpath first touch, once per static branch
	return p.ix.Intern(pc)
}

// Profile extracts the accumulated profile. Its pairs are listed in
// ascending key order.
func (p *NaiveProfiler) Profile() *Profile {
	keys := make([]uint64, 0, len(p.pairs))
	for k := range p.pairs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	pairs := make([]PairCount, len(keys))
	for i, k := range keys {
		a, b := UnpackPair(k)
		pairs[i] = PairCount{A: a, B: b, Count: p.pairs[k]}
	}
	out := &Profile{
		Benchmark:    p.benchmark,
		InputSets:    []string{p.inputSet},
		Instructions: p.instructions,
		PCs:          append([]uint64(nil), p.pcs...),
		Exec:         append([]uint64(nil), p.exec...),
		Taken:        append([]uint64(nil), p.taken...),
		Pairs:        NewPairList(len(p.pcs), pairs),
	}
	return out
}
