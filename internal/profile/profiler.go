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
// Most of a workload's stream is scene-rotation loops that repeat
// event for event, and the profiler counts such a loop body once.
// Suppose the last P events each equal the event P before them. Then
// the next event, if it also equals the event P before it, has that
// event's partners in that order, since its prefix depends only on the
// events since its branch last ran, and those lie inside the period.
// Once P consecutive events have matched that way, none restaging a
// prefix or touching a new branch, the profiler enters a skipped run.
// There each matching event only adds to its counts, its pending
// prefix's repeats and the increment total, and the recency list stays
// as it was at the run's start. The first event that does not match
// ends the run. The run's events are some whole periods, which leave
// the list unchanged, and fewer than P more, which are replayed
// through move-to-front. The breaking event is then processed as
// usual. Periods longer than maxPeriod events are not tracked.
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

	// nbr[a] is branch a's neighbor counter: its interleave count with
	// every partner b > a, added one emitted prefix at a time (see
	// emit). Each unordered pair lives in exactly one slot, in its lower
	// id's counter, whichever endpoint's execution counts it.
	nbr []nbrCounter

	// pend[id] coalesces branch id's repeated interleave prefixes: the
	// window-clipped prefix of its latest execution that had one, and
	// how many executions since the last emission had exactly that
	// prefix. A scene-rotation loop re-executes a branch with the same
	// partners in the same order, so its counter takes one weighted add
	// per partner per change of prefix instead of one per execution.
	pend []pendingPrefix

	// Period skipping (see Branch). ring[t%ringSize] holds event t's
	// id+1 in its high word and the event's emitted prefix length in its
	// low word; last[id] is 1 + the index of id's latest event, and 0
	// until id's first, which is how Branch tells a first touch. period is
	// the candidate period P (0 for none); verified counts the latest
	// consecutive events that matched the event P before them without
	// restaging a prefix. In a skipped run (skipping), runStart is the
	// index of its first event and runIncs the pair increments its
	// events carried.
	ring     [ringSize]uint64
	last     []uint64
	period   uint64
	verified uint64
	skipping bool
	runStart uint64
	runIncs  uint64

	// metrics is the optional observability bundle; mEvents, mPairInc
	// and mPeriodic are its counters held directly so Branch performs at
	// most two nil-checked atomic adds per event. All four may be nil.
	metrics   *obs.ProfileMetrics
	mEvents   *obs.Counter
	mPairInc  *obs.Counter
	mPeriodic *obs.Counter

	branches uint64
}

// maxPeriod is the longest period the profiler skips; the event ring
// holds twice as many events.
const (
	maxPeriod = 1024
	ringSize  = 2 * maxPeriod
	ringMask  = ringSize - 1
)

// pendingPrefix is one branch's coalesced, not yet emitted prefix,
// repeated rep times; partners keeps its capacity across re-stagings,
// and is empty (rep 0) before the branch's first prefix.
type pendingPrefix struct {
	partners []int32
	rep      uint32
}

// maxEvents is the most events a Profiler accepts. A counter holds a
// pair's count in the low 32 bits of its slot, and an addition past
// 2^32−1 would carry into the partner key. Pair (a, b) is counted at
// most once per execution of a and once per execution of b, so its
// count is at most exec(a) + exec(b), which is at most the event
// count; a weighted add (a coalesced prefix times its repeats) counts
// executions already taken, so it is bounded the same way.
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
		p.mPeriodic = p.metrics.PeriodicEvents
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
	p.last = append(make([]uint64, 0, n), p.last...)
	p.pend = append(make([]pendingPrefix, 0, n), p.pend...)
	p.nbr = append(make([]nbrCounter, 0, n), p.nbr...)
	live := p.list[p.off:]
	list := make([]int32, n+len(live))
	copy(list[n:], live)
	p.list, p.off = list, n
}

// Branch consumes one dynamic branch event: first-touch discovery,
// execution counters, the recency-list interleaving scan (the
// pair-increment inner loop), and the move-to-front update, or inside
// a skipped run only the counts. It panics on the event past maxEvents.
//
//reprolint:hotpath profiler pair-increment scan
func (p *Profiler) Branch(pc uint64, taken bool, _ uint64) {
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
	t := p.branches
	p.branches++
	p.mEvents.Inc()

	key := uint64(id+1) << 32
	if p.skipping {
		// Event t-P ran with the same prefix, and that prefix is id's
		// pending one: count it and carry the ring forward.
		if s := p.ring[(t-p.period)&ringMask]; s&^0xffffffff == key {
			p.ring[t&ringMask] = s
			p.last[id] = t + 1
			if e := uint32(s); e > 0 {
				p.pend[id].rep++
				p.runIncs += uint64(e)
			}
			return
		}
		p.leaveRun(t)
	}

	if p.last[id] == 0 {
		// First touch: prepend into the spare room below off.
		if p.off == 0 {
			p.growFront()
		}
		p.off--
		p.list[p.off] = id
		p.ring[t&ringMask] = key
		p.last[id] = t + 1
		p.period, p.verified = 0, 0
		return
	}

	// Count interleavings: every branch ahead of id in the recency list
	// ran since id's previous execution, so partners live[0:emit] are
	// exactly the interleave set (clipped to the window). A prefix equal
	// to id's pending one only bumps its repeat count; a different one
	// emits the pending prefix first, so id's counter still sees its
	// partners in stream order.
	live := p.list[p.off:]
	pos := position(live, id)
	emit := pos
	if p.window > 0 && p.window < emit {
		emit = p.window
	}
	restaged := false
	if emit > 0 {
		if pd := &p.pend[id]; slices.Equal(pd.partners, live[:emit]) { //reprolint:allow hotpath type-parameter instantiation for []int32, not interface boxing
			pd.rep++
		} else {
			p.emit(id, pd.partners, pd.rep)
			pd.partners = restage(pd.partners, live[:emit])
			pd.rep = 1
			restaged = true
		}
		p.mPairInc.Add(uint64(emit))
	}
	// Move to front: shift the prefix right one slot over id.
	copy(live[1:pos+1], live[:pos])
	live[0] = id

	// Verify the candidate period; on a mismatch, take the distance
	// back to id's previous execution as the next candidate.
	if p.period == 0 || p.ring[(t-p.period)&ringMask]&^0xffffffff != key {
		p.period, p.verified = 0, 0
		if d := t + 1 - p.last[id]; d <= maxPeriod {
			p.period = d
		}
	}
	p.ring[t&ringMask] = key | uint64(emit)
	p.last[id] = t + 1
	if restaged {
		p.verified = 0
		return
	}
	if p.verified++; p.verified == p.period {
		p.skipping, p.runStart = true, t+1
	}
}

// position returns id's index in the live recency list, which holds it.
func position(live []int32, id int32) int {
	pos := 0
	for live[pos] != id {
		pos++
	}
	return pos
}

// leaveRun ends the skipped run before event t. The run's events are a
// whole number of periods, which leave the recency list as the run
// found it, and then n%P more, which are replayed from the ring through
// move-to-front. The run's event and increment counts are reported in
// bulk, and the detector starts verifying afresh.
func (p *Profiler) leaveRun(t uint64) {
	n := t - p.runStart
	live := p.list[p.off:]
	for s := t - n%p.period; s < t; s++ {
		id := int32(p.ring[s&ringMask]>>32) - 1
		pos := position(live, id)
		copy(live[1:pos+1], live[:pos])
		live[0] = id
	}
	p.mPeriodic.Add(n)
	p.mPairInc.Add(p.runIncs)
	p.skipping, p.verified, p.runIncs = false, 0, 0
}

// restage copies prefix over a pending prefix's buffer, reusing its
// capacity and otherwise allocating exactly. A stored prefix holds
// distinct partners whose pairs the counters hold once it is emitted,
// and a pair is pending in at most its two endpoints' prefixes, so the
// buffers together stay within twice the counters' entry count.
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
	p.last = append(p.last, 0)               //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	p.pend = append(p.pend, pendingPrefix{}) //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	p.nbr = append(p.nbr, nbrCounter{})      //reprolint:allow hotpath first touch, once per static branch; Reserve pre-sizes
	return id
}

// emit adds branch id's partner prefix, rep times over, to each pair's
// slot in its lower id's counter. Coalescing delays emissions, so a
// counter fed by several branches may insert its keys in another order
// than the uncoalesced stream would; the pair counts are the same (see
// Profile).
func (p *Profiler) emit(id int32, partners []int32, rep uint32) {
	for _, cur := range partners {
		lo, hi := min(id, cur), max(id, cur)
		p.nbr[lo].addN(hi, rep)
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

// SetInstructions does nothing.
//
// Deprecated: profiles no longer record an instruction count; this
// method is a no-op and remains only because perfbench/ still calls it.
func (p *Profiler) SetInstructions(uint64) {}

// Profile extracts the accumulated profile. The Profiler remains usable;
// further events continue accumulating on top.
//
// Every pair's count is exact whatever the coalescing, and the list's
// rows run in ascending smaller id. Partners within a row follow their
// counter's slot order, which coalescing may change; every reader of a
// profile lays its rows out by id or sums them, so no output depends on
// that order (TestRowOrderInvariance in internal/harness pins it).
func (p *Profiler) Profile() *Profile {
	done := p.metrics.StartMerge()
	// Clearing the pending prefixes below breaks the property a skipped
	// run relies on, so end any run and verify afresh afterwards.
	if p.skipping {
		p.leaveRun(p.branches)
	}
	p.verified = 0
	// Emit every pending prefix and drop its buffer, which extraction
	// would otherwise hold alive beside the counters; the counters are
	// then complete.
	for id, pd := range p.pend {
		p.emit(int32(id), pd.partners, pd.rep)
	}
	clear(p.pend)
	out := &Profile{
		Benchmark: p.benchmark,
		InputSets: []string{p.inputSet},
		PCs:       append([]uint64(nil), p.pcs...),
		Exec:      append([]uint64(nil), p.exec...),
		Taken:     append([]uint64(nil), p.taken...),
		Pairs:     p.extractPairs(),
	}
	done(out.Pairs.Len())
	return out
}

// extractPairs lists every stored pair in one walk: counter a holds
// each pair (a, b), a < b, once, so row a is counter a's occupied
// slots in slot order. The list is allocated once at its exact length.
func (p *Profiler) extractPairs() PairList {
	total := 0
	for a := range p.nbr {
		total += p.nbr[a].n
	}
	keys := make([]uint64, 0, total)
	counts := make([]uint64, 0, total)
	for a := range p.nbr {
		for _, s := range p.nbr[a].slots {
			if s != 0 {
				y, c := partner(s)
				keys = append(keys, PairKey(int32(a), y))
				counts = append(counts, uint64(c))
			}
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

	pairs map[uint64]uint64 // PairKey → interleave count
}

// NewNaiveProfiler returns the reference profiler.
func NewNaiveProfiler(benchmark, inputSet string) *NaiveProfiler { //reprolint:allow testonly reference profiler the differential tests compare against
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
func (p *NaiveProfiler) Profile() *Profile { //reprolint:allow testonly reference profiler the differential tests compare against
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
		Benchmark: p.benchmark,
		InputSets: []string{p.inputSet},
		PCs:       append([]uint64(nil), p.pcs...),
		Exec:      append([]uint64(nil), p.exec...),
		Taken:     append([]uint64(nil), p.taken...),
		Pairs:     NewPairList(len(p.pcs), pairs),
	}
	return out
}
