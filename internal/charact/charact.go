// Package charact computes a branch-predictability characterization:
// for every static conditional branch it measures the taken-rate bias,
// the empirical direction entropy, and the history-sensitivity — the
// entropy that remains after conditioning the direction on the last k
// outcomes of the same branch (local history) or of all branches
// (global history). Together these explain *why* a branch is easy or
// hard: a low-entropy branch is predictable by bias alone, a
// high-entropy branch whose conditional entropy collapses is
// predictable by any history-based scheme, and a branch whose entropy
// survives conditioning defeats them all (the graph-traversal regime
// of "Workload Characterization for Branch Predictability").
//
// The Collector implements vm.BranchSink, so it rides the same
// MultiSink replay the profiler and the predictor zoo share: one
// deterministic branch stream feeds every consumer, which is what
// makes the report byte-identical across worker settings.
package charact

import (
	"math"
	"sort"

	"repro/internal/isa"
)

// MaxHistory is the deepest conditioning history, in bits. Counts are
// kept jointly at this depth; shallower depths are derived by
// marginalization, which guarantees exactly that conditioning on a
// longer history never increases entropy.
const MaxHistory = 4

const historySlots = 1 << MaxHistory

// branchState accumulates one static branch's direction stream.
type branchState struct {
	pc    uint64
	count uint64
	taken uint64
	// local is the branch's own k-bit outcome history; joint[h][d]
	// counts direction d observed under history h. Bit 0 of a history
	// is the most recent outcome.
	local       uint32
	localJoint  [historySlots][2]uint64
	globalJoint [historySlots][2]uint64
}

// Collector accumulates per-branch direction statistics from a branch
// event stream. Not safe for concurrent use; drive it from one replay.
type Collector struct {
	ix     isa.PCIndex
	states []branchState // by ix id
	global uint32
	events uint64
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// Branch consumes one event, updating the branch's bias counters and
// its history-conditioned joint counts. This runs once per dynamic
// branch of the replayed stream.
//
//reprolint:hotpath charact per-event collector
func (c *Collector) Branch(pc uint64, taken bool, _ uint64) {
	id, ok := c.ix.Lookup(pc)
	if !ok {
		id = c.newState(pc)
	}
	st := &c.states[id]
	d := 0
	if taken {
		d = 1
	}
	st.count++
	st.taken += uint64(d)
	st.localJoint[st.local&(historySlots-1)][d]++
	st.globalJoint[c.global&(historySlots-1)][d]++
	st.local = st.local<<1 | uint32(d)
	c.global = c.global<<1 | uint32(d)
	c.events++
}

// newState discovers a static branch.
func (c *Collector) newState(pc uint64) int32 {
	c.states = append(c.states, branchState{pc: pc}) //reprolint:allow hotpath first sight of a static branch, amortized over the dynamic stream
	return c.ix.Intern(pc)
}

// Events returns the number of consumed branch events.
func (c *Collector) Events() uint64 { return c.events }

// BranchChar is one static branch's characterization. All entropies
// are in bits per branch, in [0, 1].
type BranchChar struct {
	PC    uint64
	Count uint64
	Taken uint64
	// Bias is the taken rate.
	Bias float64
	// Entropy is the unconditional direction entropy H(X).
	Entropy float64
	// LocalCond[k-1] is H(X | last k own outcomes), k = 1..MaxHistory.
	LocalCond [MaxHistory]float64
	// GlobalCond[k-1] is H(X | last k global outcomes).
	GlobalCond [MaxHistory]float64
}

// HistorySensitivity is the entropy removed by the best MaxHistory-bit
// history — how much of the branch's apparent randomness a
// history-based predictor can see through.
func (b BranchChar) HistorySensitivity() float64 {
	return b.Entropy - math.Min(b.LocalCond[MaxHistory-1], b.GlobalCond[MaxHistory-1])
}

// Report is a finished characterization.
type Report struct {
	// Branches holds one entry per static branch, sorted by PC.
	Branches []BranchChar
	// Events is the dynamic branch count.
	Events uint64
}

// Report computes the characterization from the accumulated counts.
// The Collector remains usable (and further events keep accumulating).
func (c *Collector) Report() *Report {
	r := &Report{Events: c.events, Branches: make([]BranchChar, 0, len(c.states))}
	for i := range c.states {
		st := &c.states[i]
		bc := BranchChar{PC: st.pc, Count: st.count, Taken: st.taken}
		if st.count > 0 {
			bc.Bias = float64(st.taken) / float64(st.count)
		}
		bc.Entropy = BinaryEntropy(bc.Bias)
		for k := 1; k <= MaxHistory; k++ {
			bc.LocalCond[k-1] = condEntropy(&st.localJoint, k)
			bc.GlobalCond[k-1] = condEntropy(&st.globalJoint, k)
		}
		r.Branches = append(r.Branches, bc)
	}
	sort.Slice(r.Branches, func(a, b int) bool { return r.Branches[a].PC < r.Branches[b].PC })
	return r
}

// condEntropy computes H(X | k-bit history) from the MaxHistory-deep
// joint counts by marginalizing histories onto their k most recent
// bits. Because a k-bit history is a deterministic function of the
// (k+1)-bit one, the sequence is non-increasing in k by construction.
func condEntropy(joint *[historySlots][2]uint64, k int) float64 {
	mask := uint32(1<<k - 1)
	var buckets [historySlots][2]uint64
	var total uint64
	for h := uint32(0); h < historySlots; h++ {
		b := &buckets[h&mask]
		b[0] += joint[h][0]
		b[1] += joint[h][1]
		total += joint[h][0] + joint[h][1]
	}
	if total == 0 {
		return 0
	}
	var sum float64
	for h := uint32(0); h <= mask; h++ {
		n := buckets[h][0] + buckets[h][1]
		if n == 0 {
			continue
		}
		p := float64(buckets[h][1]) / float64(n)
		sum += float64(n) / float64(total) * BinaryEntropy(p)
	}
	return sum
}

// BinaryEntropy returns H(p) = -p log2 p - (1-p) log2 (1-p), the
// entropy in bits of a Bernoulli(p) direction; H(0) = H(1) = 0.
func BinaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// Summary aggregates a report, weighting each branch by its dynamic
// count so the numbers describe the executed stream rather than the
// static site list.
type Summary struct {
	// Static is the static branch count, Dynamic the event count.
	Static  int
	Dynamic uint64
	// TakenRate is the dynamic taken fraction.
	TakenRate float64
	// Entropy is the count-weighted mean unconditional entropy.
	Entropy float64
	// LocalCond and GlobalCond are the count-weighted mean conditional
	// entropies at MaxHistory bits.
	LocalCond  float64
	GlobalCond float64
	// HardFraction is the fraction of dynamic branches whose entropy
	// survives the best MaxHistory-bit conditioning above 0.5 bits —
	// the share no history predictor at this depth can see through.
	HardFraction float64
}

// HistorySensitivity is the aggregate entropy removed by the best
// MaxHistory-bit history.
func (s Summary) HistorySensitivity() float64 {
	return s.Entropy - math.Min(s.LocalCond, s.GlobalCond)
}

// Summary computes the report's dynamic-count-weighted aggregate.
func (r *Report) Summary() Summary {
	s := Summary{Static: len(r.Branches), Dynamic: r.Events}
	if r.Events == 0 {
		return s
	}
	var taken uint64
	var hard uint64
	total := float64(r.Events)
	for _, b := range r.Branches {
		w := float64(b.Count) / total
		taken += b.Taken
		s.Entropy += w * b.Entropy
		s.LocalCond += w * b.LocalCond[MaxHistory-1]
		s.GlobalCond += w * b.GlobalCond[MaxHistory-1]
		if math.Min(b.LocalCond[MaxHistory-1], b.GlobalCond[MaxHistory-1]) > 0.5 {
			hard += b.Count
		}
	}
	s.TakenRate = float64(taken) / total
	s.HardFraction = float64(hard) / total
	return s
}
