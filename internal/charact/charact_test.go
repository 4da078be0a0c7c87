package charact

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func feed(c *Collector, pc uint64, dirs ...bool) {
	for i, d := range dirs {
		c.Branch(pc, d, uint64(i))
	}
}

func TestCollectorBiasAndEntropy(t *testing.T) {
	c := NewCollector()
	feed(c, 0x40, true, true, true, true)                // always taken
	feed(c, 0x80, false, false, false, false)            // never taken
	feed(c, 0xc0, true, false, true, false, true, false) // alternating
	r := c.Report()
	if len(r.Branches) != 3 {
		t.Fatalf("want 3 branches, got %d", len(r.Branches))
	}
	if r.Events != 14 {
		t.Fatalf("want 14 events, got %d", r.Events)
	}
	at := func(pc uint64) BranchChar {
		for _, b := range r.Branches {
			if b.PC == pc {
				return b
			}
		}
		t.Fatalf("pc %#x missing", pc)
		return BranchChar{}
	}
	taken := at(0x40)
	if taken.Bias != 1 || taken.Entropy != 0 {
		t.Errorf("always-taken: bias %v entropy %v", taken.Bias, taken.Entropy)
	}
	never := at(0x80)
	if never.Bias != 0 || never.Entropy != 0 {
		t.Errorf("never-taken: bias %v entropy %v", never.Bias, never.Entropy)
	}
	alt := at(0xc0)
	if alt.Bias != 0.5 || alt.Entropy != 1 {
		t.Errorf("alternating: bias %v entropy %v", alt.Bias, alt.Entropy)
	}
	// One bit of local history fully determines an alternating branch:
	// after the warm first events, conditional entropy collapses.
	if alt.LocalCond[0] > 0.3 {
		t.Errorf("alternating branch should be nearly determined by 1-bit local history, H = %v", alt.LocalCond[0])
	}
	if alt.Entropy-alt.LocalCond[MaxHistory-1] < 0.5 {
		t.Errorf("alternating branch should be history-sensitive, H = %v", alt.LocalCond[MaxHistory-1])
	}
}

func TestReportSortedByPC(t *testing.T) {
	c := NewCollector()
	feed(c, 0x400, true)
	feed(c, 0x40, false)
	feed(c, 0x7fffffffc, true) // beyond the dense table: map fallback
	feed(c, 0x43, true)        // unaligned: map fallback
	r := c.Report()
	for i := 1; i < len(r.Branches); i++ {
		if r.Branches[i-1].PC >= r.Branches[i].PC {
			t.Fatalf("report not sorted by PC: %#x before %#x", r.Branches[i-1].PC, r.Branches[i].PC)
		}
	}
	if len(r.Branches) != 4 {
		t.Fatalf("want 4 branches, got %d", len(r.Branches))
	}
}

// TestBinaryEntropyProperties: H(p) ∈ [0,1], H is symmetric about 0.5
// (bias-0.5 symmetry), and H(0.5) = 1.
func TestBinaryEntropyProperties(t *testing.T) {
	if BinaryEntropy(0.5) != 1 {
		t.Errorf("H(0.5) = %v, want 1", BinaryEntropy(0.5))
	}
	prop := func(raw uint16) bool {
		p := float64(raw) / math.MaxUint16
		h := BinaryEntropy(p)
		if h < 0 || h > 1 {
			t.Logf("H(%v) = %v out of [0,1]", p, h)
			return false
		}
		if diff := math.Abs(h - BinaryEntropy(1-p)); diff > 1e-12 {
			t.Logf("H(%v) != H(%v): diff %v", p, 1-p, diff)
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestConditioningMonotone: for random direction streams, entropy is
// in [0,1] at every depth and conditioning on a longer history never
// increases it — exactly, because shallower depths marginalize the
// deepest joint counts.
func TestConditioningMonotone(t *testing.T) {
	prop := func(seed uint64, biasRaw uint8, events uint16) bool {
		r := rng.New(seed)
		bias := float64(biasRaw) / 255
		c := NewCollector()
		n := 16 + int(events)%512
		for i := 0; i < n; i++ {
			c.Branch(0x40, r.Float64() < bias, uint64(i))
		}
		b := c.Report().Branches[0]
		for _, cond := range [][MaxHistory]float64{b.LocalCond, b.GlobalCond} {
			prev := b.Entropy
			for k := 0; k < MaxHistory; k++ {
				if cond[k] < 0 || cond[k] > 1 {
					t.Logf("H at depth %d = %v out of [0,1]", k+1, cond[k])
					return false
				}
				if cond[k] > prev+1e-12 {
					t.Logf("conditioning on %d bits increased entropy: %v -> %v", k+1, prev, cond[k])
					return false
				}
				prev = cond[k]
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPatternCollapsesUnderHistory: a period-4 pattern looks random to
// the bias (entropy 1) but is fully determined by 2+ bits of local
// history.
func TestPatternCollapsesUnderHistory(t *testing.T) {
	c := NewCollector()
	pattern := []bool{true, true, false, false}
	for i := 0; i < 400; i++ {
		c.Branch(0x40, pattern[i%len(pattern)], uint64(i))
	}
	b := c.Report().Branches[0]
	if b.Entropy < 0.99 {
		t.Errorf("period-4 pattern should have full marginal entropy, got %v", b.Entropy)
	}
	if b.LocalCond[1] > 0.05 {
		t.Errorf("2-bit local history should determine the pattern, H = %v", b.LocalCond[1])
	}
}

// TestGlobalHistoryCorrelation: a branch that copies the previous
// outcome of a different branch is opaque to local history at depth 1
// but collapses under global history.
func TestGlobalHistoryCorrelation(t *testing.T) {
	c := NewCollector()
	r := rng.New(5)
	prev := false
	for i := 0; i < 2000; i++ {
		lead := r.Float64() < 0.5
		c.Branch(0x40, lead, uint64(2*i))
		c.Branch(0x80, prev, uint64(2*i+1)) // copies last round's leader
		prev = lead
	}
	var follower BranchChar
	for _, b := range c.Report().Branches {
		if b.PC == 0x80 {
			follower = b
		}
	}
	if follower.Entropy < 0.95 {
		t.Fatalf("follower should look random in isolation, entropy %v", follower.Entropy)
	}
	if follower.GlobalCond[MaxHistory-1] > 0.2 {
		t.Errorf("global history should expose the correlation, H = %v", follower.GlobalCond[MaxHistory-1])
	}
	if follower.LocalCond[0] < 0.9 {
		t.Errorf("1-bit local history should not explain the follower, H = %v", follower.LocalCond[0])
	}
}

func TestSummaryWeighting(t *testing.T) {
	c := NewCollector()
	// 900 events of a solved branch, 100 of a coin flip.
	for i := 0; i < 900; i++ {
		c.Branch(0x40, true, uint64(i))
	}
	r := rng.New(9)
	for i := 0; i < 100; i++ {
		c.Branch(0x80, r.Float64() < 0.5, uint64(900+i))
	}
	s := c.Report().Summary()
	if s.Static != 2 || s.Dynamic != 1000 {
		t.Fatalf("summary counts: %+v", s)
	}
	if s.Entropy > 0.15 {
		t.Errorf("count weighting should dilute the rare random branch, entropy %v", s.Entropy)
	}
	if s.TakenRate < 0.9 {
		t.Errorf("taken rate %v, want ~0.93", s.TakenRate)
	}
	if s.HardFraction > 0.2 {
		t.Errorf("hard fraction %v, want ~0.1", s.HardFraction)
	}
	empty := NewCollector().Report().Summary()
	if empty.Static != 0 || empty.Dynamic != 0 || empty.Entropy != 0 {
		t.Errorf("empty summary not zero: %+v", empty)
	}
}
