package predict

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestTageHistoryLengthsMonotone pins the geometric-history invariant
// the provider-selection logic relies on: component history lengths are
// strictly increasing, start short enough to warm quickly, and fit the
// 64-bit history register.
func TestTageHistoryLengthsMonotone(t *testing.T) {
	ls := tageHistLengths[:]
	if len(ls) != tageTables {
		t.Fatalf("%d lengths for %d tables", len(ls), tageTables)
	}
	if ls[0] == 0 {
		t.Fatal("shortest history is zero")
	}
	for i := 1; i < len(ls); i++ {
		if ls[i] <= ls[i-1] {
			t.Fatalf("history lengths not strictly increasing: %v", ls)
		}
		// Geometric growth, the property the name promises: each at
		// least 1.5x the previous.
		if float64(ls[i]) < 1.5*float64(ls[i-1]) {
			t.Fatalf("history growth not geometric at %d: %v", i, ls)
		}
	}
	if ls[len(ls)-1] > 64 {
		t.Fatalf("longest history %d exceeds the register", ls[len(ls)-1])
	}
}

// TestTageAccuracyMonotoneInHistory is the behavioral monotonicity
// property: on a pattern whose period exceeds the short components'
// reach, the full cascade must beat its own base table, and longer
// history must never be catastrophically worse than shorter on patterns
// both can express.
func TestTageAccuracyMonotoneInHistory(t *testing.T) {
	// Period-20 pattern: 19 taken, 1 not-taken. The base bimodal counter
	// settles at taken and eats the periodic miss forever; components
	// with >= 20 bits of history can learn the exception exactly.
	dir := func(_ uint64, i int) bool { return i%20 != 19 }

	tage, err := NewTAGE(PCModIndexer{Entries: 256}, 256)
	if err != nil {
		t.Fatal(err)
	}
	tageMiss, total := drive(tage, []uint64{0x40}, 4000, dir)

	base, err := NewBimodal(256)
	if err != nil {
		t.Fatal(err)
	}
	baseMiss, _ := drive(base, []uint64{0x40}, 4000, dir)

	tageRate := float64(tageMiss) / float64(total)
	baseRate := float64(baseMiss) / float64(total)
	if tageRate > 0.02 {
		t.Fatalf("TAGE rate %.4f on period-20 pattern, want ~0", tageRate)
	}
	if baseRate < 0.04 {
		t.Fatalf("base rate %.4f unexpectedly low — pattern not probing history", baseRate)
	}
}

// TestTageLearnsCorrelation mirrors the gshare test: branch B follows
// branch A, a one-bit global correlation every tagged component sees.
func TestTageLearnsCorrelation(t *testing.T) {
	p, err := NewTAGE(PCModIndexer{Entries: 128}, 128)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	miss, total := 0, 0
	for i := 0; i < 4000; i++ {
		a := r.Bool(0.5)
		p.Update(0x40, a)
		if i > 1000 {
			if p.Predict(0x80) != a {
				miss++
			}
			total++
		}
		p.Update(0x80, a)
	}
	if rate := float64(miss) / float64(total); rate > 0.10 {
		t.Fatalf("TAGE missed inter-branch correlation: %.3f", rate)
	}
}

// foldHistory is the reference definition of the TAGE history hash: it
// XOR-folds the low histLen bits of h into a bits-wide value. The
// folded registers TAGE keeps incrementally must always equal it.
func foldHistory(h uint64, histLen, bits uint) uint32 {
	if bits == 0 || histLen == 0 {
		return 0
	}
	if histLen < 64 {
		h &= 1<<histLen - 1
	}
	mask := uint32(1)<<bits - 1
	var f uint32
	for ; h != 0; h >>= bits {
		f ^= uint32(h) & mask
	}
	return f
}

// TestFoldHistoryProperties checks the XOR-fold hash via testing/quick:
// output always fits the requested width, folding is linear over XOR
// (it's a GF(2) projection), and bits beyond histLen never leak in.
func TestFoldHistoryProperties(t *testing.T) {
	width := func(h uint64, histLen, bits uint8) bool {
		b := uint(bits%16) + 1 // 1..16
		return foldHistory(h, uint(histLen), b) < 1<<b
	}
	linear := func(a, b uint64, histLen, bits uint8) bool {
		w := uint(bits%16) + 1
		l := uint(histLen)
		return foldHistory(a^b, l, w) == foldHistory(a, l, w)^foldHistory(b, l, w)
	}
	masked := func(h uint64, histLen, bits uint8) bool {
		w := uint(bits%16) + 1
		l := uint(histLen % 64)
		// Bits at positions >= histLen must not affect the fold.
		return foldHistory(h, l, w) == foldHistory(h|(^uint64(0)<<l), l, w) || l == 0
	}
	for name, f := range map[string]any{"width": width, "linear": linear, "masked": masked} {
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if foldHistory(0, 32, 8) != 0 {
		t.Error("fold of empty history nonzero")
	}
	if foldHistory(^uint64(0), 0, 8) != 0 || foldHistory(^uint64(0), 8, 0) != 0 {
		t.Error("degenerate widths not zero")
	}
}

// TestTageLFSRDeterministicAndFullPeriod: the allocation LFSR restarts
// from the seed on Flush and never reaches the all-zero lockup state.
func TestTageLFSRDeterministic(t *testing.T) {
	p, err := NewTAGE(PCModIndexer{Entries: 16}, 16)
	if err != nil {
		t.Fatal(err)
	}
	var first [32]uint16
	for i := range first {
		first[i] = p.lfsr()
	}
	p.Flush()
	for i := range first {
		if v := p.lfsr(); v != first[i] {
			t.Fatalf("LFSR not reset by Flush: step %d got %#x want %#x", i, v, first[i])
		}
		if first[i] == 0 {
			t.Fatal("LFSR reached lockup state")
		}
	}
}

// TestTageUsefulAging: after tageAgePeriod updates every useful counter
// has been halved, so stale protection decays.
func TestTageUsefulAging(t *testing.T) {
	p, err := NewTAGE(PCModIndexer{Entries: 16}, 16)
	if err != nil {
		t.Fatal(err)
	}
	p.tables[0][3].u = 3
	p.tables[2][5].u = 1
	p.ticks = tageAgePeriod - 1 // the next update crosses the period
	p.Update(0x40, true)
	if got := p.tables[0][3].u; got != 1 {
		t.Fatalf("u=3 aged to %d, want 1", got)
	}
	if got := p.tables[2][5].u; got != 0 {
		t.Fatalf("u=1 aged to %d, want 0", got)
	}
	if p.ticks != 0 {
		t.Fatalf("ticks %d after aging, want 0", p.ticks)
	}
}

func TestTageRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100} {
		if _, err := NewTAGE(PCModIndexer{Entries: 16}, n); err == nil {
			t.Errorf("TAGE size %d accepted", n)
		}
	}
}
