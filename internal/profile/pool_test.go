package profile

import (
	"testing"

	"repro/internal/rng"
)

func TestPairCountsResetKeepsAllocation(t *testing.T) {
	pc := NewPairCounts(1 << 12)
	for i := uint64(1); i <= 1000; i++ {
		pc.Add(i, i)
	}
	capBefore := pc.Cap()
	pc.Reset()
	if pc.Len() != 0 {
		t.Fatalf("len after Reset = %d", pc.Len())
	}
	if pc.Cap() != capBefore {
		t.Fatalf("Reset changed cap %d -> %d", capBefore, pc.Cap())
	}
	for i := uint64(1); i <= 1000; i += 97 {
		if pc.Get(i) != 0 {
			t.Fatalf("Get(%d) = %d after Reset", i, pc.Get(i))
		}
	}
	// The reset table must accept fresh inserts correctly.
	pc.Add(7, 3)
	if pc.Get(7) != 3 || pc.Len() != 1 {
		t.Fatal("reset table mis-stores fresh inserts")
	}
}

func TestPairCountsPoolReuse(t *testing.T) {
	big := NewPairCounts(1 << 14)
	big.Add(42, 1)
	PutPairCounts(big)

	got := GetPairCounts(100)
	if got != big {
		// The pool may legitimately have been drained (GC); then we get
		// a fresh, correctly sized table — still verify that contract.
		t.Logf("pool did not return the recycled table (GC drained?)")
	}
	if got.Len() != 0 || got.Get(42) != 0 {
		t.Fatalf("pooled table not empty: len=%d get=%d", got.Len(), got.Get(42))
	}
	if got.Cap() < 100 {
		t.Fatalf("pooled table cap %d below hint", got.Cap())
	}
}

func TestGetPairCountsRejectsUndersized(t *testing.T) {
	small := NewPairCounts(0)
	hint := small.Cap() + 1
	PutPairCounts(small)
	got := GetPairCounts(hint)
	if got.Cap() < hint {
		t.Fatalf("GetPairCounts(%d) returned cap %d", hint, got.Cap())
	}
}

func TestPutPairCountsNil(t *testing.T) {
	PutPairCounts(nil) // must not panic
}

func TestNbrCounterHas(t *testing.T) {
	var c nbrCounter
	if c.has(3) {
		t.Fatal("empty counter claims membership")
	}
	keys := []int32{0, 3, 8, 1000, 77}
	for _, k := range keys {
		c.addN(k, 1)
	}
	for _, k := range keys {
		if !c.has(k) {
			t.Fatalf("has(%d) = false after add", k)
		}
	}
	for _, k := range []int32{2, 9, 999} {
		if c.has(k) {
			t.Fatalf("has(%d) = true, never added", k)
		}
	}
}

// TestDistinctPairsExact checks that the extraction-table size estimate
// equals the number of pairs actually extracted — the property that
// makes Profile() allocate exactly and never rehash. The estimate must
// not double-count pairs stored in both endpoints' neighbor counters.
func TestDistinctPairsExact(t *testing.T) {
	p := NewProfiler("t", "ref")
	r := rng.New(11)
	icount := uint64(0)
	for i := 0; i < 20000; i++ {
		icount += uint64(r.Intn(5) + 1)
		pc := uint64(r.Intn(64)+1) * 4
		p.Branch(pc, r.Intn(2) == 0, icount)
	}
	want := p.distinctPairs()
	// Empty the pool so extraction allocates its table to the hint
	// rather than reusing a larger one from an earlier test.
	for pairPool.Get() != nil {
	}
	prof := p.Profile()
	if got := prof.Pairs.Len(); got != want {
		t.Fatalf("distinctPairs() = %d but extraction stored %d", want, got)
	}
	// Exact sizing: the table sized for this hint holds the extraction
	// without growing, although it ends exactly full and later pair
	// halves keep hitting stored keys.
	if got, fresh := prof.Pairs.Cap(), NewPairCounts(want).Cap(); got != fresh {
		t.Fatalf("extracted table Cap() = %d, want NewPairCounts(%d).Cap() = %d", got, want, fresh)
	}
	prof.Release()
	if prof.Pairs != nil {
		t.Fatal("Release did not clear Pairs")
	}
	prof.Release() // second Release must be a no-op
}

// TestProfileAfterRelease checks extraction still works when the pool
// recycles a previous profile's table.
func TestProfileAfterRelease(t *testing.T) {
	p := NewProfiler("t", "ref")
	r := rng.New(5)
	icount := uint64(0)
	for i := 0; i < 5000; i++ {
		icount += uint64(r.Intn(3) + 1)
		p.Branch(uint64(r.Intn(32)+1)*4, r.Intn(2) == 0, icount)
	}
	first := p.Profile()
	wantLen := first.Pairs.Len()
	firstKeyCounts := make(map[uint64]uint64)
	first.Pairs.Range(func(k, v uint64) bool {
		firstKeyCounts[k] = v
		return true
	})
	first.Release()

	second := p.Profile()
	if second.Pairs.Len() != wantLen {
		t.Fatalf("re-extraction len %d != %d", second.Pairs.Len(), wantLen)
	}
	for k, v := range firstKeyCounts {
		if second.Pairs.Get(k) != v {
			t.Fatalf("pair %d: %d != %d after pool round-trip", k, second.Pairs.Get(k), v)
		}
	}
}
