package profile

import (
	"testing"

	"repro/internal/rng"
)

// counterHas reports whether partner key is stored in c.
func counterHas(c *nbrCounter, key int32) bool {
	for _, s := range c.slots {
		if y, _ := partner(s); s != 0 && y == key {
			return true
		}
	}
	return false
}

func TestNbrCounterHas(t *testing.T) {
	var c nbrCounter
	if counterHas(&c, 3) {
		t.Fatal("empty counter claims membership")
	}
	keys := []int32{0, 3, 8, 1000, 77}
	for _, k := range keys {
		c.addN(k, 1)
	}
	for _, k := range keys {
		if !counterHas(&c, k) {
			t.Fatalf("key %d missing after add", k)
		}
	}
	for _, k := range []int32{2, 9, 999} {
		if counterHas(&c, k) {
			t.Fatalf("key %d present, never added", k)
		}
	}
}

// TestExtractedListExact checks the extracted pair list's shape: every
// key once, as many pairs as the naive reference counts distinct, and
// slices allocated at exactly their length — extraction sizes the list
// before filling it rather than over-allocating and copying.
func TestExtractedListExact(t *testing.T) {
	p := NewProfiler("t", "ref")
	naive := NewNaiveProfiler("t", "ref")
	r := rng.New(11)
	icount := uint64(0)
	for i := 0; i < 20000; i++ {
		icount += uint64(r.Intn(5) + 1)
		pc := uint64(r.Intn(64)+1) * 4
		taken := r.Intn(2) == 0
		p.Branch(pc, taken, icount)
		naive.Branch(pc, taken, icount)
	}
	l := p.Profile().Pairs
	seen := make(map[uint64]bool, l.Len())
	l.Range(func(k, _ uint64) bool {
		if seen[k] {
			t.Fatalf("key %#x listed twice", k)
		}
		seen[k] = true
		return true
	})
	if want := naive.Profile().Pairs.Len(); l.Len() != want || l.Len() == 0 {
		t.Fatalf("extracted %d pairs, naive reference counts %d", l.Len(), want)
	}
	if cap(l.keys) != l.Len() || cap(l.counts) != l.Len() {
		t.Fatalf("list of %d pairs has capacities %d/%d", l.Len(), cap(l.keys), cap(l.counts))
	}
}

// TestReleaseDropsPairs checks that Release leaves an empty pair list
// and tolerates a second call.
func TestReleaseDropsPairs(t *testing.T) {
	p := NewProfiler("t", "ref")
	feed(p, 4, 8, 4, 8)
	prof := p.Profile()
	if prof.Pairs.Len() == 0 {
		t.Fatal("no pairs extracted")
	}
	prof.Release()
	if prof.Pairs.Len() != 0 {
		t.Fatalf("Release kept %d pairs", prof.Pairs.Len())
	}
	prof.Release()
}
