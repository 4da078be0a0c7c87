package profile

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/rng"
)

// pairDump renders a pair table or list canonically: sorted by key, one
// line per pair. Two tables with identical contents dump identically
// regardless of seed, layout or list order.
func pairDump(t interface {
	Range(func(key, count uint64) bool)
}) string {
	type kv struct{ k, v uint64 }
	var pairs []kv
	t.Range(func(k, v uint64) bool {
		pairs = append(pairs, kv{k, v})
		return true
	})
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for _, p := range pairs {
		a, c := UnpackPair(p.k)
		fmt.Fprintf(&b, "%d-%d:%d\n", a, c, p.v)
	}
	return b.String()
}

// rangeSeq renders a pair list in its own Range order, one line per
// pair, for comparisons that must also match order.
func rangeSeq(l PairList) string {
	var b strings.Builder
	l.Range(func(k, v uint64) bool {
		fmt.Fprintf(&b, "%#x:%d\n", k, v)
		return true
	})
	return b.String()
}

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
