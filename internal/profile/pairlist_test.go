package profile

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// pairMap reads a pair list into a map, for tests that look up single
// counts.
func pairMap(pairs interface {
	Range(func(key, count uint64) bool)
}) map[uint64]uint64 {
	m := make(map[uint64]uint64)
	pairs.Range(func(k, v uint64) bool {
		m[k] = v
		return true
	})
	return m
}

// checkPairListShape fails t unless l is exactly sized, holds each pair
// once, and runs in rows of ascending smaller id.
func checkPairListShape(t *testing.T, l PairList) {
	t.Helper()
	if cap(l.keys) != l.Len() || cap(l.counts) != l.Len() {
		t.Fatalf("list of %d pairs has capacities %d/%d", l.Len(), cap(l.keys), cap(l.counts))
	}
	seen := make(map[uint64]bool, l.Len())
	for i, k := range l.keys {
		if seen[k] {
			t.Fatalf("pair %#x listed twice", k)
		}
		seen[k] = true
		if i > 0 && l.keys[i-1]>>32 > k>>32 {
			t.Fatalf("row %d listed after row %d", k>>32, l.keys[i-1]>>32)
		}
	}
}

func TestPairListBasic(t *testing.T) {
	l := NewPairList(4, []PairCount{
		{A: 2, B: 1, Count: 1},
		{A: 0, B: 3, Count: 5},
		{A: 1, B: 2, Count: 2},
	})
	checkPairListShape(t, l)
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
	got := pairMap(l)
	if got[PairKey(1, 2)] != 3 || got[PairKey(0, 3)] != 5 || got[PairKey(0, 1)] != 0 {
		t.Fatalf("values wrong: %v", got)
	}
	if NewPairList(0, nil).Len() != 0 {
		t.Fatal("empty input gives a non-empty list")
	}
}

// TestPairListOrder pins the documented order: rows in ascending
// smaller id, partners within a row in order of first appearance.
func TestPairListOrder(t *testing.T) {
	l := NewPairList(6, []PairCount{
		{A: 4, B: 1, Count: 1},
		{A: 0, B: 5, Count: 1},
		{A: 1, B: 2, Count: 1},
		{A: 3, B: 0, Count: 1},
		{A: 1, B: 4, Count: 1},
		{A: 5, B: 0, Count: 1},
	})
	var b strings.Builder
	l.Range(func(k, v uint64) bool {
		x, y := UnpackPair(k)
		fmt.Fprintf(&b, "%d-%d:%d ", x, y, v)
		return true
	})
	if want := "0-5:2 0-3:1 1-4:2 1-2:1 "; b.String() != want {
		t.Fatalf("order %q, want %q", b.String(), want)
	}
}

func TestPairListMatchesMap(t *testing.T) {
	r := rng.New(17)
	const n = 300
	pairs := make([]PairCount, 0, 200000)
	ref := make(map[uint64]uint64)
	for len(pairs) < cap(pairs) {
		a, b := int32(r.Intn(n)), int32(r.Intn(n))
		if a == b {
			continue
		}
		delta := uint64(r.Intn(10) + 1)
		pairs = append(pairs, PairCount{A: a, B: b, Count: delta})
		ref[PairKey(a, b)] += delta
	}
	l := NewPairList(n, pairs)
	checkPairListShape(t, l)
	if l.Len() != len(ref) {
		t.Fatalf("len %d != map %d", l.Len(), len(ref))
	}
	seen := 0
	l.Range(func(k, v uint64) bool {
		if ref[k] != v {
			t.Fatalf("range key %#x: %d != %d", k, v, ref[k])
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("range visited %d of %d", seen, len(ref))
	}
}

func TestPairListRangeEarlyStop(t *testing.T) {
	var pairs []PairCount
	for b := int32(1); b <= 10; b++ {
		pairs = append(pairs, PairCount{A: 0, B: b, Count: 1})
	}
	visited := 0
	NewPairList(11, pairs).Range(func(_, _ uint64) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("early stop visited %d", visited)
	}
}

// TestPairListIndependentOfInput checks that a list owns its storage:
// reusing the input slice afterwards leaves the list as it was.
func TestPairListIndependentOfInput(t *testing.T) {
	pairs := []PairCount{{A: 0, B: 1, Count: 3}}
	l := NewPairList(2, pairs)
	pairs[0].Count = 9
	if got := pairMap(l); len(got) != 1 || got[PairKey(0, 1)] != 3 {
		t.Fatalf("list changed with its input: %v", got)
	}
}

func TestPairListProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 32
		pairs := make([]PairCount, 0, len(raw))
		ref := make(map[uint64]uint64)
		for _, x := range raw {
			a, b := int32(x%n), int32(x/n%n)
			if a == b {
				continue
			}
			pairs = append(pairs, PairCount{A: a, B: b, Count: 1})
			ref[PairKey(a, b)]++
		}
		got := pairMap(NewPairList(n, pairs))
		for k, v := range ref {
			if got[k] != v {
				return false
			}
		}
		return len(got) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNewPairList(b *testing.B) {
	const n = 4096
	r := rng.New(1)
	pairs := make([]PairCount, 1<<16)
	for i := range pairs {
		x := int32(r.Intn(n))
		pairs[i] = PairCount{A: x, B: (x + 1 + int32(r.Intn(n-1))) % n, Count: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPairList(n, pairs)
	}
}
