package profile

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// pairMap reads a pair table or list into a map, for tests that look up
// single counts.
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

func TestPairCountsBasic(t *testing.T) {
	pc := NewPairCounts(0)
	if pc.Len() != 0 {
		t.Fatal("new table not empty")
	}
	pc.Add(1, 1)
	pc.Add(2, 5)
	pc.Add(1, 2)
	if pc.Len() != 2 {
		t.Fatalf("len = %d", pc.Len())
	}
	if got := pairMap(pc); got[1] != 3 || got[2] != 5 || got[3] != 0 {
		t.Fatalf("values wrong: %d %d %d", got[1], got[2], got[3])
	}
}

func TestPairCountsZeroKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(0) did not panic")
		}
	}()
	NewPairCounts(0).Add(0, 1)
}

func TestPairCountsGrowth(t *testing.T) {
	pc := NewPairCounts(0)
	const n = 100000
	for i := uint64(1); i <= n; i++ {
		pc.Add(i, i)
	}
	if pc.Len() != n {
		t.Fatalf("len = %d, want %d", pc.Len(), n)
	}
	got := pairMap(pc)
	for i := uint64(1); i <= n; i += 997 {
		if got[i] != i {
			t.Fatalf("count of %d = %d", i, got[i])
		}
	}
}

func TestPairCountsMatchesMap(t *testing.T) {
	r := rng.New(17)
	pc := NewPairCounts(0)
	ref := make(map[uint64]uint64)
	for i := 0; i < 200000; i++ {
		key := uint64(r.Intn(5000) + 1)
		delta := uint64(r.Intn(10) + 1)
		pc.Add(key, delta)
		ref[key] += delta
	}
	if pc.Len() != len(ref) {
		t.Fatalf("len %d != map %d", pc.Len(), len(ref))
	}
	seen := 0
	pc.Range(func(k, v uint64) bool {
		if ref[k] != v {
			t.Fatalf("range key %d: %d != %d", k, v, ref[k])
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("range visited %d of %d", seen, len(ref))
	}
}

func TestPairCountsRangeEarlyStop(t *testing.T) {
	pc := NewPairCounts(0)
	for i := uint64(1); i <= 10; i++ {
		pc.Add(i, 1)
	}
	visited := 0
	pc.Range(func(_, _ uint64) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("early stop visited %d", visited)
	}
}

// TestPairCountsClone checks that List freezes an independent copy:
// later adds to the table leave the list as it was.
func TestPairCountsClone(t *testing.T) {
	pc := NewPairCounts(0)
	pc.Add(7, 3)
	frozen := pc.List()
	pc.Add(7, 1)
	pc.Add(9, 1)
	if got := pairMap(frozen); len(got) != 1 || got[7] != 3 {
		t.Fatalf("frozen list changed with its table: %v", got)
	}
	if got := pairMap(pc.List()); len(got) != 2 || got[7] != 4 || got[9] != 1 {
		t.Fatalf("list of the updated table wrong: %v", got)
	}
	if l := pc.List(); l.Len() != 2 || cap(l.keys) != 2 || cap(l.counts) != 2 {
		t.Fatalf("List not exactly sized: len %d, caps %d/%d", l.Len(), cap(l.keys), cap(l.counts))
	}
}

func TestPairCountsCapacityHint(t *testing.T) {
	pc := NewPairCounts(1 << 16)
	for i := uint64(1); i <= 1<<16; i++ {
		pc.Add(i, 1)
	}
	if pc.Len() != 1<<16 {
		t.Fatalf("len = %d", pc.Len())
	}
}

func TestPairCountsProperty(t *testing.T) {
	f := func(keys []uint32) bool {
		pc := NewPairCounts(0)
		ref := make(map[uint64]uint64)
		for _, k := range keys {
			key := uint64(k) + 1
			pc.Add(key, 1)
			ref[key]++
		}
		got := pairMap(pc)
		for k, v := range ref {
			if got[k] != v {
				return false
			}
		}
		return pc.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPairCountsAdd(b *testing.B) {
	pc := NewPairCounts(1 << 20)
	r := rng.New(1)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = uint64(r.Uint32()) + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.Add(keys[i&(1<<16-1)], 1)
	}
}
