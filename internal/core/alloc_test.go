package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/profile"
	"repro/internal/rng"
)

func TestConventionalIndex(t *testing.T) {
	if ConventionalIndex(0, 16) != 0 {
		t.Fatal("pc 0")
	}
	if ConventionalIndex(4, 16) != 1 {
		t.Fatal("pc 4 -> word 1")
	}
	if ConventionalIndex(4*16, 16) != 0 {
		t.Fatal("wraparound")
	}
	if ConventionalIndex(4*17, 16) != 1 {
		t.Fatal("wraparound+1")
	}
}

func TestAllocateConflictFreeClique(t *testing.T) {
	// One clique of 4 with table size 8: conflict-free allocation must
	// exist and be found.
	p := buildProfile(mixed(4, 1000), cliquePairs(500, 0, 1, 2, 3))
	a, err := Allocate(p, AllocationConfig{TableSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.ConflictCost != 0 {
		t.Fatalf("conflict cost %d, want 0", a.ConflictCost)
	}
	entries := map[int]bool{}
	for _, pc := range a.Map.PCs() {
		e := a.Map.EntryFor(pc)
		if entries[e] {
			t.Fatal("clique members share an entry despite space")
		}
		entries[e] = true
	}
	if a.Map.Allocated() != 4 {
		t.Fatalf("allocated = %d", a.Map.Allocated())
	}
	if a.Classification != nil {
		t.Fatal("classification attached without request")
	}
}

func TestAllocateUnderPressureSharesCheapest(t *testing.T) {
	// Clique of 3 into 2 entries: the two least-conflicting branches
	// must share.
	pairs := [][3]uint64{
		{0, 1, 1000},
		{0, 2, 900},
		{1, 2, 100},
	}
	p := buildProfile(mixed(3, 1000), pairs)
	a, err := Allocate(p, AllocationConfig{TableSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.ConflictCost != 100 {
		t.Fatalf("conflict cost %d, want 100 (cheapest edge)", a.ConflictCost)
	}
}

func TestAllocateEntryForFallback(t *testing.T) {
	p := buildProfile(mixed(2, 1000), cliquePairs(500, 0, 1))
	a, err := Allocate(p, AllocationConfig{TableSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	// An unprofiled branch (library code) must fall back to PC modulo.
	const unknownPC = 4 * 1000
	if got := a.Map.EntryFor(unknownPC); got != ConventionalIndex(unknownPC, 16) {
		t.Fatalf("fallback entry %d", got)
	}
}

func TestAllocateClassificationReservesEntries(t *testing.T) {
	branches := [][2]uint64{
		{1000, 1000}, // biased taken
		{1000, 999},  // biased taken
		{1000, 0},    // biased not-taken
		{1000, 500},  // mixed
		{1000, 500},  // mixed
	}
	// Everything conflicts with everything.
	pairs := cliquePairs(500, 0, 1, 2, 3, 4)
	p := buildProfile(branches, pairs)
	a, err := Allocate(p, AllocationConfig{TableSize: 8, UseClassification: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Map.ReservedTaken != 0 || a.Map.ReservedNotTaken != 1 {
		t.Fatalf("reserved entries %d/%d", a.Map.ReservedTaken, a.Map.ReservedNotTaken)
	}
	// Biased-taken branches share entry 0; biased-not-taken entry 1.
	if a.Map.EntryFor(4*1) != 0 || a.Map.EntryFor(4*2) != 0 {
		t.Fatal("biased-taken branches not pinned to entry 0")
	}
	if a.Map.EntryFor(4*3) != 1 {
		t.Fatal("biased-not-taken branch not pinned to entry 1")
	}
	// Mixed branches stay out of reserved entries.
	if a.Map.EntryFor(4*4) < 2 || a.Map.EntryFor(4*5) < 2 {
		t.Fatal("mixed branches leaked into reserved entries")
	}
	if a.Classification == nil {
		t.Fatal("classification missing from result")
	}
	// Same-class conflicts were dropped: the (0,1) edge is gone from
	// the allocator's graph.
	if a.Graph.HasEdge(0, 1) {
		t.Fatal("same-class biased conflict not dropped")
	}
	// Cross-class and mixed conflicts stay.
	if !a.Graph.HasEdge(3, 4) {
		t.Fatal("mixed conflict wrongly dropped")
	}
}

func TestAllocateErrors(t *testing.T) {
	p := buildProfile(mixed(2, 100), nil)
	if _, err := Allocate(nil, AllocationConfig{TableSize: 8}); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := Allocate(p, AllocationConfig{TableSize: 0}); err == nil {
		t.Error("zero table accepted")
	}
	if _, err := Allocate(p, AllocationConfig{TableSize: 2, UseClassification: true}); err == nil {
		t.Error("classified allocation into 2 entries accepted (needs >= 3)")
	}
}

func TestConventionalCost(t *testing.T) {
	// Two conflicting branches at PCs 4 and 4+4*16 collide mod 16 but
	// not mod 32.
	p := buildProfile(mixed(17, 1000), [][3]uint64{{0, 16, 500}})
	if c := mustConventionalCost(t, p, 16, AllocationConfig{}); c != 500 {
		t.Fatalf("mod-16 cost %d, want 500", c)
	}
	if c := mustConventionalCost(t, p, 32, AllocationConfig{}); c != 0 {
		t.Fatalf("mod-32 cost %d, want 0", c)
	}
	for _, size := range []int{0, -4} {
		if _, err := ConventionalCost(p, size, AllocationConfig{}); err == nil {
			t.Errorf("table size %d accepted", size)
		}
	}
	if _, err := ConventionalCost(nil, 16, AllocationConfig{}); err == nil {
		t.Error("nil profile accepted")
	}
}

func mustConventionalCost(t *testing.T, p *profile.Profile, size int, cfg AllocationConfig) uint64 {
	t.Helper()
	c, err := ConventionalCost(p, size, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConventionalCostWithClassification(t *testing.T) {
	branches := make([][2]uint64, 17)
	for i := range branches {
		branches[i] = [2]uint64{1000, 1000} // all biased taken
	}
	p := buildProfile(branches, [][3]uint64{{0, 16, 500}})
	if c := mustConventionalCost(t, p, 16, AllocationConfig{UseClassification: true}); c != 0 {
		t.Fatalf("same-class conflict counted: %d", c)
	}
	if c := mustConventionalCost(t, p, 16, AllocationConfig{}); c != 500 {
		t.Fatalf("unclassified cost %d", c)
	}
}

func TestRequiredBHTSizeFindsCliqueBound(t *testing.T) {
	// 8 branches in one clique, placed to collide in a 1024-entry
	// conventional table: ids 0 and 512 share (pc/4 mod 1024)? pc(i) =
	// (i+1)*4, so words 1..8 — no conventional collisions, baseline 0.
	// Allocation needs >= 8 entries for zero conflicts.
	p := buildProfile(mixed(8, 1000), cliquePairs(500, 0, 1, 2, 3, 4, 5, 6, 7))
	res, err := RequiredBHTSize(p, 1024, AllocationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineCost != 0 {
		t.Fatalf("baseline cost %d, want 0", res.BaselineCost)
	}
	if res.RequiredSize != 8 {
		t.Fatalf("required size %d, want 8 (clique size)", res.RequiredSize)
	}
	if res.AllocCost != 0 {
		t.Fatalf("alloc cost %d", res.AllocCost)
	}
	if res.Colorings == 0 {
		t.Fatal("no colorings recorded")
	}
	if res.BaselineSize != 1024 {
		t.Fatalf("baseline size %d", res.BaselineSize)
	}
	if a := res.Allocation; a.Map.TableSize != 8 || a.Config.TableSize != 8 || a.ConflictCost != 0 || a.Map.Allocated() != 8 {
		t.Fatalf("accepted allocation: size %d/%d, cost %d, %d branches", a.Map.TableSize, a.Config.TableSize, a.ConflictCost, a.Map.Allocated())
	}
}

func TestRequiredBHTSizeWithClassificationShrinks(t *testing.T) {
	// A clique of 12 where 8 members are biased-taken: classification
	// drops their mutual edges and pins them, so the mixed core of 4
	// (plus 2 reserved entries) is all that needs coloring.
	branches := make([][2]uint64, 12)
	for i := range branches {
		if i < 8 {
			branches[i] = [2]uint64{1000, 1000}
		} else {
			branches[i] = [2]uint64{1000, 500}
		}
	}
	ids := make([]uint64, 12)
	for i := range ids {
		ids[i] = uint64(i)
	}
	p := buildProfile(branches, cliquePairs(500, ids...))

	plain, err := RequiredBHTSize(p, 1024, AllocationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	classified, err := RequiredBHTSize(p, 1024, AllocationConfig{UseClassification: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.RequiredSize != 12 {
		t.Fatalf("plain required %d, want 12", plain.RequiredSize)
	}
	if classified.RequiredSize >= plain.RequiredSize {
		t.Fatalf("classification did not shrink: %d vs %d", classified.RequiredSize, plain.RequiredSize)
	}
	// 4 mixed branches + 2 reserved entries: 6, though the biased
	// branches' cross-class edges to mixed ones may require one or two
	// more. It must be at most 12 and at least 6.
	if classified.RequiredSize < 6 {
		t.Fatalf("classified required %d below floor 6", classified.RequiredSize)
	}
}

func TestRequiredBHTSizeRejectsSmallBaseline(t *testing.T) {
	p := buildProfile(mixed(8, 1000), cliquePairs(500, 0, 1, 2, 3))
	for _, tc := range []struct {
		baseline   int
		classified bool
	}{{0, false}, {-1, false}, {0, true}, {2, true}} {
		if _, err := RequiredBHTSize(p, tc.baseline, AllocationConfig{UseClassification: tc.classified}); err == nil {
			t.Errorf("baseline %d (classification=%v) accepted", tc.baseline, tc.classified)
		}
	}
	for _, tc := range []struct {
		baseline   int
		classified bool
	}{{1, false}, {3, true}} {
		res, err := RequiredBHTSize(p, tc.baseline, AllocationConfig{UseClassification: tc.classified})
		if err != nil {
			t.Errorf("baseline %d (classification=%v): %v", tc.baseline, tc.classified, err)
		} else if res.RequiredSize != tc.baseline {
			t.Errorf("baseline %d (classification=%v): required size %d", tc.baseline, tc.classified, res.RequiredSize)
		}
	}
}

func TestEntryLoadAndStats(t *testing.T) {
	p := buildProfile(mixed(4, 1000), cliquePairs(500, 0, 1, 2, 3))
	a, err := Allocate(p, AllocationConfig{TableSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	occupied, maxLoad := a.Map.LoadStats()
	if occupied != 4 || maxLoad != 1 {
		t.Fatalf("occupied=%d maxLoad=%d", occupied, maxLoad)
	}
	// Three branches in entry 2, one in entry 0, one out of range (not
	// counted).
	m := NewAllocationMap(4, []uint64{4, 8, 12, 16, 20}, []int{2, 2, 0, 2, 4}, -1, -1)
	if occupied, maxLoad := m.LoadStats(); occupied != 2 || maxLoad != 3 {
		t.Fatalf("occupied=%d maxLoad=%d, want 2/3", occupied, maxLoad)
	}
}

func TestAllocationMapPCs(t *testing.T) {
	p := buildProfile(mixed(5, 100), nil)
	a, err := Allocate(p, AllocationConfig{TableSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Map.PCs(), p.PCs) || a.Map.Allocated() != len(p.PCs) {
		t.Fatalf("PCs = %v, want the profile's %v", a.Map.PCs(), p.PCs)
	}
	// A repeated pc keeps its last entry and is listed once; an absent
	// one has no entry.
	m := NewAllocationMap(8, []uint64{12, 4, 12}, []int{1, 2, 3}, -1, -1)
	if !slices.Equal(m.PCs(), []uint64{12, 4}) {
		t.Fatalf("PCs = %v, want [12 4]", m.PCs())
	}
	if e, ok := m.Entry(12); !ok || e != 3 {
		t.Fatalf("Entry(12) = %d, %v; want 3, true", e, ok)
	}
	if _, ok := m.Entry(8); ok {
		t.Fatal("Entry(8) found an unallocated pc")
	}
}

// BenchmarkRequiredBHTSize runs the Table 3 and Table 4 searches on a
// synthetic profile the size of the largest Table 3 row's (gcc at
// scale 0.1: 3884 branches): 12 working sets of 120 branches with
// weights in [100, 1000), every third branch biased.
func BenchmarkRequiredBHTSize(b *testing.B) {
	r := rng.New(3)
	const n, sets, size = 3884, 12, 120
	branches := mixed(n, 1000)
	for i := 0; i < n; i += 3 {
		branches[i][1] = 1000 * uint64(i/3%2)
	}
	var pairs [][3]uint64
	for s := 0; s < sets; s++ {
		members := r.Perm(n)[:size]
		for i, u := range members {
			for _, v := range members[i+1:] {
				pairs = append(pairs, [3]uint64{uint64(u), uint64(v), uint64(100 + r.Intn(900))})
			}
		}
	}
	p := buildProfile(branches, pairs)
	for _, classified := range []bool{false, true} {
		b.Run(fmt.Sprintf("classification=%v", classified), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RequiredBHTSize(p, 1024, AllocationConfig{UseClassification: classified}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
