package predict

import "testing"

// flatWords is the word bound of the flat range of an isa.PCIndex:
// aligned PCs below flatWords*4 translate through the slice, the rest
// through the map.
const flatWords = 1 << 22

// TestIdealIndexerDensePath exercises the flat-slice fast path: aligned
// in-range PCs get entries in encounter order, stable across re-lookup,
// and the dense table grows geometrically without renumbering.
func TestIdealIndexerDensePath(t *testing.T) {
	ix := NewIdealIndexer()
	// First encounters assign in order.
	for i := 0; i < 200; i++ {
		pc := uint64(i) * 4
		if got := ix.Index(pc); got != i {
			t.Fatalf("Index(%#x) = %d on first encounter, want %d", pc, got, i)
		}
	}
	// Re-lookups are stable after growth.
	for i := 0; i < 200; i++ {
		pc := uint64(i) * 4
		if got := ix.Index(pc); got != i {
			t.Fatalf("Index(%#x) = %d on re-lookup, want %d", pc, got, i)
		}
	}
	if ix.Size() != 201 { // 200 assigned + 1 headroom
		t.Fatalf("Size() = %d, want 201", ix.Size())
	}
	// A PC far past the current dense length still lands on the dense
	// path (within flatWords) and forces a growth step.
	far := uint64(flatWords-1) * 4
	e := ix.Index(far)
	if e != 200 {
		t.Fatalf("far dense pc entry %d, want 200", e)
	}
	if ix.Index(far) != e {
		t.Fatal("far dense pc entry not stable")
	}
}

// TestIdealIndexerColdMapFallback exercises the map path: unaligned PCs
// and PCs beyond the dense ceiling share the cold map, keep stable
// entries, and never collide with dense assignments.
func TestIdealIndexerColdMapFallback(t *testing.T) {
	ix := NewIdealIndexer()
	dense := ix.Index(4)

	unaligned := uint64(6)
	huge := uint64(flatWords) * 4 // first word past the ceiling
	ua, ha := ix.Index(unaligned), ix.Index(huge)
	if ua == dense || ha == dense || ua == ha {
		t.Fatalf("entries collide: dense=%d unaligned=%d huge=%d", dense, ua, ha)
	}
	if ix.Index(unaligned) != ua || ix.Index(huge) != ha {
		t.Fatal("cold-map entries not stable")
	}
	if ix.Size() != 4 { // 3 assigned + 1 headroom
		t.Fatalf("Size() = %d, want 4", ix.Size())
	}
	// The dense path must still work after the map exists.
	if ix.Index(8) != 3 {
		t.Fatalf("dense assignment after cold fallback = %d, want 3", ix.Index(8))
	}
}

// TestIdealIndexerMixedOrder interleaves dense and cold lookups and
// checks the shared entry counter never hands out a duplicate.
func TestIdealIndexerMixedOrder(t *testing.T) {
	ix := NewIdealIndexer()
	pcs := []uint64{4, 6, 8, uint64(flatWords+3) * 4, 12, 2, 16}
	seen := make(map[int]uint64)
	for _, pc := range pcs {
		e := ix.Index(pc)
		if prev, dup := seen[e]; dup {
			t.Fatalf("entry %d assigned to both %#x and %#x", e, prev, pc)
		}
		seen[e] = pc
	}
	if len(seen) != len(pcs) {
		t.Fatalf("assigned %d entries for %d branches", len(seen), len(pcs))
	}
}
