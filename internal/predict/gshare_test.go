package predict

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// gshareOracle is an intentionally naive map-based reference for the
// flat-PHT Gshare: same hash, but counters live in a map keyed by the
// full index, so there is nothing the dense table's masking could hide.
type gshareOracle struct {
	ix   Indexer
	hist uint32
	mask uint32
	pht  map[uint32]Counter2
}

func newGshareOracle(ix Indexer, entries int) *gshareOracle {
	return &gshareOracle{ix: ix, mask: uint32(entries - 1), pht: make(map[uint32]Counter2)}
}

func (o *gshareOracle) index(pc uint64) uint32 {
	return (o.hist ^ uint32(o.ix.Index(pc))) & o.mask
}

func (o *gshareOracle) counter(i uint32) Counter2 {
	if c, ok := o.pht[i]; ok {
		return c
	}
	return WeakTaken
}

func (o *gshareOracle) predict(pc uint64) bool { return o.counter(o.index(pc)).Taken() }

func (o *gshareOracle) update(pc uint64, taken bool) {
	i := o.index(pc)
	o.pht[i] = o.counter(i).Update(taken)
	o.hist = ((o.hist << 1) | b2i(taken)) & o.mask
}

// TestGshareMatchesOracleMap differentially tests the flat-table gshare
// against the map oracle on a pseudo-random multi-branch stream, for
// both the conventional and the allocated indexer: every prediction
// agrees, and the set of touched PHT entries (the aliasing footprint)
// matches exactly.
func TestGshareMatchesOracleMap(t *testing.T) {
	alloc := core.NewAllocationMap(64, []uint64{0x40, 0x44, 0x48, 0x4c, 0x80}, []int{0, 1, 2, 3, 0}, -1, -1)
	indexers := map[string]Indexer{
		"pc-mod":    PCModIndexer{Entries: 64},
		"allocated": AllocIndexer{Map: alloc},
	}
	for name, ix := range indexers {
		t.Run(name, func(t *testing.T) {
			g, err := NewGshareIndexed(ix, 64)
			if err != nil {
				t.Fatal(err)
			}
			o := newGshareOracle(ix, 64)
			r := rng.New(13)
			pcs := []uint64{0x40, 0x44, 0x48, 0x4c, 0x80, 0x40 + 64*4} // last two alias pc 0x40's entry
			for i := 0; i < 5000; i++ {
				pc := pcs[r.Intn(len(pcs))]
				taken := r.Bool(0.6)
				if g.Predict(pc) != o.predict(pc) {
					t.Fatalf("step %d pc %#x: flat and oracle disagree", i, pc)
				}
				g.Update(pc, taken)
				o.update(pc, taken)
			}
			// Aliasing footprint: entries the oracle touched must be
			// exactly the flat entries off power-on state or touched back
			// onto it — so count via a replay of oracle keys.
			for idx, c := range o.pht {
				if g.pht[idx] != c {
					t.Fatalf("PHT[%d] = %s, oracle has %s", idx, g.pht[idx], c)
				}
			}
		})
	}
}

// TestGshareAliasingCounts pins the aliasing arithmetic itself: with
// history forced to zero, two branches collide exactly when the indexer
// maps them to the same masked entry — and the PC-mod and allocated
// schemes disagree about which pairs those are.
func TestGshareAliasingCounts(t *testing.T) {
	const entries = 16
	pcs := []uint64{0x40, 0x40 + 4*entries, 0x44, 0x48}

	countCollisions := func(ix Indexer) int {
		seen := map[uint32][]uint64{}
		for _, pc := range pcs {
			i := uint32(ix.Index(pc)) & (entries - 1)
			seen[i] = append(seen[i], pc)
		}
		n := 0
		for _, group := range seen {
			n += len(group) - 1
		}
		return n
	}

	// PC-mod: 0x40 and 0x40+4*16 collide (same word index mod 16).
	if got := countCollisions(PCModIndexer{Entries: entries}); got != 1 {
		t.Fatalf("pc-mod collisions = %d, want 1", got)
	}
	// Allocation separates the colliding pair.
	m := core.NewAllocationMap(entries, []uint64{0x40, 0x40 + 4*entries, 0x44, 0x48}, []int{0, 1, 2, 3}, -1, -1)
	if got := countCollisions(AllocIndexer{Map: m}); got != 0 {
		t.Fatalf("allocated collisions = %d, want 0", got)
	}
}

// TestGshareIndexedMatchesLegacyConstructor: NewGshare(n) and
// NewGshareIndexed(PCModIndexer{n}, n) are the same predictor, so the
// refactor that made the PC component pluggable changed no results.
func TestGshareIndexedMatchesLegacyConstructor(t *testing.T) {
	a, err := NewGshare(256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGshareIndexed(PCModIndexer{Entries: 256}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != b.Name() {
		t.Fatalf("names differ: %q vs %q", a.Name(), b.Name())
	}
	r := rng.New(17)
	for i := 0; i < 3000; i++ {
		pc := uint64(r.Uint64()%1024) * 4
		taken := r.Bool(0.5)
		if a.Predict(pc) != b.Predict(pc) {
			t.Fatalf("step %d: constructors diverge", i)
		}
		a.Update(pc, taken)
		b.Update(pc, taken)
	}
	if a.Snapshot() != b.Snapshot() {
		t.Fatal("snapshots diverge")
	}
}
